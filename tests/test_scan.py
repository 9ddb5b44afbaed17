from scan import ROUTES, scan


def test_scan_slice_agrees_with_brute_solve():
    # Every tenth graph of the scan: fpt decides each ask as brute_solve
    # does, and takes each of its routes.
    disagreements, routes, _ = scan(step=10)
    assert disagreements == []
    assert {r for r, n in routes.items() if n} == set(ROUTES)
