from scan import ROUTES, scan


def test_scan_slice_agrees_with_brute_solve():
    # Every tenth graph of the scan: fpt and hybrid decide each ask as
    # brute_solve does, and each route of the scan is taken.
    disagreements, routes, _ = scan(step=10)
    assert disagreements == []
    taken = {r for counts in routes.values() for r, n in counts.items() if n}
    assert taken == set(ROUTES)
