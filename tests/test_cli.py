import pytest

from conftest import DIAMOND_TEXT
from dspaths.cli import EXIT_ERROR, EXIT_NO, EXIT_TOO_LARGE, EXIT_YES, run_cli


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    return str(path)


def test_solve_yes(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "4"]) == EXIT_YES


def test_solve_no(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "2", "-d", "5"]) == EXIT_NO


def test_malformed_graph(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p dsp 2 3\ns 1\nt 2\na 1 2 1\n")
    assert run_cli(["solve", "-g", str(path), "-k", "1", "-d", "0"]) == EXIT_ERROR


def test_negative_k(diamond_file):
    assert run_cli(["solve", "-g", diamond_file, "-k", "-1", "-d", "0"]) == EXIT_ERROR


def test_oracle_over_budget(diamond_file):
    argv = ["oracle", "-g", diamond_file, "-k", "2", "-d", "4", "--enum-budget", "1"]
    assert run_cli(argv) == EXIT_TOO_LARGE


@pytest.mark.parametrize("mode", ("fpt", "oracle", "hybrid"))
def test_solve_json_verifies(diamond_file, tmp_path, mode):
    cert = str(tmp_path / "cert.json")
    argv = ["solve", "-g", diamond_file, "-k", "2", "-d", "4", "--mode", mode, "--json", cert]
    assert run_cli(argv) == EXIT_YES
    argv = ["verify", "-g", diamond_file, "-c", cert, "-k", "2", "-d", "4"]
    assert run_cli(argv) == EXIT_YES
