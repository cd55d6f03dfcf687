"""Smoke runs of the experiment scripts on tiny random instances."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_ratio_sweep(capsys):
    main = script_main("ratio_sweep")
    assert main(["--n", "12", "--R", "1,2", "--samples", "20", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "R,h_edges,h_max_degree,ratio,stderr"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


@pytest.mark.parametrize("lca", ["tmis", "b-matching"])
def test_lca_profile(capsys, tmp_path, lca):
    main = script_main("lca_profile")
    csv = tmp_path / "ledger.csv"
    argv = ["--n", "12", "--lca", lca, "--trials", "3", "--out", str(csv)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("graph: n=12 ") and lines[0].endswith(f"lca={lca}  sweeps=3")
    assert lines[-1].startswith("correlated bound: ")
    assert csv.read_text().startswith("kind,site,mean_qplus,mean_qminus,mean_psi\n")
