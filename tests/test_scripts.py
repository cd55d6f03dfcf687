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


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("lca_profile", ["--n", "12", "--trials", "1"], "--trials"),
        ("lca_profile", ["--n", "12", "--trials", "0"], "--trials"),
        ("lca_profile", ["--n", "12", "--budget", "0"], "budget must be positive"),
        ("lca_profile", ["--n", "12", "--lca", "b-matching", "--depth", "600"], "--depth 600"),
        ("ratio_sweep", ["--n", "12", "--R", "1,x"], "--R"),
        ("ratio_sweep", ["--n", "12", "--R", "0"], "--R"),
        ("ratio_sweep", ["--n", "12", "--samples", "0"], "--samples"),
        ("ratio_sweep", ["--n", "12", "--eps", "2"], "eps must lie in (0, 1)"),
        ("ratio_sweep", ["--n", "30", "--R", "1", "--exact"], "enumeration cap"),
        ("lca_profile", ["--n", "12", "--edge-prob", "0.5", "--lca", "b-matching", "--alpha", "3",
                         "--walk-len", "6", "--trials", "2"], "hyperwalks"),
        ("lca_profile", ["--n", "12", "--trials", "2", "--out", "/nonexistent/x.csv"],
         "No such file or directory"),
        ("lca_profile", ["--n", "12", "--lca", "b-matching", "--eps", "1.5"], "eps must lie in (0, 1)"),
    ],
)
def test_bad_arguments_exit_with_usage(capsys, name, argv, message):
    main = script_main(name)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and message in captured.err.splitlines()[-1]
