import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stochmatch
from oracles import path_graph
from stochmatch import cli, sparsifier
from stochmatch.cli import main
from stochmatch.graph import ENUM_CAP, Graph, load_graph, write_graph_text
from stochmatch.hyperwalk import DEPTH_LIMIT
from stochmatch.sparsifier import BUILD_DRAW_LIMIT


def write_input(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(write_graph_text(g))
    return str(path)


@pytest.fixture
def tri_file(tmp_path, triangle):
    return write_input(tmp_path, triangle, "tri.txt")


@pytest.fixture
def single_file(tmp_path):
    return write_input(tmp_path, Graph.build(2, [(0, 1, 0.5)]), "single.txt")


class TestSparsify:
    def test_sure_single_edge(self, tmp_path):
        inp = write_input(tmp_path, Graph.build(2, [(0, 1, 1.0)]))
        out = tmp_path / "H.txt"
        rc = main(["sparsify", "--input", inp, "--R", "3", "--out", str(out)])
        assert rc == 0
        sub = load_graph(str(out))
        assert sub.n == 2 and sub.m == 1
        meta = json.loads((tmp_path / "H.txt.meta.json").read_text())
        assert meta["R"] == 3
        assert meta["h_edges"] == 1
        assert meta["h_max_degree"] == 1
        assert meta["q"] == [1.0]

    def test_empty_graph(self, tmp_path):
        inp = write_input(tmp_path, Graph.build(3, []))
        out = tmp_path / "H.txt"
        rc = main(["sparsify", "--input", inp, "--out", str(out)])
        assert rc == 0
        assert load_graph(str(out)).m == 0
        meta = json.loads((tmp_path / "H.txt.meta.json").read_text())
        assert meta["h_edges"] == 0
        assert meta["crucial_count"] == 0

    def test_repeat_runs_are_byte_identical(self, tmp_path, tri_file):
        args = ["sparsify", "--input", tri_file, "--R", "8", "--seed", "7"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.meta.json").read_bytes() == (
            tmp_path / "b.txt.meta.json"
        ).read_bytes()

    def test_degree_bound_in_meta(self, tmp_path, tri_file):
        out = tmp_path / "H.txt"
        for R in (1, 2, 4):
            rc = main(
                ["sparsify", "--input", tri_file, "--R", str(R), "--seed", "3",
                 "--out", str(out)]
            )
            assert rc == 0
            meta = json.loads((tmp_path / "H.txt.meta.json").read_text())
            assert meta["h_max_degree"] <= R

    def test_requires_out(self, tri_file):
        assert main(["sparsify", "--input", tri_file, "--R", "2"]) == 2


class TestEvaluate:
    def test_identity_ratio(self, tmp_path, single_file):
        out = tmp_path / "ev.csv"
        rc = main(
            ["evaluate", "--input", single_file, "--R", "1", "--seed", "0",
             "--exact", "--out", str(out)]
        )
        assert rc == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "n,m,p,R,ratio,stderr,mode"
        assert row == "2,1,0.5,1,1.000000,0.000000,exact"

    def test_triangle_single_edge_sparsifier(self, tmp_path, tri_file):
        out = tmp_path / "ev.csv"
        rc = main(
            ["evaluate", "--input", tri_file, "--R", "1", "--seed", "0",
             "--exact", "--out", str(out)]
        )
        assert rc == 0
        row = out.read_text().strip().splitlines()[1]
        assert row == "3,3,0.5,1,0.571429,0.000000,exact"

    def test_sweep_rows_non_decreasing(self, tmp_path, tri_file):
        out = tmp_path / "ev.csv"
        rc = main(
            ["evaluate", "--input", tri_file, "--R", "1,2,4,8", "--seed", "7",
             "--exact", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        ratios = [float(line.split(",")[4]) for line in lines[1:]]
        rs = [int(line.split(",")[3]) for line in lines[1:]]
        assert rs == [1, 2, 4, 8]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_monte_carlo_mode_deterministic(self, tmp_path, tri_file):
        args = ["evaluate", "--input", tri_file, "--R", "2", "--seed", "5",
                "--samples", "200", "--no-exact"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().strip().splitlines()[1].endswith(",mc")

    def test_writes_to_stdout_by_default(self, capsys, tri_file):
        rc = main(["evaluate", "--input", tri_file, "--R", "1", "--seed", "0",
                   "--exact"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,m,p,R,ratio,stderr,mode")


def test_readme_quick_start_runs(capsys):
    # the first python block of README.md, run as written, so a moved
    # import or renamed argument there fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    ratio, stderr = map(float, capsys.readouterr().out.split())
    assert 0.0 < ratio <= 1.0 and stderr > 0.0


class TestLcaStats:
    def test_tmis_ledger_identity(self, tmp_path):
        g = Graph.build(5, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)])
        inp = write_input(tmp_path, g)
        out = tmp_path / "ledger.csv"
        rc = main(["lca-stats", "--input", inp, "--lca", "tmis", "--seed", "2",
                   "--samples", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,site,mean_qplus,mean_qminus,mean_psi"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == g.n
        qplus = sum(float(r[2]) for r in rows)
        qminus = sum(float(r[3]) for r in rows)
        assert qplus == pytest.approx(qminus, abs=1e-6 * g.n)
        for r in rows:
            assert float(r[4]) >= float(r[2]) - 1e-9

    def test_budget_flag_accepted(self, tmp_path, capsys):
        g = Graph.build(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        inp = write_input(tmp_path, g)
        out = tmp_path / "ledger.csv"
        rc = main(["lca-stats", "--input", inp, "--lca", "tmis", "--budget", "3",
                   "--samples", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("kind,site,")
        assert main(["lca-stats", "--input", inp, "--budget", "0"]) == 2
        assert capsys.readouterr().err == "error: budget must be positive when set\n"
        # the same flag and message for the hyperwalk MIS
        assert main(["lca-stats", "--input", inp, "--lca", "b-matching", "--budget", "0"]) == 2
        assert capsys.readouterr().err == "error: budget must be positive when set\n"

    def test_b_matching_ledger(self, tmp_path, tri_file):
        out = tmp_path / "ledger.csv"
        rc = main(["lca-stats", "--input", tri_file, "--lca", "b-matching",
                   "--seed", "4", "--samples", "5", "--depth", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("kind,site,")
        assert all(line.startswith("edge,") for line in lines[1:])

    def test_repeat_runs_identical(self, tmp_path, tri_file):
        args = ["lca-stats", "--input", tri_file, "--lca", "tmis", "--seed", "9",
                "--samples", "8"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_micro_single_edge_passes(self, tmp_path, single_file):
        out = tmp_path / "report.json"
        rc = main(["verify", "--input", single_file, "--thresholds", "0.1,0.4",
                   "--samples", "10", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 10
        assert [c["name"] for c in report["claims"] if c["flag"]] == []

    def test_no_crucial_instance_vacuous(self, tmp_path):
        inp = write_input(tmp_path, Graph.build(3, []))
        out = tmp_path / "report.json"
        rc = main(["verify", "--input", inp, "--samples", "5", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert all(not c["flag"] for c in report["claims"])

    def test_no_vertices(self, tmp_path):
        inp = tmp_path / "empty.txt"
        inp.write_text("n 0\n")
        out = tmp_path / "report.json"
        assert main(["verify", "--input", str(inp), "--samples", "2", "--out", str(out)]) == 0
        claims = {c["name"]: c for c in json.loads(out.read_text())["claims"]}
        for name in ("x-vertex-expectation", "x-vertex-tail"):
            assert claims[name]["note"] == "no vertices"
            assert not claims[name]["flag"]

    def test_odd_set_cap_skips_blossom_claim(self, tmp_path):
        # floor(1/0.05) = 20 exceeds BLOSSOM_SET_CAP: the claim is skipped,
        # the run still succeeds
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)]))
        out = tmp_path / "report.json"
        rc = main(["verify", "--input", inp, "--eps", "0.05", "--R", "1",
                   "--thresholds", "0.1,0.2", "--samples", "2", "--table-samples", "0",
                   "--delta-trials", "1", "--out", str(out)])
        assert rc == 0
        claims = {c["name"]: c for c in json.loads(out.read_text())["claims"]}
        assert claims["blossom-feasibility"]["note"] == "skipped: odd-set size cap exceeded"
        assert not claims["blossom-feasibility"]["flag"]


class TestConfigOverlay:
    def test_config_overrides_defaults(self, tmp_path, tri_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, "R": 2, "seed": 5,
                                       "exact": True}))
        out = tmp_path / "ev.csv"
        rc = main(["evaluate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().splitlines()[1].split(",")[3] == "2"

    def test_flags_override_config(self, tmp_path, tri_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, "R": 2, "seed": 5,
                                       "exact": True}))
        out = tmp_path / "ev.csv"
        rc = main(["evaluate", "--config", str(cfgfile), "--R", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().splitlines()[1].split(",")[3] == "1"

    def test_thresholds_list_form(self, tmp_path, single_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": single_file,
                                       "thresholds": [0.1, 0.4], "samples": 5}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfgfile), "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "verify"])
    def test_R_list_form(self, tmp_path, single_file, capsys, command):
        # a JSON list of one R runs as --R does; a longer one is refused
        # by every command but evaluate
        cfgfile = tmp_path / "cfg.json"
        values = {"input": single_file, "thresholds": [0.1, 0.4], "samples": 3}
        cfgfile.write_text(json.dumps(dict(values, R=[3])))
        listed, flagged = tmp_path / "listed", tmp_path / "flagged"
        assert main([command, "--config", str(cfgfile), "--out", str(listed)]) == 0
        assert main([command, "--config", str(cfgfile), "--R", "3", "--out", str(flagged)]) == 0
        assert listed.read_bytes() == flagged.read_bytes()
        cfgfile.write_text(json.dumps(dict(values, R=[3, 4])))
        rc = main([command, "--config", str(cfgfile), "--out", str(listed)])
        if command == "verify":
            assert rc == 2
            assert capsys.readouterr().err == "error: this command takes a single R\n"
        else:
            assert rc == 0
            assert [row.split(",")[3] for row in listed.read_text().splitlines()[1:]] == ["3", "4"]

    def test_unknown_config_key_rejected(self, tmp_path, tri_file, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, "bogus_knob": 1}))
        assert main(["evaluate", "--config", str(cfgfile)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_mis_budget_option_gone(self, tmp_path, tri_file, capsys):
        # --budget is the one MIS budget: tmis and the hyperwalk MIS read it
        assert main(["verify", "--input", tri_file, "--R", "1", "--mis-budget", "1"]) == 2
        assert "--mis-budget" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, "R": 1, "mis_budget": 1}))
        assert main(["verify", "--config", str(cfgfile)]) == 2
        assert "mis_budget" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("[1, 2]")
        assert main(["evaluate", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize(
        "key,value",
        [("seed", "7"), ("eps", "0.2"), ("samples", "10"), ("R", True),
         ("R", [True, 2]), ("thresholds", [True, 2]), ("thresholds", True),
         ("R", [2.7]), ("R", [2, 3.0])],
    )
    def test_wrong_value_type_rejected(self, tmp_path, tri_file, capsys, key, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, key: value}))
        assert main(["evaluate", "--config", str(cfgfile), "--R", "1"]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_value_types_accepted(self, tmp_path, tri_file):
        cfgfile = tmp_path / "cfg.json"
        # an int will do for a float option; null keeps a null default
        cfgfile.write_text(json.dumps({"input": tri_file, "seed": 7, "eps": 0.3,
                                       "margin": 0, "samples": None, "exact": True,
                                       "R": "1,2", "thresholds": [0.1, 0.4]}))
        assert main(["evaluate", "--config", str(cfgfile),
                     "--out", str(tmp_path / "ev.csv")]) == 0


class TestExitCodes:
    def test_missing_input_flag(self, capsys):
        assert main(["evaluate", "--R", "1"]) == 2
        assert "input" in capsys.readouterr().err

    def test_nonexistent_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["evaluate", "--input", missing, "--R", "1"]) == 2
        capsys.readouterr()
        assert main(["evaluate", "--config", missing, "--R", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: ")

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        cases = [
            ("n 2\n0 1\n", "line 2: expected 'u v p'"),
            ("n 3\nn 4\n", "line 2: bad vertex-count header"),
            ("n x\n", "line 1: bad vertex-count header"),
            ("0 1 x\n", "line 1: expected 'u v p'"),
            ("0 0 0.5\n", "self-loop"),
            ("0 1 0.5\n1 0 0.5\n", "parallel edge"),
            ("0 1 1.5\n", "outside (0, 1]"),
            ("n 2\n0 5 0.5\n", "out of range"),
        ]
        for text, message in cases:
            bad.write_text(text)
            assert main(["evaluate", "--input", str(bad), "--R", "1"]) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err, text

    def test_enumeration_guard_aborts(self, tmp_path, capsys):
        pairs = [(u, v, 0.5) for u in range(8) for v in range(u + 1, 8)]
        inp = write_input(tmp_path, Graph.build(8, pairs))
        rc = main(["evaluate", "--input", inp, "--R", "1", "--exact",
                   "--samples", "10"])
        assert rc == 1
        assert "aborted" in capsys.readouterr().err
        # one edge past the cap is refused too, with one line naming both counts
        inp = write_input(tmp_path, path_graph(ENUM_CAP + 1), "path.txt")
        assert main(["evaluate", "--input", inp, "--R", "1", "--exact"]) == 1
        assert capsys.readouterr().err == f"aborted: {ENUM_CAP + 1} edges exceeds enumeration cap {ENUM_CAP}\n"

    def test_walk_index_ceiling_aborts(self, tmp_path, capsys):
        pairs = [(u, v, 0.5) for u in range(6) for v in range(u + 1, 6)]
        inp = write_input(tmp_path, Graph.build(6, pairs))
        rc = main(["lca-stats", "--input", inp, "--lca", "b-matching", "--alpha", "3",
                   "--walk-len", "6", "--samples", "1", "--out", str(tmp_path / "l.csv")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["aborted: more than 100000 hyperwalks at length 6"]

    def test_derived_R_draw_guard_aborts(self, tmp_path, capsys):
        # without --R, kite's thresholds derive R = 122,070,313 at eps 0.2
        inp = write_input(tmp_path, GOLDEN_GRAPHS["kite"][0])
        start = time.perf_counter()
        rc = main(["sparsify", "--input", inp, "--out", str(tmp_path / "H.txt")])
        assert rc == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "R=122070313" in err and f"limit of {BUILD_DRAW_LIMIT}" in err
        assert "pass --R or --thresholds" in err

    def test_threshold_underflow_refused(self, tmp_path, capsys):
        # (eps * 1e-200)^2 is below the smallest float, so every bucket
        # threshold is 0.0 and no band exists; --thresholds gets past it
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 1e-200), (1, 2, 0.5)]))
        out = str(tmp_path / "H.txt")
        assert main(["sparsify", "--input", inp, "--R", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thresholds underflow")
        assert "smallest edge probability 1e-200" in err and "pass --thresholds" in err
        assert main(["sparsify", "--input", inp, "--R", "2", "--thresholds", "0.1,0.2",
                     "--out", out]) == 0

    @pytest.mark.parametrize("p, thresholds", [(1e-80, []), (0.5, ["--thresholds", "0,0.1"])],
                             ids=["derived", "given"])
    def test_zero_tau_minus_without_R_refused(self, tmp_path, capsys, p, thresholds):
        # (eps * 1e-80)^2 = 4e-162 leaves a band whose tau_minus is 0.0, and
        # --thresholds can set it directly; neither derives an R
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, p), (1, 2, 0.5)]))
        out = str(tmp_path / "H.txt")
        assert main(["sparsify", "--input", inp, "--out", out] + thresholds) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tau_minus is 0.0 at smallest edge probability")
        assert f"probability {p!r}" in err and "--R" in err and "--thresholds" in err

    def test_bad_thresholds(self, tri_file, capsys):
        cases = [
            ("0.5,0.1", "thresholds must satisfy 0 <= tau_minus < tau_plus"),
            ("0.1", "thresholds must be two comma-separated values"),
            ("a,b", "bad thresholds: could not convert string to float: 'a'"),
        ]
        for value, message in cases:
            assert main(["evaluate", "--input", tri_file, "--R", "1",
                         "--thresholds", value]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_R_list(self, tri_file, capsys):
        assert main(["evaluate", "--input", tri_file, "--R", "two"]) == 2
        assert main(["evaluate", "--input", tri_file, "--R", "0"]) == 2

    def test_multi_R_rejected_outside_evaluate(self, tri_file, capsys):
        assert main(["sparsify", "--input", tri_file, "--R", "1,2",
                     "--out", "/dev/null"]) == 2

    @pytest.mark.parametrize("threads", [0, -1])
    def test_nonpositive_threads_rejected(self, tmp_path, single_file, capsys, threads):
        out = tmp_path / "report.json"
        assert main(["verify", "--input", single_file, "--samples", "2",
                     "--threads", str(threads), "--out", str(out)]) == 2
        assert "threads" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": single_file, "samples": 2,
                                       "threads": threads}))
        assert main(["verify", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exponent", [0, -3])
    def test_delta_exponent_below_one_rejected(self, tmp_path, capsys, exponent):
        # (eps p_min)^k >= 1 for k <= 0, so build_x's collision guard could never fire
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)]))
        out = tmp_path / "report.json"
        assert main(["verify", "--input", inp, "--R", "1", "--delta-exponent",
                     str(exponent), "--out", str(out)]) == 2
        assert "delta_exponent" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": inp, "R": 1, "delta_exponent": exponent}))
        assert main(["verify", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "delta_exponent" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_delta_trials_names_its_flag(self, tmp_path, capsys):
        # a 4-cycle with a chord: with these thresholds f has support, so
        # the delta table has pairs to estimate and no trial to do it
        g = Graph.build(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5), (0, 2, 0.9)])
        inp = write_input(tmp_path, g)
        argv = ["verify", "--input", inp, "--eps", "0.3", "--R", "2", "--samples", "2",
                "--alpha", "1", "--walk-len", "2", "--depth", "2", "--delta-trials", "0",
                "--out", str(tmp_path / "out")]
        assert main(argv + ["--thresholds", "0.5,0.9"]) == 2
        assert "--delta-trials" in capsys.readouterr().err
        assert main(argv + ["--thresholds", "0.2,0.4"]) == 0

    @pytest.mark.parametrize("flag, command", [
        ("--samples", ["evaluate", "--R", "2"]),
        ("--q-samples", ["sparsify", "--R", "2"]),
        ("--match-prob-trials", ["verify", "--eps", "0.3", "--R", "2", "--samples", "2",
                                 "--alpha", "1", "--walk-len", "2", "--depth", "2",
                                 "--q-samples", "50"]),
    ], ids=["samples", "q-samples", "match-prob-trials"])
    def test_zero_sampled_count_names_its_flag(self, tmp_path, capsys, flag, command):
        # the 4-cycle with a chord: a sampled run reads each count, which
        # ExperimentConfig accepts at 0 since an exact run reads none
        g = Graph.build(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5), (0, 2, 0.9)])
        argv = command + ["--input", write_input(tmp_path, g), "--no-exact", flag, "0",
                          "--out", str(tmp_path / "out")]
        if flag == "--match-prob-trials":  # f has support at these thresholds only
            assert main(argv + ["--thresholds", "0.2,0.4"]) == 0
            argv += ["--thresholds", "0.5,0.9"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: samples must be positive; pass {flag} 1 or more\n"

    def test_recursion_limit_aborts(self, tmp_path, capsys):
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)]))
        rc = main(["lca-stats", "--input", inp, "--lca", "b-matching",
                   "--depth", "1200", "--samples", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"aborted: --depth 1200 exceeds the recursion limit of {DEPTH_LIMIT}" in err

    @pytest.mark.parametrize("command", [
        ["lca-stats", "--lca", "b-matching", "--samples", "1"],
        ["verify", "--R", "1", "--thresholds", "0.1,0.2", "--samples", "1",
         "--table-samples", "0", "--delta-trials", "1"],
        ["verify", "--R", "1", "--thresholds", "0.1,0.2", "--samples", "1",
         "--table-samples", "2", "--delta-trials", "1"],
    ], ids=["lca-stats", "verify", "verify-sampled-gates"])
    def test_depth_limit_is_reachable(self, tmp_path, capsys, command):
        # both routes run at the limit inside the interpreter's default
        # frame limit, and refuse one level past it by naming the limit,
        # before any gate is built or sampled
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)]))
        out = str(tmp_path / "out")
        assert main(command + ["--input", inp, "--depth", str(DEPTH_LIMIT), "--out", out]) == 0
        past = str(DEPTH_LIMIT + 1)
        assert main(command + ["--input", inp, "--depth", past, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"--depth {past} exceeds the recursion limit of {DEPTH_LIMIT} levels" in err
        assert "maximum recursion depth" not in err

    def test_verify_refuses_depth_before_q(self, tmp_path, capsys, monkeypatch):
        # the depth is refused before any pipeline stage runs, as lca-stats
        # refuses it: q, H and f would cost seconds on a larger graph
        def estimate_q(*args, **kwargs):
            raise AssertionError("q estimated before the depth check")

        monkeypatch.setattr(sparsifier, "estimate_q", estimate_q)
        inp = write_input(tmp_path, Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)]))
        past = str(DEPTH_LIMIT + 1)
        assert main(["verify", "--input", inp, "--depth", past, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"aborted: --depth {past} exceeds the recursion limit of {DEPTH_LIMIT} levels" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def refuse_before_loading(tmp_path, tri_file, monkeypatch, command, mode, key, value) -> int:
        """Exit code of ``command`` with ``key`` set to ``value`` by its
        flag or by a config file, where loading the graph fails the test;
        no output file may appear."""
        def load_graph(path):
            raise AssertionError(f"graph loaded before {key} was checked")

        monkeypatch.setattr(cli, "load_graph", load_graph)
        argv = [command, "--input", tri_file, "--out", str(tmp_path / "out")]
        if mode == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfgfile)]
        code = main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["tri.txt"] + (["cfg.json"] if mode == "config" else [])
        )
        return code

    @pytest.mark.parametrize("mode", ["flag", "config"])
    @pytest.mark.parametrize("command", ["verify", "lca-stats"])
    def test_zero_samples_refused_before_the_graph_loads(
        self, tmp_path, tri_file, capsys, monkeypatch, command, mode
    ):
        # both commands always read --samples; at zero, verify used to
        # build q, H, f and both tables before refusing it
        assert self.refuse_before_loading(
            tmp_path, tri_file, monkeypatch, command, mode, "samples", 0
        ) == 2
        assert capsys.readouterr().err == f"error: {command} needs --samples 1 or more, got 0\n"

    @pytest.mark.parametrize("mode", ["flag", "config"])
    @pytest.mark.parametrize("command", ["sparsify", "verify"])
    def test_R_list_refused_before_the_graph_loads(
        self, tmp_path, tri_file, capsys, monkeypatch, command, mode
    ):
        assert self.refuse_before_loading(
            tmp_path, tri_file, monkeypatch, command, mode, "R", "3,4"
        ) == 2
        assert capsys.readouterr().err == "error: this command takes a single R\n"

    def test_unknown_lca_kind_refused_before_the_graph_loads(
        self, tmp_path, tri_file, capsys, monkeypatch
    ):
        # argparse's choices refuse the flag; a config value gets past them
        assert self.refuse_before_loading(
            tmp_path, tri_file, monkeypatch, "lca-stats", "config", "lca", "nope"
        ) == 2
        assert capsys.readouterr().err == "error: unknown lca kind: nope\n"

    # one value out of range per graph-free knob, with its exit code and
    # message; ExperimentConfig refuses each for every command, read or not
    KNOB_CASES = {
        "eps-zero": ("eps", 0.0, 2, "error: eps must lie in (0, 1)"),
        "eps-one": ("eps", 1.0, 2, "error: eps must lie in (0, 1)"),
        "alpha": ("alpha", -1, 2, "error: alpha must be nonnegative"),
        "depth": ("depth", -1, 2, "error: depth must be nonnegative"),
        "depth-limit": (
            "depth", DEPTH_LIMIT + 1, 1,
            f"aborted: --depth {DEPTH_LIMIT + 1} exceeds the recursion limit of "
            f"{DEPTH_LIMIT} levels",
        ),
        "walk_len": ("walk_len", 0, 2, "error: walk_len must be positive"),
        "margin": ("margin", -0.1, 2, "error: margin must be nonnegative"),
        "budget": ("budget", 0, 2, "error: budget must be positive when set"),
    }

    @pytest.mark.parametrize("mode", ["flag", "config"])
    @pytest.mark.parametrize("command", ["sparsify", "evaluate", "lca-stats", "verify"])
    @pytest.mark.parametrize("case", sorted(KNOB_CASES))
    def test_knob_out_of_range_refused_by_every_command(
        self, tmp_path, tri_file, capsys, monkeypatch, case, command, mode
    ):
        key, value, code, message = self.KNOB_CASES[case]
        assert self.refuse_before_loading(
            tmp_path, tri_file, monkeypatch, command, mode, key, value
        ) == code
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("command,flag,key", [
        ("verify", "--table-samples", "table_samples"),
        ("verify", "--q-samples", "q_samples"),
        ("verify", "--match-prob-trials", "match_prob_trials"),
        ("verify", "--delta-trials", "delta_trials"),
        ("evaluate", "--samples", "samples"),
        ("sparsify", "--q-samples", "q_samples"),
    ])
    def test_negative_counts_rejected(self, tmp_path, single_file, capsys, command, flag, key):
        out = tmp_path / "out.txt"
        assert main([command, "--input", single_file, "--R", "1", flag, "-3",
                     "--out", str(out)]) == 2
        assert f"{key} must not be negative" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": single_file, "R": 1, key: -3}))
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert f"{key} must not be negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sparsify", "--R", "1"],
        ["evaluate", "--R", "1"],
        ["lca-stats", "--samples", "2"],
        ["verify", "--R", "1", "--samples", "2"],
    ], ids=lambda command: command[0])
    def test_unwritable_out_writes_nothing(self, tmp_path, tri_file, capsys, command):
        out = tmp_path / "missing" / "x.csv"
        assert main(command + ["--input", tri_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "No such file" in err
        assert [p.name for p in tmp_path.iterdir()] == ["tri.txt"]

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_unknown_lca_kind(self, tmp_path, tri_file, capsys):
        assert main(["lca-stats", "--input", tri_file, "--lca", "nope"]) == 2
        # a config value gets past argparse's choices
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"input": tri_file, "lca": "nope"}))
        capsys.readouterr()
        assert main(["lca-stats", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == "error: unknown lca kind: nope\n"

    @pytest.mark.parametrize("flag,value,key", [("--depth", "-1", "depth"), ("--margin", "-0.1", "margin")])
    def test_negative_b_matching_knob_rejected(self, tri_file, capsys, flag, value, key):
        assert main(["lca-stats", "--input", tri_file, "--lca", "b-matching", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {key} must be nonnegative\n"

    @pytest.mark.parametrize("eps", ["1.5", "0", "-0.2"])
    def test_b_matching_eps_out_of_range_rejected(self, tri_file, capsys, eps):
        # lca-stats reads eps only through the default margin 2 eps^2
        assert main(["lca-stats", "--input", tri_file, "--lca", "b-matching", "--eps", eps]) == 2
        assert capsys.readouterr().err == "error: eps must lie in (0, 1)\n"

    @pytest.mark.parametrize("command", ["sparsify", "evaluate"])
    def test_sparsifier_eps_out_of_range_rejected(self, tmp_path, tri_file, capsys, command):
        out = tmp_path / "out.txt"
        assert main([command, "--input", tri_file, "--R", "1", "--eps", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: eps must lie in (0, 1)\n"
        assert not out.exists()


# Output digests frozen from the implementation before the MIS engine,
# the b-matching query route and the q -> R resolution were merged: for a
# fixed seed every command's bytes must stay the same across refactors.
GOLDEN_GRAPHS = {
    "kite": (
        Graph.build(7, [(0, 1, 0.9), (1, 2, 0.6), (2, 0, 0.7), (2, 3, 0.3), (3, 4, 0.8),
                        (4, 5, 0.5), (5, 3, 0.4), (4, 6, 0.2), (1, 5, 0.35)]),
        "0.2,0.24",
    ),
    "split": (
        Graph.build(10, [(0, 1, 0.9), (2, 3, 0.9), (4, 5, 0.2), (5, 6, 0.2), (6, 7, 0.2),
                         (7, 8, 0.2), (8, 9, 0.2), (9, 4, 0.2), (1, 4, 0.5)]),
        "0.25,0.5",
    ),
}
B_FLAGS = ["--alpha", "1", "--walk-len", "2", "--depth", "2", "--budget", "1"]
# unbudgeted walks of length 3: additions and removals in both copies
B3_FLAGS = ["--alpha", "1", "--walk-len", "3", "--depth", "2"]
LCA_B = ["lca-stats", "--lca", "b-matching", "--samples", "2"]
VERIFY = ["verify", "--R", "4", "--samples", "10", "--table-samples", "10",
          "--delta-trials", "10", "--match-prob-trials", "20"]
GOLDEN_RUNS = {
    "sparsify": lambda t: ["sparsify", "--R", "4"],
    "evaluate-exact": lambda t: ["evaluate", "--thresholds", t],
    "evaluate-mc": lambda t: ["evaluate", "--thresholds", t, "--no-exact",
                              "--q-samples", "100", "--samples", "200"],
    "lca-tmis": lambda t: ["lca-stats", "--lca", "tmis", "--budget", "2", "--samples", "5"],
    "lca-b": lambda t: LCA_B + B_FLAGS,
    "verify": lambda t: VERIFY + ["--thresholds", t] + B_FLAGS,
    "lca-b3": lambda t: LCA_B + B3_FLAGS,
    "verify-b3": lambda t: VERIFY + ["--thresholds", t] + B3_FLAGS,
    # the first eps below 1/7, where the x-total bound (1 - 7 eps) opt is positive
    "verify-b3-eps01": lambda t: VERIFY + ["--thresholds", t] + B3_FLAGS + ["--eps", "0.1"],
    # sampled q and tables: per-trial algorithm seeds
    "verify-mc": lambda t: (VERIFY + ["--thresholds", t] + B_FLAGS
                            + ["--no-exact", "--q-samples", "200"]),
    # the default --depth 1: the table is row 0 with the q-load targets
    "verify-d1": lambda t: VERIFY + ["--thresholds", t],
    # gate edge cases: a margin >= 1 closes every gate of the open-gate
    # path; at depth 1 no table samples open every gate, while a sampled
    # table gates on the q-load targets minus a tight margin
    "lca-b-closed": lambda t: LCA_B + B_FLAGS + ["--margin", "1.5"],
    "verify-d1-open": lambda t: VERIFY + ["--thresholds", t, "--table-samples", "0", "--margin", "0.6"],
    "verify-d1-tight": lambda t: VERIFY + ["--thresholds", t, "--table-samples", "5", "--margin", "0.6"],
}
GOLDEN = {
    ("kite", "sparsify"): "146462cf14e4bb1f23c112cd980bb18171900e3f145c918dd620ca9a0e170e72",
    ("kite", "evaluate-exact"): "492407ee5fef3f9eed9b9b21b3f57751e4c6ffac0b9b19a6068fd222fd85810b",
    ("kite", "evaluate-mc"): "b15822872b1bb8e0bc99abb99e6297133a612402d138fdf561238bc9738c9130",
    ("kite", "lca-tmis"): "63e9362f18a75c915dcdf6feb1439ceeac725c3d4297c5388568ff432f8ef884",
    ("kite", "lca-b"): "5a410dfff88d47de8c4ce8b09095081f2eea3e66cfff0577e80bac51ec986af3",
    ("kite", "verify"): "507a77ffdb96406c3108d6306b521c6e80f74db060d53539419c1c51d009db4b",
    ("kite", "lca-b3"): "cab94955d45348920e36bfd802819ce826a8c94ffa06023f618e5e0fd0810d46",
    ("kite", "verify-b3"): "1f5b0380b0f8b5e6b9b216b28d4fbeb0debe479a5dc6b2069a44b96398f7db7b",
    ("kite", "verify-b3-eps01"): "cbb172f15aba807ec77c7001fa5c73085f82ccdf4edf7d9604f6200f21a57e2c",
    ("kite", "verify-mc"): "3290a6beecb63c9bffdb9427bc7b9ee3e21b169f9f94ad81dc4d3045b91314ba",
    ("kite", "verify-d1"): "de443c3fc4409830c69f412904d6c761082ae1e55bfec87c3e9e07797c7348e4",
    ("kite", "lca-b-closed"): "6ca3e2aa3205bde74ac74c172474ad11c445428acb5181be35be553c7dedecd4",
    ("kite", "verify-d1-open"): "de443c3fc4409830c69f412904d6c761082ae1e55bfec87c3e9e07797c7348e4",
    ("kite", "verify-d1-tight"): "645fb5594f39aef2baffd6d6eba0eb57c8c8a4864a9bb7ec4fdde49045a391e4",
    ("split", "sparsify"): "2d666b8b4a7139c0a52ba38fc9d400ba66b5f581bfea7afc500d569c407434be",
    ("split", "evaluate-exact"): "c65092a98061429d806fe4b0d1a54a07504af7c52dad7b4afbecdcaebbf8b31c",
    ("split", "evaluate-mc"): "a3d2147f0f56502122db830cfb85f4fbed67d0b268bd5dfd4f1bfb48e34223d0",
    ("split", "lca-tmis"): "4cb0ea7caeae30f8d8c5b33f51478cfdc7c0e5f6fadfe25ce59e881335499511",
    ("split", "lca-b"): "dec60db104654a9871f06f2d78a3e2e429e9b82dbf72205eeaca65fd09d36e88",
    ("split", "verify"): "4df6613ce9a175ee94926d97d18c4c75e21774f01764344be974b73f02025bd0",
    ("split", "lca-b3"): "e842f1a1e105927b9866f826f5cafa6e4a03a2d65654c2fa45b884110813151c",
    ("split", "verify-b3"): "f4bd476a64622eaf5a2bdcf44c6ec71599786a3ea8167c5d2a77d6c86da5810f",
    ("split", "verify-d1"): "f4bd476a64622eaf5a2bdcf44c6ec71599786a3ea8167c5d2a77d6c86da5810f",
}


def golden_digest(run, out: Path) -> str:
    """The digest of a golden run's output file (and, for ``sparsify``,
    its ``.meta.json``)."""
    digest = hashlib.sha256(out.read_bytes())
    if run == "sparsify":
        digest.update(out.with_name(out.name + ".meta.json").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("graph,run", sorted(GOLDEN))
def test_golden_digest(tmp_path, graph, run):
    g, thresholds = GOLDEN_GRAPHS[graph]
    inp = write_input(tmp_path, g)
    out = tmp_path / "out"
    argv = GOLDEN_RUNS[run](thresholds)
    assert main(argv + ["--input", inp, "--seed", "3", "--out", str(out)]) == 0
    assert golden_digest(run, out) == GOLDEN[graph, run]


@pytest.mark.parametrize(
    "hashseed,flags", [("0", []), ("1", []), ("random", ["-O"])],
    ids=["hashseed-0", "hashseed-1", "optimized"],
)
def test_golden_digest_in_fresh_interpreter(tmp_path, hashseed, flags):
    # every golden run in a new interpreter: walk ids come in discovery
    # order and set order follows the hash seed, so neither may reach the
    # output, and -O strips asserts the package must not need
    runs = sorted(GOLDEN)
    argvs = []
    for graph, run in runs:
        g, thresholds = GOLDEN_GRAPHS[graph]
        inp = write_input(tmp_path, g, f"{graph}.txt")
        out = str(tmp_path / f"{graph}-{run}.out")
        argvs.append(GOLDEN_RUNS[run](thresholds) + ["--input", inp, "--seed", "3", "--out", out])
    script = (
        "import json, sys\n"
        "from stochmatch.cli import main\n"
        "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = str(Path(stochmatch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for (graph, run), argv in zip(runs, argvs):
        assert golden_digest(run, Path(argv[-1])) == GOLDEN[graph, run], (graph, run)
