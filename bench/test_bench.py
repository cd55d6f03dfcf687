"""Checks of the benchmark itself: exact call counts seen by the tracer,
wrapper installation and removal, traced/untraced output identity, the
verify-exact crucial band, and the generators and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stochmatch.cli as cli  # noqa: E402
from stochmatch.graph import parse_graph_text  # noqa: E402
from stochmatch.analysis import build_f  # noqa: E402
from stochmatch.sparsifier import SparsifierParams, build_H, estimate_q  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def small_graph(tmp_path, n=30, m=90, seed=3) -> tuple:
    """A sampled-mode input: m > 24 keeps clear of the auto-exact mode."""
    edges = wl.gnm_edges(random.Random(seed), n, m)
    path = tmp_path / "g.txt"
    path.write_text(wl.graph_text(n, [(u, v, 0.5) for u, v in edges]))
    return str(path), n


def traced(argv) -> tr.Tracer:
    tracer = tr.Tracer()
    installed = tr.Installed(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        installed.remove()
    return tracer


def test_evaluate_counts(tmp_path):
    inp, _ = small_graph(tmp_path)
    S, Rs = 100, [1, 2, 4, 8]
    t = traced(["evaluate", "--input", inp, "--out", str(tmp_path / "o"),
                "--samples", str(S), "--R", "1,2,4,8"])
    assert t.calls["graph.sample_realization"] == S + sum(Rs) == 115
    assert t.calls["matching.matching_number"] == S * (1 + len(Rs)) == 500
    assert t.calls["matching.maximum_matching"] == sum(Rs) == 15
    assert t.calls["cli.main"] == 1


def test_sparsify_counts(tmp_path):
    inp, _ = small_graph(tmp_path)
    Q, R = 7, 5
    t = traced(["sparsify", "--input", inp, "--out", str(tmp_path / "h"),
                "--q-samples", str(Q), "--R", str(R)])
    assert t.calls["graph.sample_realization"] == Q + R
    assert t.calls["matching.maximum_matching"] == Q + R


def test_lca_stats_counts(tmp_path):
    inp, n = small_graph(tmp_path)
    trials = 3
    t = traced(["lca-stats", "--input", inp, "--out", str(tmp_path / "l"),
                "--lca", "tmis", "--budget", "4", "--samples", str(trials)])
    assert t.calls["lca.run_lca"] == trials * n
    assert t.calls["mis.TruncatedGreedyMis.run"] == trials * n
    assert t.calls["lca.QueryLedger.add_sweep"] == trials
    assert t.counts["mis.expansions"] == t.counts["lca.probes"]


def test_self_time_excludes_children(tmp_path):
    inp, _ = small_graph(tmp_path)
    t = traced(["evaluate", "--input", inp, "--out", str(tmp_path / "o"),
                "--samples", "20", "--R", "2"])
    # cli.main encloses every other span, so its total is the whole run
    assert sum(t.self_s.values()) == pytest.approx(t.total_s["cli.main"], rel=1e-9)
    assert t.self_s["cli.main"] < t.total_s["cli.main"]
    assert len(t.span_start) == sum(t.calls.values())


def test_every_binding_wrapped_and_restored():
    before = {
        (mod.__name__, name): value
        for mod in tr._modules() for name, value in vars(mod).items()
    }
    installed = tr.Installed(tr.Tracer())
    try:
        for owner in (sys.modules["stochmatch"], sys.modules["stochmatch.cli"],
                      sys.modules["stochmatch.sparsifier"],
                      sys.modules["stochmatch.analysis"]):
            assert owner.sample_realization is not before[("stochmatch.graph", "sample_realization")]
        assert sys.modules["stochmatch.analysis"].matching_number.__wrapped__ is (
            before[("stochmatch.matching", "matching_number")]
        )
    finally:
        installed.remove()
    after = {
        (mod.__name__, name): value
        for mod in tr._modules() for name, value in vars(mod).items()
    }
    assert after == before


def test_per_layer_names_have_sources(tmp_path):
    """Every per-layer metric of BENCHMARK.json maps onto a tracer table
    with a matching unit, and the tracer counts only keys it declares."""
    sources = run.layer_sources()
    units = {m["name"]: m["unit"] for m in run.BENCHMARK["per_layer"]}
    for name, src in sources.items():
        if src is not None:
            timed = src[0] in ("self_s", "total_s")
            assert units[name] == ("s" if timed else "count"), name
    inp, _ = small_graph(tmp_path)
    seen = set()
    for argv in (["evaluate", "--samples", "10", "--R", "1,2"],
                 ["lca-stats", "--budget", "4", "--samples", "1"]):
        seen |= set(traced(argv + ["--input", inp, "--out", str(tmp_path / "o")]).counts)
    verify = tmp_path / "v.txt"
    verify.write_text(wl.WORKLOADS["verify-exact"].make_graph(0))
    seen |= set(traced(wl.WORKLOADS["verify-exact"].make_argv(
        str(verify), str(tmp_path / "r"), 0)).counts)
    assert seen <= tr.COUNTERS
    assert {src[1] for src in sources.values() if src and src[0] == "counts"} <= seen


def test_traced_output_identical(tmp_path):
    inp, _ = small_graph(tmp_path)
    argv = ["evaluate", "--input", inp, "--samples", "30", "--R", "1,4"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    traced(argv + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def verify_graph_and_q():
    texts = {wl.WORKLOADS["verify-exact"].make_graph(seed) for seed in range(50)}
    assert len(texts) == 1  # the graph does not depend on the seed
    g = parse_graph_text(texts.pop())
    tau_minus, tau_plus = map(float, wl.VERIFY_THRESHOLDS.split(","))
    return g, estimate_q(g, exact=True).with_thresholds(tau_minus, tau_plus)


def test_verify_crucial_band():
    """Exactly VERIFY_CRUCIAL crucial edges and no middle band, for every seed."""
    g, q = verify_graph_and_q()
    assert (g.n, g.m) == (wl.VERIFY_N, len(wl.VERIFY_EDGES))
    assert g.m <= 24  # exact mode is selected automatically
    assert len(q.crucial) == wl.VERIFY_CRUCIAL
    assert len(q.crucial) + len(q.noncrucial) == g.m
    # keep clear of the thresholds, so float noise cannot move an edge
    assert all(abs(x - q.tau_plus) > 0.01 and abs(x - q.tau_minus) > 0.01 for x in q.q)


def test_verify_seeds_vetted():
    """Every program seed the workload uses gives f one support edge with
    two incident crucial edges: the same delta-table LCA query count."""
    g, q = verify_graph_and_q()
    for seed in wl.VERIFY_SEEDS:
        H, matchings = build_H(g, SparsifierParams(R=8, eps=0.2, seed=seed))
        f = build_f(g, H, matchings, q, 0.2, 8)
        assert len(f.support) == 1
        (e,) = f.support
        ends = set(g.endpoints(e))
        incident = sum(1 for c in q.crucial for w in g.endpoints(c) if w in ends)
        assert incident * wl.VERIFY_DELTA_TRIALS == wl.VERIFY_LCA_QUERIES


def test_verify_lca_query_count(tmp_path):
    inp = tmp_path / "g.txt"
    inp.write_text(wl.WORKLOADS["verify-exact"].make_graph(0))
    t = traced(wl.WORKLOADS["verify-exact"].make_argv(str(inp), str(tmp_path / "r"), 0))
    assert t.calls["hyperwalk.BMatchingLca.run"] == wl.VERIFY_LCA_QUERIES
    m = len(wl.VERIFY_EDGES)
    assert t.calls["matching.maximum_matching"] == 2**m + 8  # exact q, then build_H
    assert t.counts["graph.enumerate_realizations.masks"] == 2**m + 2**wl.VERIFY_CRUCIAL


@pytest.mark.parametrize("name", ["evaluate-dense", "sparsify-sparse", "lca-tmis"])
def test_generators_seeded(name):
    make = wl.WORKLOADS[name].make_graph
    assert make(5) == make(5)
    assert make(5) != make(6)
    g = parse_graph_text(make(5))
    if name == "sparsify-sparse":
        assert (g.n, g.m) == (wl.SPARSE_N, wl.SPARSE_N * wl.SPARSE_DEGREE // 2)
    if name == "lca-tmis":
        assert (g.n, g.m) == (wl.TMIS_N, wl.TMIS_N * wl.TMIS_DEGREE // 2)


def test_checks_reject_broken_outputs(tmp_path):
    inp, n = small_graph(tmp_path)
    text = Path(inp).read_text()
    out = tmp_path / "o"
    assert cli.main(["evaluate", "--input", inp, "--out", str(out),
                     "--samples", "20", "--R", "1,2"]) == 0
    good = {"": out.read_bytes()}
    wl.check_evaluate(text, good, r_values=(1, 2))
    with pytest.raises(ValueError):
        wl.check_evaluate(text, good, r_values=(1, 2, 4))
    rows = good[""].decode().splitlines()
    bad_ratio = rows[1].split(",")
    bad_ratio[4] = "1.5"
    rows[1] = ",".join(bad_ratio)
    with pytest.raises(ValueError):
        wl.check_evaluate(text, {"": ("\n".join(rows) + "\n").encode()}, r_values=(1, 2))

    assert cli.main(["sparsify", "--input", inp, "--out", str(out),
                     "--q-samples", "5", "--R", "3"]) == 0
    h = {"": out.read_bytes(), ".meta.json": Path(f"{out}.meta.json").read_bytes()}
    wl.check_sparsify(text, h, R=3)
    with pytest.raises(ValueError):
        wl.check_sparsify(text, h, R=1)
    foreign = h[""] + b"0 1 0.25\n"
    with pytest.raises(ValueError):
        wl.check_sparsify(text, {"": foreign, ".meta.json": h[".meta.json"]}, R=3)

    assert cli.main(["lca-stats", "--input", inp, "--out", str(out),
                     "--budget", "4", "--samples", "2"]) == 0
    ledger = out.read_bytes()
    wl.check_lca_stats(text, {"": ledger})
    with pytest.raises(ValueError):
        wl.check_lca_stats(text, {"": ledger.rsplit(b"\n", 2)[0] + b"\n"})
