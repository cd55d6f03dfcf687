"""Workload definitions: seeded input generators, CLI argument lists and
output checks for the four benchmark workloads.

Everything here is stdlib-only and imports nothing from ``stochmatch``:
the generators must not depend on the code under test, and the checks
re-derive each invariant from the raw output bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# verify-exact runs on one fixed graph.  Exact-mode cost is exponential in
# the crucial-edge count, and random graphs with the same count still
# differ by about 17% in cost.  Exact q (test_verify_crucial_band) puts
# seven edges at q >= 0.400 and seven at q <= 0.170, so the thresholds
# below make exactly seven edges crucial and seven noncrucial.  The
# workload seed picks the program's --seed from VERIFY_SEEDS: seeds under
# which f has one support edge and its two endpoints touch two crucial
# edges in all, so every seed runs the same number of delta-table
# b-matching LCA queries (test_verify_seeds_vetted).
VERIFY_N = 12
VERIFY_EDGES = (
    (1, 2, 0.9), (3, 9, 0.9), (1, 8, 0.9), (3, 6, 0.9), (2, 6, 0.9),
    (0, 3, 0.9), (5, 7, 0.9), (4, 9, 0.9), (3, 7, 0.9), (4, 6, 0.9),
    (10, 11, 0.9), (0, 8, 0.2), (5, 11, 0.2), (0, 10, 0.2),
)
VERIFY_THRESHOLDS = "0.25,0.32"
VERIFY_CRUCIAL = 7
VERIFY_SEEDS = (13, 14, 15, 16, 19, 21, 22, 27, 29, 33, 34, 35, 36, 38, 39, 41)
VERIFY_DELTA_TRIALS = 50
VERIFY_LCA_QUERIES = 2 * VERIFY_DELTA_TRIALS
VERIFY_TRIALS = 20
VERIFY_CLAIMS = frozenset(
    {
        "x-vertex-expectation",
        "x-vertex-tail",
        "x-total-expectation",
        "rounding-loss",
        "blossom-feasibility",
    }
)


def gnm_edges(rng: random.Random, n: int, m: int) -> list:
    """m distinct uniform pairs (G(n, m)), in lexicographic order."""
    chosen = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def graph_text(n: int, triples) -> str:
    """The program's edge-list format: an ``n <N>`` header, then ``u v p``."""
    lines = [f"n {n}"]
    lines.extend(f"{u} {v} {p!r}" for u, v, p in triples)
    return "\n".join(lines) + "\n"


def parse_edges(text: str) -> tuple:
    """(n, [(u, v, p)]) from the edge-list format; no comments expected."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "n":
        raise ValueError("missing vertex-count header")
    triples = []
    for line in lines[1:]:
        u, v, p = line.split()
        triples.append((int(u), int(v), float(p)))
    return int(head[1]), triples


@dataclass(frozen=True)
class Workload:
    name: str
    make_graph: Callable  # seed -> graph text
    make_argv: Callable  # (input path, output path, seed) -> argv
    check: Callable  # (input text, {path suffix: output bytes}) -> None
    stressed: tuple  # spans whose self time should dominate the traced run
    outputs: tuple = ("",)  # suffixes appended to the output path


# -- evaluate-dense ---------------------------------------------------------

EVAL_N, EVAL_M, EVAL_P = 200, 1000, 0.5
EVAL_R = (1, 2, 4, 8)
EVAL_SAMPLES = 100


def _eval_graph(seed: int) -> str:
    rng = random.Random(f"evaluate-dense/{seed}")
    edges = gnm_edges(rng, EVAL_N, EVAL_M)
    return graph_text(EVAL_N, [(u, v, EVAL_P) for u, v in edges])


def _eval_argv(inp: str, out: str, seed: int) -> list:
    return [
        "evaluate", "--input", inp, "--out", out, "--seed", str(seed),
        "--R", ",".join(map(str, EVAL_R)), "--samples", str(EVAL_SAMPLES),
        "--threads", "1",
    ]


def check_evaluate(text: str, outputs: dict, r_values=EVAL_R) -> None:
    rows = outputs[""].decode().splitlines()
    if rows[0] != "n,m,p,R,ratio,stderr,mode":
        raise ValueError(f"unexpected evaluate header {rows[0]!r}")
    body = [row.split(",") for row in rows[1:]]
    if [int(r[3]) for r in body] != list(r_values):
        raise ValueError("evaluate must emit one row per R, in order")
    for r in body:
        if not 0.0 <= float(r[4]) <= 1.0:
            raise ValueError(f"ratio {r[4]} outside [0, 1]")


# -- sparsify-sparse --------------------------------------------------------

SPARSE_N, SPARSE_DEGREE, SPARSE_P = 4000, 3, 0.5
SPARSE_R = 8
SPARSE_Q_SAMPLES = 2


def _sparse_graph(seed: int) -> str:
    rng = random.Random(f"sparsify-sparse/{seed}")
    edges = gnm_edges(rng, SPARSE_N, SPARSE_N * SPARSE_DEGREE // 2)
    return graph_text(SPARSE_N, [(u, v, SPARSE_P) for u, v in edges])


def _sparse_argv(inp: str, out: str, seed: int) -> list:
    return [
        "sparsify", "--input", inp, "--out", out, "--seed", str(seed),
        "--R", str(SPARSE_R), "--q-samples", str(SPARSE_Q_SAMPLES),
        "--threads", "1",
    ]


def check_sparsify(text: str, outputs: dict, R: int = SPARSE_R) -> None:
    _, g_edges = parse_edges(text)
    n, h_edges = parse_edges(outputs[""].decode())
    meta = json.loads(outputs[".meta.json"])
    if not set(h_edges) <= set(g_edges):
        raise ValueError("H has an edge that G lacks")
    degree = [0] * n
    for u, v, _ in h_edges:
        degree[u] += 1
        degree[v] += 1
    top = max(degree, default=0)
    if top > R or top != meta["h_max_degree"]:
        raise ValueError(f"H max degree {top} vs R={R}, meta {meta['h_max_degree']}")
    if meta["R"] != R or meta["h_edges"] != len(h_edges):
        raise ValueError("sparsify metadata disagrees with H")


# -- lca-tmis ---------------------------------------------------------------

TMIS_N, TMIS_DEGREE, TMIS_P = 800, 6, 0.5
TMIS_BUDGET = 8
TMIS_TRIALS = 2


def _tmis_graph(seed: int) -> str:
    rng = random.Random(f"lca-tmis/{seed}")
    edges = gnm_edges(rng, TMIS_N, TMIS_N * TMIS_DEGREE // 2)
    return graph_text(TMIS_N, [(u, v, TMIS_P) for u, v in edges])


def _tmis_argv(inp: str, out: str, seed: int) -> list:
    return [
        "lca-stats", "--input", inp, "--out", out, "--seed", str(seed),
        "--lca", "tmis", "--budget", str(TMIS_BUDGET),
        "--samples", str(TMIS_TRIALS), "--threads", "1",
    ]


def check_lca_stats(text: str, outputs: dict) -> None:
    n, _ = parse_edges(text)
    rows = outputs[""].decode().splitlines()
    if rows[0] != "kind,site,mean_qplus,mean_qminus,mean_psi":
        raise ValueError(f"unexpected ledger header {rows[0]!r}")
    body = [row.split(",") for row in rows[1:]]
    if [(r[0], int(r[1])) for r in body] != [("vertex", v) for v in range(n)]:
        raise ValueError("ledger must have one row per vertex site")
    qplus = [float(r[2]) for r in body]
    qminus = [float(r[3]) for r in body]
    psi = [float(r[4]) for r in body]
    # each mean is printed to 6 decimals, so each sum may drift n * 5e-7
    if abs(sum(qplus) - sum(qminus)) > n * 1e-6:
        raise ValueError("sum of mean q+ differs from sum of mean q-")
    if any(s < qp - 1e-6 for qp, s in zip(qplus, psi)):
        raise ValueError("psi below q+ at some site")


# -- verify-exact -----------------------------------------------------------


def _verify_graph(seed: int) -> str:
    return graph_text(VERIFY_N, VERIFY_EDGES)


def _verify_argv(inp: str, out: str, seed: int) -> list:
    return [
        "verify", "--input", inp, "--out", out,
        "--seed", str(VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]),
        "--alpha", "1", "--walk-len", "3", "--depth", "2", "--R", "8",
        "--thresholds", VERIFY_THRESHOLDS, "--table-samples", "20",
        "--delta-trials", str(VERIFY_DELTA_TRIALS), "--samples", str(VERIFY_TRIALS),
        "--threads", "1",
    ]


def check_verify(text: str, outputs: dict) -> None:
    report = json.loads(outputs[""])
    names = {c["name"] for c in report["claims"]}
    if names != VERIFY_CLAIMS or len(report["claims"]) != len(VERIFY_CLAIMS):
        raise ValueError(f"unexpected claim set {sorted(names)}")
    if report["trials"] != VERIFY_TRIALS:
        raise ValueError(f"report has {report['trials']} trials, not {VERIFY_TRIALS}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-dense",
            _eval_graph, _eval_argv, check_evaluate,
            ("matching.matching_number", "graph.sample_realization"),
        ),
        Workload(
            "sparsify-sparse",
            _sparse_graph, _sparse_argv, check_sparsify,
            ("matching.maximum_matching",), ("", ".meta.json"),
        ),
        Workload(
            "lca-tmis",
            _tmis_graph, _tmis_argv, check_lca_stats,
            ("mis.TruncatedGreedyMis.run", "lca.QueryLedger.add_sweep"),
        ),
        Workload(
            "verify-exact",
            _verify_graph, _verify_argv, check_verify,
            ("hyperwalk.b_generic", "matching.maximum_matching", "hyperwalk.BMatchingLca.run"),
        ),
    )
}
