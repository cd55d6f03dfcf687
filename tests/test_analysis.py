import json
import math
import os
from collections import Counter

import pytest

from oracles import (
    DeltaTable,
    Realization,
    UnsaturationTable,
    b_generic_v0,
    build_delta_table_v0,
    build_match_prob_table_v0,
    build_x_v0,
    estimate_q_v0,
    estimate_ratio,
    flagged,
    gate_table,
    gnp_graph,
    is_matching,
    path_graph,
    ratio_sweep_v0,
    recursion_params,
    shallow_bparams,
    vertex_load,
)
from stochmatch import analysis, hyperwalk
from stochmatch.analysis import (
    build_delta_table,
    build_f,
    build_match_prob_table,
    build_weights,
    build_x,
    compute_MC,
    match_targets_from_q,
    prepare_crucial,
    prepare_pipeline,
    ratio_sweep,
    round_x,
    run_pipeline,
    scale_values,
    verify_claims,
)
from stochmatch.graph import (
    ENUM_CAP,
    Graph,
    SeedContext,
    enumerate_realizations,
    sample_realization,
    write_graph_text,
)
from stochmatch.cli import main
from stochmatch.hyperwalk import BParams, b_generic
from stochmatch.matching import FractionalMatching, matched_vertices
from stochmatch.lca import TapeTable, run_lca
from stochmatch.sparsifier import QProfile, SparsifierParams, build_H, estimate_q, p_min_of
from test_cli import GOLDEN_GRAPHS
from test_hyperwalk import counting_engines
from test_matching import VERIFY_EXACT

BP1 = BParams(alpha=0, walk_len=2, depth=1, margin=0.18, mis_budget=None)

CLAIM_NAMES = (
    "x-vertex-expectation",
    "x-vertex-tail",
    "x-total-expectation",
    "rounding-loss",
    "blossom-feasibility",
)


def qprofile(q, tau_minus=None, tau_plus=None):
    prof = QProfile(tuple(q), exact=True)
    if tau_minus is not None:
        prof = prof.with_thresholds(tau_minus, tau_plus)
    return prof


class TestMatchTargets:
    def test_triangle_loads(self):
        # edges 0=(0,1) 1=(0,2) 2=(1,2); q frozen from enumeration
        g = Graph.build(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)])
        q = qprofile((0.5, 0.25, 0.125))
        assert match_targets_from_q(g, q, range(3)) == pytest.approx(
            (0.75, 0.625, 0.375), abs=1e-12
        )
        assert match_targets_from_q(g, q, {0}) == pytest.approx(
            (0.5, 0.5, 0.0), abs=1e-12
        )
        assert match_targets_from_q(g, q, ()) == (0.0, 0.0, 0.0)


class TestBuildF:
    def test_crucial_edges_excluded(self):
        g = path_graph(3)
        q = qprofile((0.5, 0.5, 0.5), 0.1, 0.4)
        f = build_f(g, frozenset({0, 2}), (frozenset({0, 2}),), q, 0.2, 1)
        assert f.support == frozenset()

    def test_unmatched_edge_gets_zero(self):
        g = path_graph(3)
        q = qprofile((0.3, 0.3, 0.3), 0.35, 0.5)
        f = build_f(g, frozenset({0}), (frozenset({0}),) * 2, q, 0.2, 2)
        assert f.get(1) == 0.0
        assert f.get(2) == 0.0

    def test_single_hit_in_four(self):
        g = path_graph(3)
        q = qprofile((0.3, 0.3, 0.3), 0.35, 0.5)
        matchings = (frozenset({1}), frozenset(), frozenset(), frozenset())
        f = build_f(g, frozenset({1}), matchings, q, 0.2, 4)
        assert f.get(1) == pytest.approx(0.8 * 0.25, abs=1e-12)

    def test_frequency_cap_drops_heavy_edges(self):
        g = path_graph(3)
        q = qprofile((0.3, 0.3, 0.3), 0.35, 0.5)
        matchings = (frozenset({1}), frozenset({1}))
        # t = 1 exceeds 1/sqrt(0.9 * 2)
        f = build_f(g, frozenset({1}), matchings, q, 0.9, 2)
        assert f.support == frozenset()

    def test_endpoint_overload_zeroes(self):
        g = path_graph(3)
        q = qprofile((0.05, 0.05, 0.05), 0.1, 0.2)
        matchings = (frozenset({0}), frozenset({0}))
        # t = 1 within cap, but 0.8 > q-load 0.05 at vertex 0
        f = build_f(g, frozenset({0}), matchings, q, 0.2, 2)
        assert f.support == frozenset()

    def test_invariants_on_sampled_sparsifiers(self):
        from stochmatch.sparsifier import SparsifierParams, build_H

        eps, R = 0.3, 4
        cap = 1.0 / math.sqrt(eps * R)
        for seed in range(10):
            g = gnp_graph(10, 0.4, 0.3, SeedContext(seed).child("g"))
            if g.m > 14:
                continue
            q = estimate_q(g, exact=True).with_thresholds(0.25, 0.4)
            H, matchings = build_H(g, SparsifierParams(R=R, eps=eps, seed=seed))
            f = build_f(g, H, matchings, q, eps, R)
            assert f.support <= (H & q.noncrucial)
            qn = match_targets_from_q(g, q, q.noncrucial)
            for v in range(g.n):
                assert vertex_load(f, v) <= qn[v] + 1e-12
            for e in f.support:
                assert f.get(e) <= cap + 1e-12

    def test_validation(self):
        g = path_graph(3)
        q = qprofile((0.3, 0.3, 0.3), 0.35, 0.5)
        with pytest.raises(ValueError, match="the R matchings that built H"):
            build_f(g, frozenset(), (frozenset(),), q, 0.2, 2)


class TestCrucialSide:
    def test_empty_crucial_set(self):
        g = path_graph(3)
        q = qprofile((0.1, 0.1, 0.1), 0.2, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        sub = crucial.rec.walks.g
        assert sub.m == 0
        real = 0b111
        assert compute_MC(crucial, real, TapeTable(SeedContext(1), sub)) == frozenset()

    def test_single_crucial_edge(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        tapes = TapeTable(SeedContext(1), crucial.rec.walks.g)
        assert compute_MC(crucial, 0b1, tapes) == frozenset({0})
        assert compute_MC(crucial, 0b0, tapes) == frozenset()

    def test_mc_is_matching_inside_realized_crucial(self):
        for seed in range(6):
            g = gnp_graph(9, 0.4, 0.5, SeedContext(seed).child("g"))
            if not 3 <= g.m <= 13:
                continue
            q = estimate_q(g, exact=True).with_thresholds(0.1, 0.25)
            crucial = prepare_crucial(g, q, BP1, 0, SeedContext(seed))
            for t in range(4):
                real = sample_realization(g, SeedContext(seed).child("real"), t)
                tapes = TapeTable(SeedContext(seed).child("alg"), crucial.rec.walks.g)
                m_c = compute_MC(crucial, real, tapes)
                assert is_matching(g, m_c)
                assert m_c <= q.crucial
                assert all((real >> e) & 1 for e in m_c)

    def test_mc_ignores_noncrucial_bits(self):
        g = path_graph(2)
        q = qprofile((0.9, 0.1), 0.2, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        ctx = SeedContext(3)
        with_other = compute_MC(crucial, 0b11, TapeTable(ctx, crucial.rec.walks.g))
        without = compute_MC(crucial, 0b01, TapeTable(ctx, crucial.rec.walks.g))
        assert with_other == without == frozenset({0})

    def test_match_prob_table_exact_single_edge(self):
        g = path_graph(1)
        q = qprofile((0.5,), 0.1, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        tapes = TapeTable(SeedContext(2).child("alg"), crucial.rec.walks.g)
        free = build_match_prob_table(crucial, [1, 0], 10, SeedContext(2), tapes)
        assert free == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)

    def test_match_prob_table_sampled_close(self):
        g = path_graph(1)
        q = qprofile((0.5,), 0.1, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        free = build_match_prob_table(crucial, [0], 600, SeedContext(2), None)
        # 4 sigma of a p=0.5 frequency at 600 trials
        assert abs(free[0] - 0.5) <= 4 * math.sqrt(0.25 / 600)


def count_b_generic(monkeypatch) -> list:
    """Counts every ``b_generic`` call, from either module that calls it."""
    calls = []
    real = hyperwalk.b_generic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hyperwalk, "b_generic", counting)
    monkeypatch.setattr(analysis, "b_generic", counting)
    return calls


class TestUnsaturationRows:
    """A depth-d recursion gates level r on the level r-1 marginals, so the
    sampled gates cover levels 0..d-1 and sample levels 1..d-1 only."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_sampled_table_has_depth_rows(self, monkeypatch, depth):
        g, thresholds = SOURCE_CORPUS["kite"]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        calls = count_b_generic(monkeypatch)
        bparams = BParams(alpha=1, walk_len=2, depth=depth, margin=0.08, mis_budget=None)
        crucial = prepare_crucial(g, q, bparams, 4, SeedContext(6).child("table"))
        assert crucial.rec.walks.g.m > 0
        assert len(crucial.rec.gates) == depth
        # the level-0 marginals are zeros
        a_prob = match_targets_from_q(g, q, sorted(q.crucial))
        zeros = UnsaturationTable(a_prob, ((0.0,) * crucial.rec.walks.g.n,))
        n = crucial.rec.walks.g.n
        assert crucial.rec.gates[0] == sum(
            1 << v for v in range(n) if zeros.unsaturated(v, 0, bparams.margin)
        )
        assert len(calls) == 4 * (depth - 1)

    def test_gates_read_the_top_row(self, monkeypatch):
        levels = set()

        class Recording(tuple):
            def __getitem__(self, level):
                levels.add(level)
                return tuple.__getitem__(self, level)

        build = analysis.build_unsaturation_table
        monkeypatch.setattr(
            analysis, "build_unsaturation_table", lambda *args: Recording(build(*args))
        )
        g, thresholds = SOURCE_CORPUS["kite"]
        setup = prepare_pipeline(
            g, eps=0.2, seed=3, bparams=SOURCE_BPARAMS, q_samples=10_000,
            table_samples=5, match_prob_trials=10, delta_trials=5, delta_exponent=15,
            R=4, thresholds=thresholds, exact=None,
        )
        verify_claims(setup, trials=4, workers=1)
        assert levels == {0, 1} == set(range(len(setup.crucial.rec.gates)))

    def test_verify_exact_b_generic_calls(self, tmp_path, monkeypatch):
        # the verify-exact bench workload's argv: 20 table samples at level
        # 1, one call per each of the 2^7 crucial realizations for the free
        # probabilities, and one M_C per each of the 20 trials
        calls = count_b_generic(monkeypatch)
        inp = tmp_path / "g.txt"
        inp.write_text(write_graph_text(VERIFY_EXACT))
        argv = [
            "verify", "--input", str(inp), "--out", str(tmp_path / "out"), "--seed", "14",
            "--alpha", "1", "--walk-len", "3", "--depth", "2", "--R", "8",
            "--thresholds", "0.25,0.32", "--table-samples", "20",
            "--delta-trials", "50", "--samples", "20", "--threads", "1",
        ]
        assert main(argv) == 0
        assert len(calls) == 20 + 2**7 + 20 == 168


class TestDeltaTable:
    def test_adjacent_crucial_endpoints_always_collide(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        table = build_delta_table(crucial, [(1, 0)], 20, SeedContext(5), None)
        assert table == {(0, 1): 1.0}

    def test_isolated_pair_never_collides(self):
        # vertices 2 and 3 have no crucial incident edges
        g = path_graph(3)
        q = qprofile((0.9, 0.05, 0.05), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        table = build_delta_table(crucial, [(2, 3)], 20, SeedContext(5), None)
        assert table == {(2, 3): 0.0}

    def test_empty_pairs_short_circuits(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        assert build_delta_table(crucial, [], 0, SeedContext(5), None) == {}


class TestBuildWeights:
    """Hand-built tables on the 3-edge path; f on edge 2 only."""

    def setup_method(self):
        self.g = path_graph(3)
        self.free = {2: 0.5, 3: 0.5}

    def weights(self, free=None, delta=0.0):
        f = FractionalMatching.build(self.g, {2: 0.1})
        free = free if free is not None else self.free
        return build_weights(self.g, f, free, {(2, 3): delta}, 0.3, (0.3 * 0.5) ** 15)

    def test_noncrucial_formula(self):
        w = self.weights()
        assert w == {2: pytest.approx(0.1 / (0.5 * 0.5 * 0.5), abs=1e-12)}
        assert w[2] == pytest.approx(0.8, abs=1e-12)

    def test_delta_guard(self):
        assert self.weights(delta=0.5) == {}

    def test_low_free_probability_guard(self):
        assert self.weights(free={2: 0.5, 3: 0.01}) == {}

    def test_empty_f_reads_no_table(self):
        f = FractionalMatching.build(self.g, {})
        assert build_weights(self.g, f, {}, {}, 0.3, 0.0) == {}


class TestBuildX:
    """The per-trial rules on the 3-edge path; edge 0 crucial, edge 1
    and 2 weighted."""

    def setup_method(self):
        self.g = path_graph(3)
        self.crucial = frozenset({0})
        self.weights = {1: 0.4, 2: 0.8}

    def x(self, m_c, H, mask, weights=None):
        weights = weights if weights is not None else self.weights
        return build_x(self.g, self.crucial, weights, frozenset(m_c), frozenset(H), mask)

    def test_crucial_matched_in_realized_H(self):
        x = self.x({0}, {0, 1, 2}, 0b111)
        assert list(x.items()) == [(0, 1.0), (1, 0.0), (2, 0.8)]

    def test_crucial_outside_H_or_unmatched(self):
        assert self.x({0}, {1, 2}, 0b111)[0] == 0.0
        assert self.x({}, {0, 1, 2}, 0b111)[0] == 0.0
        assert self.x({0}, {0, 1, 2}, 0b110)[0] == 0.0

    def test_mc_cover_zeroes_neighbors(self):
        # edge 1 touches vertex 1, covered by M_C = {0}
        assert self.x({0}, {0, 1, 2}, 0b111)[1] == 0.0
        assert self.x({}, {0, 1, 2}, 0b111)[1] == 0.4

    def test_unrealized_noncrucial_zeroed(self):
        x = self.x({0}, {0, 1, 2}, 0b011)
        assert x[2] == 0.0

    def test_middle_band_zero(self):
        # edge 1 is neither crucial nor weighted
        x = self.x(set(), {0, 1, 2}, 0b111, weights={2: 0.8})
        assert x[1] == 0.0

    def test_scale_values(self):
        assert scale_values({0: 1.0, 2: 0.5}, 0.7) == {0: 0.7, 2: 0.35}


class TestRoundX:
    def test_plain_division(self):
        g = path_graph(3)
        y = round_x({0: 0.6}, 0.2, g)
        assert y.get(0) == pytest.approx(0.5)

    def test_overloaded_vertex_zeroed(self):
        g = path_graph(3)
        y = round_x({0: 0.7, 1: 0.6, 2: 0.3}, 0.2, g)
        assert y.get(0) == 0.0
        assert y.get(1) == 0.0
        assert y.get(2) == pytest.approx(0.25)

    def test_empty_input(self):
        g = path_graph(3)
        assert round_x({}, 0.2, g).support == frozenset()
        assert round_x({0: 0.0}, 0.2, g).support == frozenset()

    def test_loads_never_exceed_one(self):
        g = path_graph(3)
        ctx = SeedContext(9)
        for trial in range(50):
            x = {e: 2.0 * ctx.uniform("x", trial, e) for e in range(g.m)}
            y = round_x(x, 0.25, g)
            for v in range(g.n):
                assert vertex_load(y, v) <= 1.0 + 1e-12
            for e in y.support:
                assert y.get(e) == pytest.approx(x[e] / 1.25)


class TestRatio:
    def test_identity_sparsifier(self, triangle):
        est, one = ratio_sweep(triangle, [range(3), {0}], 1, None, exact=True)
        assert est.exact
        assert est.ratio == 1.0
        assert est.stderr == 0.0
        # H = {0} has numerator p_0 = 0.5, so its ratio fixes the shared
        # denominator E[mu(G_p)] at 0.875
        assert one.ratio == pytest.approx(0.5 / 0.875, abs=1e-9)

    def test_single_edge_identity(self):
        g = path_graph(1)
        est = estimate_ratio(g, {0}, 1, exact=True)
        assert est.ratio == 1.0
        # the denominator E[mu(G_p)] by the exact q route
        assert estimate_q(g, exact=True).total == pytest.approx(0.5, abs=1e-12)

    def test_triangle_one_edge(self, triangle):
        est = estimate_ratio(triangle, {0}, 1, exact=True)
        assert est.ratio == pytest.approx(0.5 / 0.875, abs=1e-9)

    def test_empty_graph_reports_one(self):
        g = Graph.build(2, [])
        # an empty H has numerator 0, so it reports 1.0 only through a
        # zero denominator; with an edge it reports 0.0
        exact = estimate_ratio(g, (), 1, exact=True)
        assert exact.ratio == 1.0
        assert estimate_ratio(path_graph(1), (), 1, exact=True).ratio == 0.0
        sampled = estimate_ratio(g, (), 5, ctx=SeedContext(1), exact=False)
        assert sampled.ratio == 1.0 and sampled.stderr == 0.0

    def test_sweep_matches_individual_estimates(self, triangle):
        ctx = SeedContext(11).child("ratio")
        hs = [{0}, {0, 1}, {0, 1, 2}]
        swept = ratio_sweep(triangle, hs, 400, ctx=ctx, exact=False)
        singles = [
            estimate_ratio(triangle, h, 400, ctx=ctx, exact=False) for h in hs
        ]
        assert swept == singles

    def test_sampled_tracks_exact(self, triangle):
        exact = estimate_ratio(triangle, {0}, 1, exact=True)
        est = estimate_ratio(
            triangle, {0}, 2000, ctx=SeedContext(3).child("mc"), exact=False
        )
        assert est.stderr > 0.0
        assert abs(est.ratio - exact.ratio) <= 4.0 * est.stderr

    def test_exact_ratios_stay_in_unit_interval(self):
        g = gnp_graph(6, 0.6, 0.5, SeedContext(2).child("g"))
        for mask_seed in range(8):
            ctx = SeedContext(mask_seed)
            H = {e for e in range(g.m) if ctx.uniform("h", e) < 0.5}
            est = estimate_ratio(g, H, 1, exact=True)
            assert -1e-12 <= est.ratio <= 1.0 + 1e-12

    def test_sampled_mode_needs_context(self, triangle):
        with pytest.raises(ValueError):
            estimate_ratio(triangle, {0}, 100, exact=False)
        with pytest.raises(ValueError):
            estimate_ratio(triangle, {0}, 0, ctx=SeedContext(0), exact=False)


def smoke_setup(**overrides):
    g = gnp_graph(8, 0.3, 0.5, SeedContext(0).child("g"))
    kwargs = dict(
        eps=0.3,
        seed=7,
        bparams=shallow_bparams(0.3),
        q_samples=10_000,
        table_samples=20,
        match_prob_trials=50,
        delta_trials=30,
        delta_exponent=15,
        R=None,
        exact=None,
        thresholds=(0.2, 0.4),
    )
    kwargs.update(overrides)
    return prepare_pipeline(g, **kwargs)


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Replaces the process pool with a stub that maps in this process, so
    no worker is forked; returns the ``max_workers`` of each pool made."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


class TestPipeline:
    def test_smoke_run(self):
        setup = smoke_setup()
        assert setup.tapes is not None
        assert setup.R == 3
        assert setup.q.crucial and setup.q.noncrucial
        x, y = run_pipeline(setup, 0)
        assert set(x) == set(range(setup.g.m))
        real = setup.realization(0)
        m_c = compute_MC(setup.crucial, real, setup.tapes)
        assert is_matching(setup.g, m_c)
        assert m_c <= setup.q.crucial
        assert all((real >> e) & 1 for e in m_c)
        for e in setup.q.crucial:
            assert x[e] in (0.0, 1.0)
        assert all(v >= 0.0 for v in x.values())
        for v in range(setup.g.n):
            assert vertex_load(y, v) <= 1.0 + 1e-12

    def test_runs_are_deterministic(self):
        setup = smoke_setup()
        a_x, a_y = run_pipeline(setup, 2)
        b_x, b_y = run_pipeline(setup, 2)
        assert a_x == b_x
        assert a_y.values == b_y.values
        again = smoke_setup()
        c_x, _ = run_pipeline(again, 2)
        assert c_x == a_x

    def test_claim_report_shape(self):
        setup = smoke_setup()
        report = verify_claims(setup, trials=6, workers=1)
        assert report.trials == 6
        assert tuple(c.name for c in report.checks) == CLAIM_NAMES
        assert all(c.flag in (False, True) for c in report.checks)
        assert set(flagged(report)) <= set(report.checks)
        payload = json.loads(report.to_json())
        assert payload["trials"] == 6
        assert payload["eps"] == setup.eps
        assert [c["name"] for c in payload["claims"]] == list(CLAIM_NAMES)

    @pytest.mark.parametrize("kind", ["upper", "lower"])
    def test_flag_rule(self, kind):
        # bound ± 3 se is exact here: 1.0 ± 0.75
        bound, sign = 1.0, (1.0 if kind == "upper" else -1.0)
        edge = bound + sign * 3.0 * 0.25
        for value, flag in ((edge + sign * 1e-9, True), (edge, False), (edge - sign * 1e-9, False)):
            check = analysis._claim("c", kind, bound, value, 0.25, "")
            assert check.flag is flag, (kind, value)
        assert analysis._claim("c", kind, bound, bound, 0.0, "").flag is False

    def test_workers_match_serial(self):
        setup = smoke_setup()
        serial = verify_claims(setup, trials=4, workers=1)
        forked = verify_claims(setup, trials=4, workers=2)
        assert serial.checks == forked.checks

    def test_empty_graph_vacuous_pass(self):
        g = Graph.build(3, [])
        setup = prepare_pipeline(
            g, eps=0.3, seed=1, bparams=shallow_bparams(0.3), q_samples=10_000,
            table_samples=5, match_prob_trials=5, delta_trials=5, delta_exponent=15,
            R=None, exact=None, thresholds=None,
        )
        report = verify_claims(setup, trials=4, workers=1)
        assert flagged(report) == ()

    def test_pool_capped_at_trial_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        setup = smoke_setup()
        report = verify_claims(setup, trials=3, workers=8)
        assert pool_sizes == [3]
        assert report.to_json() == verify_claims(setup, trials=3, workers=1).to_json()

    @pytest.mark.parametrize("cpus,size", [(2, 2), (1, None), (None, None)])
    def test_pool_capped_at_cpu_count(self, pool_sizes, monkeypatch, cpus, size):
        # one CPU, or an unknown count, runs the trials serially without a pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        setup = smoke_setup()
        report = verify_claims(setup, trials=6, workers=6)
        assert pool_sizes == ([size] if size else [])
        assert report.to_json() == verify_claims(setup, trials=6, workers=1).to_json()


# graph -> (tau_minus, tau_plus); sure-edges has zero-probability masks
SOURCE_CORPUS = {
    "sure-edges": (
        Graph.build(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.4), (0, 4, 0.7)]),
        (0.2, 0.45),
    ),
    "edgeless": (Graph.build(4, []), (0.2, 0.4)),
    "gnp": (gnp_graph(7, 0.45, 0.45, SeedContext(2).child("g")), (0.15, 0.3)),
    **{
        name: (g, tuple(float(t) for t in taus.split(",")))
        for name, (g, taus) in GOLDEN_GRAPHS.items()
    },
}
SOURCE_BPARAMS = BParams(alpha=1, walk_len=2, depth=2, margin=0.08, mis_budget=1)


@pytest.mark.parametrize("name", sorted(SOURCE_CORPUS))
class TestSharedRealizationLoops:
    """The loops over graph.weighted_realizations against the separate
    exact and sampled loops they replaced, compared with ==."""

    def test_estimate_q(self, name):
        g, _ = SOURCE_CORPUS[name]
        ctx = SeedContext(6).child("q")
        for exact in (None, True, False):
            assert estimate_q(g, 150, ctx, exact=exact) == estimate_q_v0(g, 150, ctx, exact)

    def test_ratio_sweep(self, name):
        g, _ = SOURCE_CORPUS[name]
        hs = [(), range(g.m)] + [
            build_H(g, SparsifierParams(R=R, eps=0.3, seed=2))[0] for R in (1, 3)
        ]
        ctx = SeedContext(6).child("ratio")
        for exact in (None, True, False):
            assert ratio_sweep(g, hs, 150, ctx, exact) == ratio_sweep_v0(g, hs, 150, ctx, exact)

    def test_match_prob_table(self, name):
        g, thresholds = SOURCE_CORPUS[name]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        crucial = prepare_crucial(g, q, SOURCE_BPARAMS, 10, SeedContext(6).child("table"))
        sub = crucial.rec.walks.g
        ctx = SeedContext(6).child("mprob")
        for exact in (None, True, False):
            # the reference resolves None by edge count and enumerates under
            # its own seed ctx.child("alg"); the builder reads a table of it
            enumerated = sub.m <= ENUM_CAP if exact is None else exact
            tapes = TapeTable(ctx.child("alg"), sub) if enumerated else None
            got = build_match_prob_table(crucial, range(g.n), 40, ctx, tapes)
            assert got == dict(enumerate(build_match_prob_table_v0(g, crucial, 40, ctx, exact)))


class TestSeedMemoPipelines:
    """The pipelines' tape tables against the per-call routes they
    replace: an exact pipeline's one table, which both probability tables
    and every trial read, and a sampled trial's table of its own seed."""

    @staticmethod
    def fresh_calls(monkeypatch):
        # the parent route: every b_generic call fresh, sharing nothing
        def parent(rec, real, tapes):
            g = rec.walks.g
            table = gate_table(rec.gates, g.n)
            params = recursion_params(rec)
            return b_generic_v0(g, Realization(g, real), params, tapes.ctx, None, table, rec.walks)

        monkeypatch.setattr(analysis, "b_generic", parent)

    @pytest.mark.parametrize("exact", [True, False])
    def test_pipeline_matches_fresh_calls(self, monkeypatch, exact):
        bparams = BParams(alpha=1, walk_len=2, depth=2, margin=0.18, mis_budget=1)
        kwargs = dict(bparams=bparams, exact=exact, q_samples=200, match_prob_trials=30)
        setup = smoke_setup(**kwargs)
        report = verify_claims(setup, trials=5, workers=1)
        self.fresh_calls(monkeypatch)
        parent = smoke_setup(**kwargs)
        assert setup.weights == parent.weights
        assert report.to_json() == verify_claims(parent, trials=5, workers=1).to_json()

    def test_exact_table_derives_each_tape_once(self, monkeypatch):
        # both probability tables and the trials read one table, of the
        # trials' seed; only the gates' samples have seeds of their own
        paths = Counter()
        original = SeedContext.__post_init__

        def recording(self, *args):
            paths[self.path] += 1
            return original(self, *args)

        monkeypatch.setattr(SeedContext, "__post_init__", recording)
        g, thresholds = SOURCE_CORPUS["kite"]
        setup = prepare_pipeline(
            g, eps=0.2, seed=6, bparams=SOURCE_BPARAMS, q_samples=10_000,
            table_samples=10, match_prob_trials=40, delta_trials=10, delta_exponent=15,
            R=4, thresholds=thresholds, exact=True,
        )
        verify_claims(setup, trials=10, workers=1)
        m = setup.crucial.rec.walks.g.m
        assert m >= 3 and setup.weights
        tapes = Counter({
            path: n for path, n in paths.items()
            if path[-3:-1] == ("tape", "edge") and path[:2] != ("table", "unsat")
        })
        assert tapes == Counter({("alg", "tape", "edge", e): 1 for e in range(m)})

    def test_free_prob_is_the_trials_frequency(self):
        # the bench verify graph at program seed 14, where the free
        # probabilities of a per-table seed differed from the trials' on
        # six vertices, up to 0.1 against 1.0
        eps = 0.1
        setup = prepare_pipeline(
            VERIFY_EXACT, eps=eps, seed=14,
            bparams=BParams(alpha=1, walk_len=3, depth=2, margin=2.0 * eps**2, mis_budget=None),
            q_samples=10_000, table_samples=20, match_prob_trials=500, delta_trials=50,
            delta_exponent=15, R=32, thresholds=(0.25, 0.32), exact=None,
        )
        sub = setup.crucial.rec.walks.g
        tapes = TapeTable(SeedContext(14).child("alg"), sub)
        assert setup.tapes.ctx == tapes.ctx
        covered = [0.0] * VERIFY_EXACT.n
        worlds = list(enumerate_realizations(sub))
        assert len(worlds) == 2**7
        for mask, weight in worlds:
            for v in matched_vertices(sub, b_generic(setup.crucial.rec, mask, tapes)):
                covered[v] += weight
        ctx = SeedContext(14).child("mprob")
        free = build_match_prob_table(setup.crucial, range(sub.n), 500, ctx, setup.tapes)
        assert free == {v: 1.0 - c for v, c in enumerate(covered)}

    @pytest.mark.parametrize("exact", [True, False])
    def test_delta_table_matches_per_query_tapes(self, monkeypatch, exact):
        g, thresholds = SOURCE_CORPUS["kite"]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        crucial = prepare_crucial(g, q, SOURCE_BPARAMS, 10, SeedContext(6).child("table"))
        pairs = [g.endpoints(e) for e in range(g.m)]
        ctx = SeedContext(6).child("delta")

        def recorded(per_query: bool):
            runs = []

            def recording(lca, g, root, tapes):
                out, trace = run_lca(lca, g, root, TapeTable(tapes.ctx, g) if per_query else tapes)
                runs.append((out, trace.root, trace.probed, trace.meta))
                return out, trace

            monkeypatch.setattr(analysis, "run_lca", recording)
            tapes = TapeTable(ctx.child("alg"), crucial.rec.walks.g) if exact else None
            return build_delta_table(crucial, pairs, 6, ctx, tapes), runs

        shared, shared_runs = recorded(per_query=False)
        per_query, per_query_runs = recorded(per_query=True)
        assert shared == per_query
        assert shared_runs == per_query_runs and len(shared_runs) > 6

    @pytest.mark.parametrize("name", ["kite", "split"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_delta_table_matches_parent(self, monkeypatch, name, exact):
        g, thresholds = SOURCE_CORPUS[name]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        crucial = prepare_crucial(g, q, SOURCE_BPARAMS, 10, SeedContext(6).child("table"))
        pairs = [g.endpoints(e) for e in range(g.m)]
        ctx = SeedContext(6).child("delta")
        queries = []
        started = Counter()  # (algorithm seed, root) -> engines

        def recording(*args):
            queries.append(args[2])
            before = len(engines)
            out = run_lca(*args)
            started[args[3].ctx, args[2]] += len(engines) - before
            return out

        monkeypatch.setattr(analysis, "run_lca", recording)
        engines = counting_engines(monkeypatch)
        # the reference's exact queries read its own seed ctx.child("alg")
        tapes = TapeTable(ctx.child("alg"), crucial.rec.walks.g) if exact else None
        got = build_delta_table(crucial, pairs, 12, ctx, tapes)
        if exact:  # at most one engine per (realization, root)
            assert len(engines) <= crucial.rec.walks.g.m * 2**crucial.rec.walks.g.m
        else:  # a sampled trial's seed is its own: one engine per (trial, root)
            assert max(started.values()) == 1
        assert len(engines) < len(queries)
        assert got == build_delta_table_v0(g, crucial, pairs, 12, ctx, exact).values


class TestWeightsBeforeTrials:
    """The pipeline fixes each f-support edge's x weight before any trial,
    against the per-trial build_x it replaced."""

    CASES = {
        "kite-exact": (SOURCE_CORPUS["kite"][0], 6, 0.2, SOURCE_BPARAMS, SOURCE_CORPUS["kite"][1],
                       4, True),
        "kite-sampled": (SOURCE_CORPUS["kite"][0], 6, 0.2, SOURCE_BPARAMS,
                         SOURCE_CORPUS["kite"][1], 4, False),
        "verify-exact-seed-14": (
            VERIFY_EXACT, 14, 0.1,
            BParams(alpha=1, walk_len=3, depth=2, margin=2.0 * 0.1**2, mis_budget=None),
            (0.25, 0.32), 32, None,
        ),
    }

    @staticmethod
    def f_of(setup, seed):
        H, matchings = build_H(setup.g, SparsifierParams(R=setup.R, eps=setup.eps, seed=seed))
        assert H == setup.H
        return build_f(setup.g, H, matchings, setup.q, setup.eps, setup.R)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_x_matches_parent(self, case):
        g, seed, eps, bparams, thresholds, R, exact = self.CASES[case]
        counts = dict(match_prob_trials=40, delta_trials=10, delta_exponent=15)
        setup = prepare_pipeline(
            g, eps=eps, seed=seed, bparams=bparams, q_samples=2_000, table_samples=10,
            R=R, exact=exact, thresholds=thresholds, **counts,
        )
        f = self.f_of(setup, seed)
        assert f.support and setup.q.exact is (exact is not False)
        # the parent's tables: the free probability of every vertex, and the
        # collisions of f's pairs behind a symmetric lookup
        ctx = SeedContext(seed)
        free = build_match_prob_table(
            setup.crucial, range(g.n), counts["match_prob_trials"], ctx.child("mprob"),
            setup.tapes,
        )
        pairs = [g.endpoints(e) for e in sorted(f.support)]
        delta = build_delta_table(
            setup.crucial, pairs, counts["delta_trials"], ctx.child("delta"), setup.tapes
        )
        free_prob = tuple(free[v] for v in range(g.n))
        sub = setup.crucial.rec.walks.g
        for t in range(20):
            x, _ = run_pipeline(setup, t)
            real = setup.realization(t)
            tapes = setup.tapes
            if tapes is None:
                tapes = TapeTable(setup.ctx.child("alg", t), sub)
            m_c = compute_MC(setup.crucial, real, tapes)
            parent = build_x_v0(
                g, setup.q, f, m_c, setup.H, real, free_prob, DeltaTable(delta), eps,
                p_min_of(g), counts["delta_exponent"],
            )
            assert list(x.items()) == list(parent.items())

    def test_empty_f_builds_no_table(self, monkeypatch):
        # sampled q on kite without thresholds puts all 9 edges in the
        # crucial set, so f is empty: the recursion runs only for the gates'
        # samples and the trials' M_C
        g, _ = SOURCE_CORPUS["kite"]
        calls = count_b_generic(monkeypatch)
        setup = prepare_pipeline(
            g, eps=0.2, seed=3, bparams=SOURCE_BPARAMS, q_samples=200, table_samples=5,
            match_prob_trials=30, delta_trials=5, delta_exponent=15, R=4, thresholds=None,
            exact=False,
        )
        assert len(setup.q.crucial) == g.m == 9
        assert not self.f_of(setup, 3).support and setup.weights == {}
        gates = len(calls)
        assert gates == 5 * (SOURCE_BPARAMS.depth - 1)
        verify_claims(setup, trials=7, workers=1)
        assert len(calls) == gates + 7
