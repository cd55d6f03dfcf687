import json
import math
import os
from collections import Counter

import pytest

from oracles import (
    Realization,
    UnsaturationTable,
    b_generic_v0,
    build_delta_table_v0,
    build_match_prob_table_v0,
    estimate_q_v0,
    estimate_ratio,
    flagged,
    gate_table,
    gnp_graph,
    is_matching,
    path_graph,
    ratio_sweep_v0,
    shallow_bparams,
    vertex_load,
)
from stochmatch import analysis, hyperwalk
from stochmatch.analysis import (
    DeltaTable,
    MissingTableEntry,
    build_delta_table,
    build_f,
    build_match_prob_table,
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
    Graph,
    SeedContext,
    sample_realization,
    write_graph_text,
)
from stochmatch.cli import main
from stochmatch.hyperwalk import BParams
from stochmatch.lca import TapeTable, run_lca
from stochmatch.sparsifier import QProfile, SparsifierParams, build_H, estimate_q
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
        with pytest.raises(ValueError):
            build_f(g, frozenset(), (frozenset(),), q, 1.5, 1)
        with pytest.raises(ValueError):
            build_f(g, frozenset(), (frozenset(),), q, 0.2, 2)


class TestCrucialSide:
    def test_empty_crucial_set(self):
        g = path_graph(3)
        q = qprofile((0.1, 0.1, 0.1), 0.2, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        assert crucial.sub.m == 0
        real = 0b111
        assert compute_MC(crucial, real, SeedContext(1), None) == frozenset()

    def test_single_crucial_edge(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        assert compute_MC(crucial, 0b1, SeedContext(1), None) == frozenset({0})
        assert compute_MC(crucial, 0b0, SeedContext(1), None) == frozenset()

    def test_mc_is_matching_inside_realized_crucial(self):
        for seed in range(6):
            g = gnp_graph(9, 0.4, 0.5, SeedContext(seed).child("g"))
            if not 3 <= g.m <= 13:
                continue
            q = estimate_q(g, exact=True).with_thresholds(0.1, 0.25)
            crucial = prepare_crucial(g, q, BP1, 0, SeedContext(seed))
            for t in range(4):
                real = sample_realization(g, SeedContext(seed).child("real"), t)
                m_c = compute_MC(crucial, real, SeedContext(seed).child("alg"), None)
                assert is_matching(g, m_c)
                assert m_c <= q.crucial
                assert all((real >> e) & 1 for e in m_c)

    def test_mc_ignores_noncrucial_bits(self):
        g = path_graph(2)
        q = qprofile((0.9, 0.1), 0.2, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        ctx = SeedContext(3)
        with_other = compute_MC(crucial, 0b11, ctx, None)
        without = compute_MC(crucial, 0b01, ctx, None)
        assert with_other == without == frozenset({0})

    def test_match_prob_table_exact_single_edge(self):
        g = path_graph(1)
        q = qprofile((0.5,), 0.1, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        free = build_match_prob_table(g, crucial, 10, SeedContext(2), exact=True)
        assert free == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_match_prob_table_sampled_close(self):
        g = path_graph(1)
        q = qprofile((0.5,), 0.1, 0.3)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        free = build_match_prob_table(
            g, crucial, 600, SeedContext(2), exact=False
        )
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
        assert crucial.sub.m > 0
        assert len(crucial.gates) == depth
        # the level-0 marginals are zeros
        a_prob = match_targets_from_q(g, q, sorted(q.crucial))
        zeros = UnsaturationTable(a_prob, ((0.0,) * crucial.sub.n,))
        n = crucial.sub.n
        assert crucial.gates[0] == sum(
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
        assert levels == {0, 1} == set(range(len(setup.crucial.gates)))

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
    def test_symmetric_lookup(self):
        table = DeltaTable({(1, 4): 0.25})
        assert table.get(1, 4) == 0.25
        assert table.get(4, 1) == 0.25
        assert (1, 4) in table.values
        assert (0, 1) not in table.values
        with pytest.raises(MissingTableEntry):
            table.get(0, 1)

    def test_adjacent_crucial_endpoints_always_collide(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        table = build_delta_table(crucial, [(0, 1)], 20, SeedContext(5), exact=False)
        assert table.get(0, 1) == 1.0

    def test_isolated_pair_never_collides(self):
        # vertices 2 and 3 have no crucial incident edges
        g = path_graph(3)
        q = qprofile((0.9, 0.05, 0.05), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        table = build_delta_table(crucial, [(2, 3)], 20, SeedContext(5), exact=False)
        assert table.get(2, 3) == 0.0

    def test_empty_pairs_short_circuits(self):
        g = path_graph(1)
        q = qprofile((0.9,), 0.1, 0.5)
        crucial = prepare_crucial(g, q, BP1, 0, SeedContext(0))
        assert build_delta_table(crucial, [], 0, SeedContext(5), exact=False).values == {}


class TestBuildX:
    """Hand-built tables on the 3-edge path; edge 0 crucial, 1-2 noncrucial."""

    def setup_method(self):
        self.g = path_graph(3)
        self.q = qprofile((0.5, 0.1, 0.1), 0.2, 0.4)
        self.free = (0.5, 0.5, 0.5, 0.5)
        self.eps = 0.3
        self.p_min = 0.5

    def x(self, f_values, m_c, H, mask, free=None, delta=None):
        from stochmatch.matching import FractionalMatching

        f = FractionalMatching.build(self.g, f_values)
        if delta is None:
            delta = DeltaTable({(1, 2): 0.0, (2, 3): 0.0})
        return build_x(
            self.g,
            self.q,
            f,
            frozenset(m_c),
            frozenset(H),
            mask,
            free if free is not None else self.free,
            delta,
            self.eps,
            self.p_min,
            15,
        )

    def test_crucial_matched_in_realized_H(self):
        x = self.x({}, {0}, {0, 1, 2}, 0b111)
        assert x[0] == 1.0

    def test_crucial_outside_H_or_unmatched(self):
        assert self.x({}, {0}, {1, 2}, 0b111)[0] == 0.0
        assert self.x({}, {}, {0, 1, 2}, 0b111)[0] == 0.0
        assert self.x({}, {0}, {0, 1, 2}, 0b110)[0] == 0.0

    def test_noncrucial_formula(self):
        x = self.x({2: 0.1}, {0}, {0, 1, 2}, 0b111)
        assert x[2] == pytest.approx(0.1 / (0.5 * 0.5 * 0.5), abs=1e-12)
        assert x[2] == pytest.approx(0.8, abs=1e-12)

    def test_mc_cover_zeroes_neighbors(self):
        # edge 1 touches vertex 1, covered by M_C = {0}
        x = self.x({1: 0.1}, {0}, {0, 1, 2}, 0b111)
        assert x[1] == 0.0

    def test_delta_guard(self):
        delta = DeltaTable({(2, 3): 0.5})
        x = self.x({2: 0.1}, {0}, {0, 1, 2}, 0b111, delta=delta)
        assert x[2] == 0.0

    def test_low_free_probability_guard(self):
        free = (0.5, 0.5, 0.5, 0.01)
        x = self.x({2: 0.1}, {0}, {0, 1, 2}, 0b111, free=free)
        assert x[2] == 0.0

    def test_unrealized_noncrucial_zeroed(self):
        x = self.x({2: 0.1}, {0}, {0, 1, 2}, 0b011)
        assert x[2] == 0.0

    def test_middle_band_zero(self):
        q = qprofile((0.5, 0.3, 0.1), 0.2, 0.4)
        from stochmatch.matching import FractionalMatching

        x = build_x(
            self.g,
            q,
            FractionalMatching.build(self.g, {}),
            frozenset(),
            frozenset({0, 1, 2}),
            0b111,
            self.free,
            DeltaTable({}),
            self.eps,
            self.p_min,
            15,
        )
        assert x[1] == 0.0

    def test_missing_delta_entry_raises(self):
        with pytest.raises(MissingTableEntry):
            self.x({2: 0.1}, {0}, {0, 1, 2}, 0b111, delta=DeltaTable({}))

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
        assert setup.exact
        assert setup.R == 3
        assert setup.q.crucial and setup.q.noncrucial
        x, y = run_pipeline(setup, 0, None)
        assert set(x) == set(range(setup.g.m))
        real = setup.realization(0)
        m_c = compute_MC(setup.crucial, real, setup.alg_ctx(0), None)
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
        a_x, a_y = run_pipeline(setup, 2, None)
        b_x, b_y = run_pipeline(setup, 2, None)
        assert a_x == b_x
        assert a_y.values == b_y.values
        again = smoke_setup()
        c_x, _ = run_pipeline(again, 2, None)
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

    def test_trials_must_be_positive(self):
        setup = smoke_setup()
        with pytest.raises(ValueError):
            verify_claims(setup, trials=0, workers=1)

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
        ctx = SeedContext(6).child("mprob")
        for exact in (None, True, False):
            assert build_match_prob_table(g, crucial, 40, ctx, exact) == (
                build_match_prob_table_v0(g, crucial, 40, ctx, exact)
            )


class TestSeedMemoPipelines:
    """The exact pipelines' shared memos and tape tables against the
    per-call routes they replace."""

    @staticmethod
    def fresh_calls(monkeypatch):
        # the parent route: every b_generic call fresh, no memo
        def parent(g, real, params, ctx, level=None, gates=None, walks=None, memo=None):
            table = None if gates is None else gate_table(gates, g.n)
            return b_generic_v0(g, Realization(g, real), params, ctx, level, table, walks)

        monkeypatch.setattr(analysis, "b_generic", parent)

    @pytest.mark.parametrize("exact", [True, False])
    def test_pipeline_matches_fresh_calls(self, monkeypatch, exact):
        bparams = BParams(alpha=1, walk_len=2, depth=2, margin=0.18, mis_budget=1)
        kwargs = dict(bparams=bparams, exact=exact, q_samples=200, match_prob_trials=30)
        setup = smoke_setup(**kwargs)
        report = verify_claims(setup, trials=5, workers=1)
        self.fresh_calls(monkeypatch)
        parent = smoke_setup(**kwargs)
        assert setup.free_prob == parent.free_prob
        assert report.to_json() == verify_claims(parent, trials=5, workers=1).to_json()

    def test_exact_table_derives_each_tape_once(self, monkeypatch):
        g, thresholds = SOURCE_CORPUS["kite"]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        crucial = prepare_crucial(g, q, SOURCE_BPARAMS, 10, SeedContext(6).child("table"))
        assert crucial.sub.m >= 3
        paths = Counter()
        original = SeedContext.__post_init__

        def recording(self, *args):
            paths[self.path] += 1
            return original(self, *args)

        monkeypatch.setattr(SeedContext, "__post_init__", recording)
        build_match_prob_table(g, crucial, 40, SeedContext(6).child("mprob"), exact=True)
        tapes = {path[-1]: n for path, n in paths.items() if path[-3:-1] == ("tape", "edge")}
        assert sorted(tapes) == list(range(crucial.sub.m))
        assert set(tapes.values()) == {1}

    @pytest.mark.parametrize("exact", [True, False])
    def test_delta_table_matches_per_query_tapes(self, monkeypatch, exact):
        g, thresholds = SOURCE_CORPUS["kite"]
        q = estimate_q(g, exact=True).with_thresholds(*thresholds)
        crucial = prepare_crucial(g, q, SOURCE_BPARAMS, 10, SeedContext(6).child("table"))
        pairs = [g.endpoints(e) for e in range(g.m)]
        ctx = SeedContext(6).child("delta")

        def recorded(per_query: bool):
            runs = []

            def recording(lca, g, ctx, root, tapes):
                out, trace = run_lca(lca, g, ctx, root, TapeTable(ctx, g) if per_query else tapes)
                runs.append((out, trace.root, trace.probed, trace.meta))
                return out, trace

            monkeypatch.setattr(analysis, "run_lca", recording)
            return build_delta_table(crucial, pairs, 6, ctx, exact), runs

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

        def recording(*args):
            queries.append(args[3])
            return run_lca(*args)

        monkeypatch.setattr(analysis, "run_lca", recording)
        engines = counting_engines(monkeypatch)
        got = build_delta_table(crucial, pairs, 12, ctx, exact)
        if exact:  # at most one engine per (realization, root)
            assert len(engines) <= crucial.sub.m * 2**crucial.sub.m
            assert len(engines) < len(queries)
        else:  # a sampled pipeline keeps no memo
            assert engines == queries
        assert got == build_delta_table_v0(g, crucial, pairs, 12, ctx, exact)
