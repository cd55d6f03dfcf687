import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    complete_graph,
    estimate_q_v0,
    gnp_graph,
    matching_size_expectation_exact,
    path_graph,
    q_load,
)
from stochmatch.analysis import ratio_sweep
from stochmatch.graph import Graph, SeedContext
from stochmatch.sparsifier import (
    QProfile,
    SparsifierParams,
    build_H,
    derive_R,
    estimate_q,
    max_degree_of,
    select_thresholds,
)
from test_matching import component_corpus, small_graphs


class TestBuildH:
    def test_single_sure_edge(self):
        g = Graph.build(2, [(0, 1, 1.0)])
        H, matchings = build_H(g, SparsifierParams(R=3, eps=0.5, seed=0))
        assert H == frozenset({0})
        assert len(matchings) == 3

    def test_disjoint_perfect_matching(self):
        g = Graph.build(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        H, _ = build_H(g, SparsifierParams(R=2, eps=0.5, seed=4))
        assert H == frozenset(range(3))

    def test_star_degree_bound(self):
        g = Graph.build(6, [(0, i, 0.5) for i in range(1, 6)])
        H, _ = build_H(g, SparsifierParams(R=4, eps=0.5, seed=1))
        assert max_degree_of(g, H) <= 4

    def test_nested_prefixes(self):
        g = gnp_graph(16, 0.3, 0.5, SeedContext(8).child("gen"))
        Hs = [
            build_H(g, SparsifierParams(R=R, eps=0.2, seed=5))[0]
            for R in (1, 2, 4, 8)
        ]
        for small, big in zip(Hs, Hs[1:]):
            assert small <= big

    @given(st.integers(0, 300), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_degree_never_exceeds_R(self, seed, R):
        g = gnp_graph(10, 0.4, 0.5, SeedContext(seed).child("gen"))
        H, matchings = build_H(g, SparsifierParams(R=R, eps=0.3, seed=seed))
        assert max_degree_of(g, H) <= R
        assert H == frozenset().union(*matchings) if matchings else H == frozenset()

    def test_monotone_value_in_R(self):
        # nested prefixes make each realization's numerator monotone, and
        # the paired estimates share one denominator: the order is exact
        g = gnp_graph(20, 0.25, 0.5, SeedContext(3).child("gen"))
        Hs = [
            build_H(g, SparsifierParams(R=R, eps=0.2, seed=9))[0]
            for R in (1, 2, 4, 8)
        ]
        ests = ratio_sweep(g, Hs, samples=1500, ctx=SeedContext(7).child("mc"), exact=None)
        for lo, hi in zip(ests, ests[1:]):
            assert hi.ratio >= lo.ratio


class TestEstimateQ:
    def test_single_edge_exact(self):
        g = Graph.build(2, [(0, 1, 0.5)])
        q = estimate_q(g, exact=None)
        assert q.exact and q.q == (0.5,)

    def test_sure_path_lexicographic(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert estimate_q(g, exact=None).q == (1.0, 0.0)

    def test_triangle_values(self, triangle):
        q = estimate_q(triangle, exact=None)
        assert q.q == pytest.approx((0.5, 0.25, 0.125), abs=1e-12)

    def test_total_equals_expected_mu(self, triangle):
        q = estimate_q(triangle, exact=None)
        assert q.total == pytest.approx(
            matching_size_expectation_exact(triangle), abs=1e-9
        )

    def test_vertex_loads_capped(self):
        for seed in range(8):
            g = gnp_graph(7, 0.5, 0.6, SeedContext(seed).child("gen"))
            if g.m == 0:
                continue
            q = estimate_q(g, exact=None)
            for v in range(g.n):
                assert q_load(q, g, v) <= 1.0 + 1e-9

    def test_sampled_mode_close_to_exact(self, triangle):
        exact = estimate_q(triangle, exact=None)
        mc = estimate_q(triangle, samples=4000, ctx=SeedContext(2).child("q"), exact=False)
        assert not mc.exact
        for a, b in zip(mc.q, exact.q):
            assert abs(a - b) <= 4 * math.sqrt(0.25 / 4000)

    def test_crucial_noncrucial_partition(self, triangle):
        q = estimate_q(triangle, exact=None).with_thresholds(0.2, 0.3)
        assert q.crucial == frozenset({0})
        assert q.noncrucial == frozenset({2})
        assert not q.crucial & q.noncrucial

    def test_thresholds_required(self, triangle):
        with pytest.raises(ValueError):
            estimate_q(triangle, exact=None).crucial

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_exact_equals_per_mask_loop(self, g):
        # the component memo keeps every float sum in mask order
        assert estimate_q(g, exact=True) == estimate_q_v0(g, exact=True)

    @pytest.mark.parametrize("name", sorted(component_corpus()))
    def test_exact_equals_per_mask_loop_on_corpus(self, name):
        g = component_corpus()[name]
        assert estimate_q(g, exact=True) == estimate_q_v0(g, exact=True)


class TestSelectThresholds:
    def test_all_above_tau0(self, triangle):
        q = estimate_q(triangle, exact=None)  # all q >= 0.125 > tau_0 = 0.0625
        tau_minus, tau_plus = select_thresholds(q, eps=0.5, p_min=0.5)
        tau0 = (0.5 * 0.5) ** 2
        assert tau_plus == pytest.approx(tau0)
        assert tau_minus == pytest.approx(tau0**3)
        banded = q.with_thresholds(tau_minus, tau_plus)
        assert banded.crucial == frozenset(range(3))

    def test_single_edge_example(self):
        q = QProfile((0.5,), True)
        tau_minus, tau_plus = select_thresholds(q, eps=0.5, p_min=0.5)
        assert tau_plus == pytest.approx(0.0625)
        assert 0.5 >= tau_plus  # the edge lands crucial for any returned pair

    def test_loaded_bucket_avoided(self):
        tau0 = 0.0625
        tau1 = tau0**3
        # mass in bucket 1 only: selector must hand back bucket 2
        q = QProfile((0.5, 0.05), True)
        got = select_thresholds(q, eps=0.5, p_min=0.5)
        assert got == pytest.approx((tau1**3, tau1))
        # mass in bucket 2 only: selector hands back bucket 1
        q = QProfile((0.5, 1e-5), True)
        got = select_thresholds(q, eps=0.5, p_min=0.5)
        assert got == pytest.approx((tau1, tau0))

    def test_degenerate_all_zero(self):
        q = QProfile((0.0, 0.0), True)
        tau_minus, tau_plus = select_thresholds(q, eps=0.5, p_min=0.5)
        assert tau_plus == pytest.approx(0.0625)
        assert tau_minus == pytest.approx(0.0625**3)

    def test_validation(self, triangle):
        q = estimate_q(triangle, exact=None)
        with pytest.raises(ValueError):
            select_thresholds(q, eps=0.0, p_min=0.5)
        with pytest.raises(ValueError):
            select_thresholds(q, eps=0.5, p_min=0.0)

    @given(st.integers(0, 100), st.sampled_from([0.2, 0.4, 0.6]))
    @settings(max_examples=30, deadline=None)
    def test_mass_guarantee(self, seed, eps):
        # dropped band holds at most 1/ceil(1/eps) of the q mass
        g = gnp_graph(8, 0.5, 0.5, SeedContext(seed).child("gen"))
        if g.m == 0:
            return
        q = estimate_q(g, exact=None)
        tau_minus, tau_plus = select_thresholds(q, eps=eps, p_min=0.5)
        dropped = sum(qe for qe in q.q if tau_minus < qe < tau_plus)
        buckets = math.ceil(1.0 / eps)
        assert dropped <= q.total / buckets + 1e-12


class TestDeriveR:
    def test_examples(self):
        assert derive_R(0.25) == 2
        assert derive_R(0.1) == 5
        assert derive_R(1.0 / 3.0) == 2

    def test_positive_required(self):
        with pytest.raises(ValueError):
            derive_R(0.0)


def test_crucial_coverage():
    # with R >= ln(1/eps)/tau_plus, a crucial edge misses H with
    # probability at most (1 - tau_plus)^R <= eps
    eps = 0.2
    tau_plus = 0.3
    g = gnp_graph(20, 0.3, 0.5, SeedContext(12).child("gen"))
    q = estimate_q(g, samples=3000, ctx=SeedContext(1).child("q"), exact=False)
    crucial = [e for e, qe in enumerate(q.q) if qe >= tau_plus]
    assert crucial, "corpus instance must have crucial edges"
    R = math.ceil(math.log(1.0 / eps) / tau_plus)
    fractions = []
    for seed in range(40):
        H, _ = build_H(g, SparsifierParams(R=R, eps=eps, seed=seed))
        missing = sum(1 for e in crucial if e not in H)
        fractions.append(missing / len(crucial))
    mean = sum(fractions) / len(fractions)
    var = sum((x - mean) ** 2 for x in fractions) / (len(fractions) - 1)
    sigma = math.sqrt(var / len(fractions))
    assert mean <= eps + 3 * sigma
