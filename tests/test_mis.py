import math
import random
from itertools import permutations

import pytest

from oracles import (
    BMatchingLcaV0,
    TruncatedGreedyMisV0,
    budget_for_degree,
    complete_graph,
    cycle_graph,
    find_rank_ctx,
    gmis_member,
    gnp_graph,
    greedy_mis_sweep,
    is_independent,
    is_maximal_independent,
    path_graph,
    tmis_query,
    tmis_set,
    vertex_rank,
    walk_setup,
)
from stochmatch import hyperwalk
from stochmatch.graph import Graph, SeedContext, sample_realization
from stochmatch.hyperwalk import BMatchingLca, BParams
from stochmatch.lca import Site, TapeTable, gather_ledger, run_lca
from stochmatch.mis import TruncatedGreedyMis, greedy_member
from stochmatch.sparsifier import max_degree_of
from test_acceptance import B_CORPUS


def star(leaves):
    return Graph.build(leaves + 1, [(0, i, 0.5) for i in range(1, leaves + 1)])


class TestGmis:
    def test_path_middle_lowest(self):
        g = path_graph(2)
        ranks = {0: (0.5, 0), 1: (0.1, 1), 2: (0.9, 2)}
        members = {v for v in range(3) if gmis_member(g, ranks, v)}
        assert members == {1}

    def test_path_monotone(self):
        g = path_graph(2)
        ranks = {0: (0.1, 0), 1: (0.2, 1), 2: (0.3, 2)}
        members = {v for v in range(3) if gmis_member(g, ranks, v)}
        assert members == {0, 2}

    def test_k3_minimum_only(self):
        g = complete_graph(3)
        for perm in permutations(range(3)):
            ranks = {v: (perm[v] / 3.0, v) for v in range(3)}
            members = {v for v in range(3) if gmis_member(g, ranks, v)}
            assert members == {min(range(3), key=lambda v: ranks[v])}

    def test_matches_sweep_oracle(self):
        for seed in range(20):
            g = gnp_graph(25, 0.2, 0.5, SeedContext(seed).child("gen"))
            ctx = SeedContext(seed).child("ranks")
            ranks = {v: vertex_rank(ctx, v) for v in range(g.n)}
            members = frozenset(v for v in range(g.n) if gmis_member(g, ranks, v))
            assert members == greedy_mis_sweep(g, ranks)


class TestTmis:
    def test_star_center_lowest(self):
        g = star(5)
        ctx = find_rank_ctx(g, lambda r: r[0] == min(r.values()))
        budget = 5
        assert tmis_query(g, ctx, 0, budget)[0].member is True
        assert all(not tmis_query(g, ctx, v, budget)[0].member for v in range(1, 6))

    def test_budget_disabled_equals_gmis(self):
        for seed in range(10):
            g = gnp_graph(40, 0.15, 0.5, SeedContext(seed).child("gen"))
            ctx = SeedContext(seed).child("tapes")
            ranks = {v: vertex_rank(ctx, v) for v in range(g.n)}
            assert tmis_set(g, ctx) == greedy_mis_sweep(g, ranks)

    def test_monotone_chain_truncates(self):
        g = path_graph(4)  # 5 vertices in a line
        ctx = find_rank_ctx(
            g, lambda r: r[0] < r[1] < r[2] < r[3] < r[4]
        )
        full, _ = tmis_query(g, ctx, 4)
        assert full.member is True and full.calls == 5
        cut, _ = tmis_query(g, ctx, 4, 3)
        assert cut.member is False
        assert cut.truncated is True
        assert cut.calls <= 3

    def test_truncation_never_adds_members(self):
        g = gnp_graph(20, 0.3, 0.5, SeedContext(7).child("gen"))
        ctx = SeedContext(11)
        unbounded = tmis_set(g, ctx)
        for threshold in (1, 2, 4, 8):
            assert tmis_set(g, ctx, threshold) <= unbounded

    def test_independence_under_truncation(self):
        truncations = 0
        for seed in range(6):
            g = gnp_graph(30, 0.2, 0.5, SeedContext(seed).child("gen"))
            ctx = SeedContext(seed).child("tapes")
            for budget in (1, 2, 3):
                members = tmis_set(g, ctx, budget)
                assert is_independent(g, members)
                truncations += sum(
                    1 for v in range(g.n) if tmis_query(g, ctx, v, budget)[0].truncated
                )
        assert truncations > 0, "corpus never exercised truncation"

    def test_calls_within_threshold(self):
        g = gnp_graph(30, 0.2, 0.5, SeedContext(3).child("gen"))
        for t in range(20):
            ctx = SeedContext(t).child("sweep")
            for v in range(g.n):
                out, _ = tmis_query(g, ctx, v, 3)
                assert out.calls <= 3


class TestTmisSet:
    def test_empty_graph_all_members(self):
        g = Graph.build(5, [])
        assert tmis_set(g, SeedContext(0)) == frozenset(range(5))

    def test_k2_exactly_one(self):
        g = Graph.build(2, [(0, 1, 0.5)])
        for seed in range(10):
            ctx = SeedContext(seed)
            members = tmis_set(g, ctx)
            assert len(members) == 1
            lo = min(range(2), key=lambda v: vertex_rank(ctx, v))
            assert members == frozenset({lo})

    def test_unbounded_is_maximal(self):
        g = gnp_graph(20, 0.3, 0.5, SeedContext(2).child("gen"))
        members = tmis_set(g, SeedContext(13))
        assert is_maximal_independent(g, members)

    def test_big_budget_matches_unbounded(self):
        g = gnp_graph(20, 0.3, 0.5, SeedContext(2).child("gen"))
        ctx = SeedContext(13)
        assert tmis_set(g, ctx, 10_000) == tmis_set(g, ctx)


class TestBudget:
    def test_for_degree(self):
        assert budget_for_degree(4, 0.1) == 160
        assert budget_for_degree(4, 0.1, c=2.0) == 320
        assert budget_for_degree(0, 0.5) == 1

def test_approximate_maximality():
    # budgeted sets keep (1 - eps) of the greedy MIS size on average
    eps = 0.1
    ratios = []
    for seed in range(50):
        g = gnp_graph(50, 0.2, 0.5, SeedContext(seed).child("gen"))
        ctx = SeedContext(seed).child("tapes")
        budget = budget_for_degree(max_degree_of(g, range(g.m)), eps)
        exact = tmis_set(g, ctx)
        cut = tmis_set(g, ctx, budget)
        assert cut <= exact
        ratios.append(len(cut) / len(exact))
    mean = sum(ratios) / len(ratios)
    var = sum((r - mean) ** 2 for r in ratios) / (len(ratios) - 1)
    sigma = math.sqrt(var / len(ratios))
    assert mean >= 1.0 - eps - 3.0 * sigma


def test_in_query_growth_linear():
    # center in-queries grow like Delta, not Delta^2
    means = {}
    for leaves in (4, 8, 16):
        g = star(leaves)
        ledger = gather_ledger(
            TruncatedGreedyMis(budget_for_degree(leaves, 0.5)),
            g,
            SeedContext(21).child("stars", leaves),
            trials=40,
        )
        means[leaves] = ledger.mean_qminus(Site("vertex", 0))
    c_fit = means[4] / 4.0
    for leaves in (8, 16):
        assert means[leaves] <= 3.0 * c_fit * leaves


class TestEngine:
    """``greedy_member`` against the recursions it replaced (kept in
    oracles.py): same answers, truncation flags and probe traces."""

    def test_budget_rule(self):
        # a chain 0 <- 1 <- 2 <- 3: each node's only lower neighbor is the next
        def lower(x):
            return [x + 1] if x < 3 else []

        assert greedy_member(0, lower, None) == (False, False, 4)
        assert greedy_member(0, lower, budget=4) == (False, False, 4)
        for budget in (1, 2, 3):
            assert greedy_member(0, lower, budget=budget) == (False, True, budget)
        assert greedy_member(0, lambda x: None, None) == (False, False, 1)

    def test_tmis_matches_parent(self):
        truncated = 0
        for seed in range(8):
            n = 10 + 7 * seed
            g = gnp_graph(n, 3.0 / n, 0.5, SeedContext(seed).child("diff"))
            ctx = SeedContext(seed).child("tapes")
            for threshold in (None,) + tuple(range(1, 11)):
                for v in range(g.n):
                    root = Site("vertex", v)
                    new, trace = run_lca(TruncatedGreedyMis(threshold), g, root, TapeTable(ctx, g))
                    old, old_trace = run_lca(TruncatedGreedyMisV0(threshold), g, root, TapeTable(ctx, g))
                    assert new == old
                    assert trace.probed == old_trace.probed
                    assert trace.meta == old_trace.meta
                    truncated += new.truncated
        assert truncated > 0, "corpus never exercised truncation"

    def test_walk_mis_matches_parent(self, monkeypatch):
        log = []

        def recorded(root, lower, budget=None):
            out = greedy_member(root, lower, budget)
            log.append((root,) + out)
            return out

        monkeypatch.setattr(hyperwalk, "greedy_member", recorded)
        truncated = 0
        for name, g, kw in B_CORPUS:
            for mis_budget in (None, 1, 3, 6):
                params = BParams(margin=0.1, **dict(kw, mis_budget=mis_budget))
                for seed in range(3):
                    real = sample_realization(g, SeedContext(seed).child("real"), 0)
                    ctx = SeedContext(seed).child("alg")
                    lca = BMatchingLca(walk_setup(g, params), real)
                    old_lca = BMatchingLcaV0(walk_setup(g, params), real)
                    for e in range(g.m):
                        log.clear()
                        old_lca.mis_log.clear()
                        out, trace = run_lca(lca, g, Site("edge", e), TapeTable(ctx, g))
                        old, old_trace = run_lca(old_lca, g, Site("edge", e), TapeTable(ctx, g))
                        assert out == old, name
                        assert trace.probed == old_trace.probed, name
                        assert len(log) == len(old_lca.mis_log), name
                        cut = 0
                        for (w, ok, cut_short, calls), (w0, ok0, cut_short0, calls0) in zip(
                            log, old_lca.mis_log
                        ):
                            assert (w, ok, cut_short) == (w0, ok0, cut_short0), name
                            if cut_short:
                                # the refused expansion is no longer counted
                                assert (calls, calls0) == (mis_budget, mis_budget + 1), name
                                cut += 1
                            else:
                                assert calls == calls0, name
                        assert trace.meta["nodes"] == old_trace.meta["nodes"] - cut, name
                        truncated += cut
        assert truncated > 0, "corpus never exercised truncation"


class TestSharedExpansions:
    """Expansions stored on a sweep's tapes against ``TruncatedGreedyMisV0``,
    which expands every vertex afresh, here in a fresh table per root."""

    GRAPHS = [
        gnp_graph(n, 3.0 / n, 0.5, SeedContext(seed).child("share"))
        for seed, n in ((0, 12), (1, 40), (2, 90))
    ] + [cycle_graph(12)]

    @staticmethod
    def assert_matches_fresh(budget, g, ctx, roots, tapes) -> int:
        truncated = 0
        for v in roots:
            root = Site("vertex", v)
            out, trace = run_lca(TruncatedGreedyMis(budget), g, root, tapes)
            old, old_trace = run_lca(TruncatedGreedyMisV0(budget), g, root, TapeTable(ctx, g))
            assert out == old
            assert trace.probed == old_trace.probed
            assert trace.meta == old_trace.meta
            truncated += out.truncated
        return truncated

    def test_any_root_order(self):
        truncated = 0
        for i, g in enumerate(self.GRAPHS):
            ctx = SeedContext(i).child("tapes")
            shuffled = list(range(g.n))
            random.Random(i).shuffle(shuffled)
            for roots in (range(g.n), range(g.n - 1, -1, -1), shuffled):
                for budget in (None, 1, 3, 8):
                    tapes = TapeTable(ctx, g)
                    truncated += self.assert_matches_fresh(budget, g, ctx, roots, tapes)
        assert truncated > 0, "corpus never exercised truncation"

    def test_table_reused_across_graphs(self):
        # an expansion stored on a tape is its table's graph's, so a table
        # bound to one graph refuses a query on another over the same
        # vertices, and keeps answering its own as a fresh table does
        g, other = cycle_graph(12), gnp_graph(12, 0.3, 0.5, SeedContext(5).child("share"))
        ctx = SeedContext(5).child("tapes")
        for budget in (None, 3):
            tapes = TapeTable(ctx, g)
            for v in range(12):
                self.assert_matches_fresh(budget, g, ctx, [v], tapes)
                with pytest.raises(ValueError, match="another graph"):
                    run_lca(TruncatedGreedyMis(budget), other, Site("vertex", v), tapes)
