import gc
import pickle
import weakref
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    BMatchingLcaV1,
    Hyperwalk,
    Profile,
    Realization,
    UnsaturationTable,
    _select_walks_v1,
    apply_hyperwalk,
    b_generic_v0,
    bparams_from_eps,
    complete_graph,
    cycle_graph,
    degree_in_profile,
    enumerate_hyperwalks,
    enumerate_hyperwalks_containing,
    gate_table,
    gnp_graph,
    hyperwalk_of,
    hyperwalk_reference_set,
    is_augmenting,
    is_matching,
    mask_profile,
    matching_via_queries,
    never_unsaturated,
    out_query_ceiling,
    path_graph,
    table_gates,
    validate_profile,
    validating_profiles,
    walk_setup,
    walk_vertices,
)
from stochmatch import hyperwalk
from stochmatch.graph import Graph, ResourceGuard, SeedContext, sample_realization
from stochmatch.hyperwalk import (
    BMatchingLca,
    BParams,
    SeedMemo,
    WalkIndex,
    _Guard,
    _valid_walks,
    b_generic,
    build_unsaturation_table,
    gate_masks,
    open_gates,
)
from stochmatch.lca import Site, TapeTable, run_lca
from test_acceptance import B_CORPUS


def star_graph(leaves, p=0.5):
    return Graph.build(leaves + 1, [(0, i, p) for i in range(1, leaves + 1)])


def full_realization(g):
    return (1 << g.m) - 1


def profile_noalpha(g, mask, matching=frozenset()):
    return Profile(((Realization(g, mask), frozenset(matching)),))


SMALL_PARAMS = BParams(alpha=0, walk_len=2, depth=1, margin=0.1, mis_budget=None)


class TestHyperwalkType:
    def test_odd_length_reversal_canonical(self):
        a = Hyperwalk.make((2, 1, 0), (1, 0, 1))
        b = Hyperwalk.make((0, 1, 2), (1, 0, 1))
        assert a == b
        assert a.edges == (0, 1, 2)

    def test_even_length_keeps_direction(self):
        a = Hyperwalk.make((0, 1), (0, 0))
        b = Hyperwalk.make((1, 0), (0, 0))
        assert a != b

    def test_parity_split(self):
        w = Hyperwalk.make((0, 1, 2), (3, 4, 5))
        assert w.additions() == frozenset({(0, 3), (2, 5)})
        assert w.removals() == frozenset({(1, 4)})
        assert w.entries()[0] == (1, 0, 3)

    def test_cached_hash_and_moves(self):
        w = Hyperwalk.make((2, 1, 0), (1, 0, 1))
        assert hash(w) == hash((w.edges, w.indices))
        assert w.additions() is w.additions() and w.removals() is w.removals()
        clone = pickle.loads(pickle.dumps(w))
        assert clone == w and hash(clone) == hash((w.edges, w.indices))
        assert clone.additions() == w.additions() and clone.removals() == w.removals()
        assert w == Hyperwalk((0, 1, 2), (1, 0, 1)) and w.sort_key == (3, (0, 1, 2), (1, 0, 1))
        assert len({w, clone, Hyperwalk.make((0, 1, 2), (1, 0, 1))}) == 1

    def test_rejects_repeated_edge(self):
        with pytest.raises(ValueError):
            Hyperwalk.make((0, 0), (0, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Hyperwalk.make((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Hyperwalk.make((0, 1), (0,))

    def test_rejects_negative_copy_index(self):
        with pytest.raises(ValueError):
            Hyperwalk.make((0,), (-1,))

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reversal_idempotent(self, edges, data):
        indices = data.draw(
            st.lists(
                st.integers(0, 3), min_size=len(edges), max_size=len(edges)
            )
        )
        w = Hyperwalk.make(edges, indices)
        again = Hyperwalk.make(w.edges[::-1], w.indices[::-1])
        if len(edges) % 2 == 1:
            assert again == w
        assert Hyperwalk.make(w.edges, w.indices) == w


class TestWalkVertices:
    def test_single_edge_smaller_endpoint_first(self):
        g = path_graph(1)
        assert walk_vertices(g, (0,)) == (0, 1)

    def test_chain_orientation(self):
        g = path_graph(3)
        assert walk_vertices(g, (0, 1, 2)) == (0, 1, 2, 3)
        assert walk_vertices(g, (2, 1, 0)) == (3, 2, 1, 0)

    def test_rejects_disconnected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            walk_vertices(g, (0, 2))


class TestEnumeration:
    def test_single_edge_counts(self):
        g = path_graph(1)
        assert len(enumerate_hyperwalks_containing(g, Site("edge", 0), 1, 0)) == 1
        assert len(enumerate_hyperwalks_containing(g, Site("edge", 0), 1, 2)) == 3

    def test_two_path_middle_vertex(self):
        g = path_graph(2)
        walks = enumerate_hyperwalks_containing(g, Site("vertex", 1), 2, 0)
        assert len(walks) == 4
        assert {(w.edges, w.indices) for w in walks} == {
            ((0,), (0,)),
            ((1,), (0,)),
            ((0, 1), (0, 0)),
            ((1, 0), (0, 0)),
        }

    @pytest.mark.parametrize(
        "g,L,alpha",
        [
            (path_graph(4), 3, 1),
            (cycle_graph(5), 3, 1),
            (cycle_graph(4), 4, 0),
            (star_graph(4), 2, 2),
            (complete_graph(4), 3, 0),
        ],
    )
    def test_matches_reference_enumeration(self, g, L, alpha):
        got = {(w.edges, w.indices) for w in enumerate_hyperwalks(g, L, alpha)}
        want = hyperwalk_reference_set(g, L, alpha)
        assert len(want) <= 10_000
        assert got == want

    def test_containing_site_consistent(self):
        g = cycle_graph(5)
        allwalks = set(enumerate_hyperwalks(g, 3, 1))
        for v in range(g.n):
            got = set(enumerate_hyperwalks_containing(g, Site("vertex", v), 3, 1))
            want = {w for w in allwalks if v in walk_vertices(g, w.edges)}
            assert got == want
        for e in range(g.m):
            got = set(enumerate_hyperwalks_containing(g, Site("edge", e), 3, 1))
            assert got == {w for w in allwalks if e in w.edges}

    def test_ceiling_guard(self, monkeypatch):
        monkeypatch.setattr(hyperwalk, "WALK_CEILING", 500)
        g = complete_graph(5)
        with pytest.raises(ResourceGuard):
            enumerate_hyperwalks(g, 5, 3)


class TestProfileOps:
    def test_apply_adds_odd_position(self):
        g = path_graph(1)
        p = profile_noalpha(g, 0b1)
        w = Hyperwalk.make((0,), (0,))
        assert apply_hyperwalk(p, w).matching(0) == frozenset({0})

    def test_apply_removes_even_position(self):
        g = path_graph(3)
        p = profile_noalpha(g, 0b111, {1})
        w = Hyperwalk.make((0, 1, 2), (0, 0, 0))
        out = apply_hyperwalk(p, w)
        assert out.matching(0) == frozenset({0, 2})

    def test_apply_targets_copy_by_index(self):
        g = path_graph(1)
        real = Realization(g, full_realization(g))
        p = Profile(((real, frozenset()), (real, frozenset())))
        w = Hyperwalk.make((0,), (1,))
        out = apply_hyperwalk(p, w)
        assert out.matching(0) == frozenset()
        assert out.matching(1) == frozenset({0})

    def test_apply_rejects_out_of_range_copy(self):
        g = path_graph(1)
        p = profile_noalpha(g, 0b1)
        with pytest.raises(ValueError):
            apply_hyperwalk(p, Hyperwalk.make((0,), (1,)))

    def test_degree_in_profile(self):
        g = path_graph(2)
        real = Realization(g, full_realization(g))
        p = Profile(((real, frozenset({0})), (real, frozenset({1}))))
        assert degree_in_profile(p, 0) == 1
        assert degree_in_profile(p, 1) == 2
        assert degree_in_profile(p, 2) == 1
        p_empty = Profile(((real, frozenset()), (real, frozenset())))
        assert degree_in_profile(p_empty, 1) == 0

    def test_validate_profile(self):
        g = path_graph(2)
        validate_profile(profile_noalpha(g, 0b11, {0}))
        with pytest.raises(ValueError):
            validate_profile(profile_noalpha(g, 0b10, {0}))  # not realized
        with pytest.raises(ValueError):
            validate_profile(profile_noalpha(g, 0b11, {0, 1}))  # collides


class TestAugmenting:
    def test_single_edge_unsaturated(self):
        g = path_graph(1)
        p = profile_noalpha(g, 0b1)
        w = Hyperwalk.make((0,), (0,))
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        assert is_augmenting(p, w, table, 0, margin=0.1)

    def test_saturated_endpoint_blocks(self):
        g = path_graph(1)
        p = profile_noalpha(g, 0b1)
        w = Hyperwalk.make((0,), (0,))
        table = never_unsaturated(g.n, 1)
        assert not is_augmenting(p, w, table, 0, margin=0.1)

    def test_double_match_blocks(self):
        # copy 1 already matches the shared vertex; adding with s=1 collides
        g = path_graph(2)
        real = Realization(g, full_realization(g))
        p = Profile(((real, frozenset()), (real, frozenset({1}))))
        w = Hyperwalk.make((0,), (1,))
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        assert not is_augmenting(p, w, table, 0, margin=0.1)
        # same walk against copy 0 is fine
        assert is_augmenting(p, Hyperwalk.make((0,), (0,)), table, 0, margin=0.1)

    def test_closed_walk_blocks(self):
        g = complete_graph(3)
        p = profile_noalpha(g, 0b111)
        w = Hyperwalk.make((0, 1, 2), (0, 0, 0))
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        assert not is_augmenting(p, w, table, 0, margin=0.1)

    def test_unrealized_addition_blocks(self):
        g = path_graph(1)
        p = profile_noalpha(g, 0b0)
        w = Hyperwalk.make((0,), (0,))
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        assert not is_augmenting(p, w, table, 0, margin=0.1)


class TestBGeneric:
    def test_level_zero_empty(self):
        g = path_graph(2)
        gates, walks = walk_setup(g, SMALL_PARAMS)
        got = b_generic(g, full_realization(g), SMALL_PARAMS, SeedContext(0), 0, gates=gates, walks=walks)
        assert got == frozenset()

    def test_single_realized_edge(self):
        g = path_graph(1)
        gates, walks = walk_setup(g, SMALL_PARAMS)
        got = b_generic(g, full_realization(g), SMALL_PARAMS, SeedContext(0), 1, gates=gates, walks=walks)
        assert got == frozenset({0})

    def test_path_maximal_matching(self):
        g = path_graph(3)
        for seed in range(10):
            gates, walks = walk_setup(g, SMALL_PARAMS)
            got = b_generic(
                g, full_realization(g), SMALL_PARAMS, SeedContext(seed), 1, gates=gates, walks=walks
            )
            assert is_matching(g, got)
            assert got in (frozenset({0, 2}), frozenset({1}))

    def test_output_within_realization(self):
        g = complete_graph(4)
        for seed in range(8):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            gates, walks = walk_setup(g, SMALL_PARAMS)
            got = b_generic(g, real, SMALL_PARAMS, SeedContext(seed), 1, gates=gates, walks=walks)
            assert is_matching(g, got)
            assert all((real >> e) & 1 for e in got)

    def test_check_mode_validates_intermediates(self):
        g = complete_graph(4)
        params = BParams(alpha=1, walk_len=3, depth=2, margin=0.1, mis_budget=None)
        for seed in range(4):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            gates, walks = walk_setup(g, params)
            with validating_profiles() as tally:
                loud = b_generic(g, real, params, SeedContext(seed), gates=gates, walks=walks)
            quiet = b_generic(g, real, params, SeedContext(seed), gates=gates, walks=walks)
            assert loud == quiet
            assert tally.profiles > 0

    def test_validating_wrapper_catches_collisions(self, monkeypatch):
        # a mutant that accepts every walk with two distinct endpoints
        # applies walks such as (0-1, 1-2, 2-0, 0-3), which matches two
        # edges at vertex 0; the level-2 selection must not get past the
        # wrapper
        monkeypatch.setattr(hyperwalk, "_augments", lambda w, *args: w.ends != 0)
        g = complete_graph(4)
        params = replace(SMALL_PARAMS, walk_len=4, depth=2)
        gates, walks = walk_setup(g, params)
        with validating_profiles():
            with pytest.raises(ValueError, match="collide"):
                b_generic(g, full_realization(g), params, SeedContext(0), gates=gates, walks=walks)

    @pytest.mark.parametrize("walk_len,alpha", [(3, 1), (2, 0)])
    def test_rejects_index_for_other_params(self, walk_len, alpha):
        # the entry checks alone keep every walk's copy indices within the
        # alpha + 1 copies of a recursion node
        g = path_graph(3)
        params = BParams(alpha=1, walk_len=2, depth=1, margin=0.1, mis_budget=None)
        walks = WalkIndex(g, walk_len, alpha)
        gates = open_gates(g.n, params.depth, params.margin)
        with pytest.raises(ValueError, match="walk index does not match params"):
            b_generic(g, full_realization(g), params, SeedContext(0), gates=gates, walks=walks)
        with pytest.raises(ValueError, match="walk index does not match params"):
            BMatchingLca(g, params, full_realization(g), walks=walks)

    def test_rejects_index_of_another_graph(self):
        # the same vertex count is not enough: walk ids of another graph
        # name other edges, and some of them past this graph's
        g = gnp_graph(10, 0.4, 0.5, SeedContext(1).child("gen"))
        other = gnp_graph(10, 0.4, 0.5, SeedContext(2).child("gen"))
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=None)
        walks = WalkIndex(other, params.walk_len, params.alpha)
        real = full_realization(g)
        gates = open_gates(g.n, params.depth, params.margin)
        with pytest.raises(ValueError, match="walk index does not match"):
            b_generic(g, real, params, SeedContext(0), gates=gates, walks=walks)
        with pytest.raises(ValueError, match="walk index does not match"):
            BMatchingLca(g, params, real, walks=walks)

    def test_recursion_freed_on_return(self):
        # recurse refers to itself; unless b_generic breaks that cycle, the
        # walk index outlives the call until a cyclic collection
        g = complete_graph(4)
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=2)
        gc.disable()
        try:
            gates, walks = walk_setup(g, params)
            ref = weakref.ref(walks)
            b_generic(g, full_realization(g), params, SeedContext(0), gates=gates, walks=walks)
            del walks
            assert ref() is None
        finally:
            gc.enable()

    def test_monotone_without_extra_copies(self):
        # alpha = 0: each walk acts on copy 0 alone, so applications never
        # shrink the matching and levels only grow it
        g = complete_graph(4)
        params = BParams(alpha=0, walk_len=3, depth=3, margin=0.1, mis_budget=None)
        for seed in range(6):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            gates, walks = walk_setup(g, params)
            sizes = [
                len(b_generic(g, real, params, SeedContext(seed), r, gates=gates, walks=walks))
                for r in range(params.depth + 1)
            ]
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))


@st.composite
def memo_cases(draw, mis_budget):
    """A small graph, params, a reference table whose gates vary by vertex
    and level with the package's gates for it, a seed, and a run of
    (realization mask, level) calls."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    g = Graph.build(n, [(u, v, draw(st.sampled_from([0.3, 0.5, 1.0]))) for u, v in sorted(chosen)])
    alpha = draw(st.integers(0, 1))
    params = BParams(
        alpha=alpha, walk_len=draw(st.integers(1, 3 - alpha)), depth=draw(st.integers(1, 3)),
        margin=0.1, mis_budget=mis_budget,
    )
    rows = [(0.0,) * n] + [
        tuple(draw(st.sampled_from([0.0, 0.5, 0.95])) for _ in range(n))
        for _ in range(params.depth)
    ]
    table = UnsaturationTable((1.0,) * n, tuple(rows))
    walks = WalkIndex(g, params.walk_len, params.alpha)
    ctx = SeedContext(draw(st.integers(0, 2**16))).child("alg")
    calls = draw(st.lists(
        st.tuples(st.integers(0, 2**g.m - 1), st.integers(0, params.depth)),
        min_size=2, max_size=4,
    ))
    return g, params, table, table_gates(table, params.margin), walks, ctx, calls


def smallest_ceiling(run) -> int:
    """The least node ceiling under which ``run()`` succeeds, patched in
    as ``NODE_CEILING``."""

    def ok(ceiling):
        with patch.object(hyperwalk, "NODE_CEILING", ceiling):
            try:
                run()
            except ResourceGuard:
                return False
        return True

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestSeedMemo:
    """Calls sharing one memo against the parent b_generic
    (``oracles.b_generic_v0``) called fresh each time."""

    @pytest.mark.parametrize("mis_budget", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_shared_memo_matches_fresh_parent(self, mis_budget, data):
        g, params, table, gates, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        memo = SeedMemo()
        for mask, level in calls:
            got = b_generic(g, mask, params, ctx, level, gates=gates, walks=walks, memo=memo)
            assert got == b_generic_v0(g, Realization(g, mask), params, ctx, level, table, walks)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_smallest_ceiling_same_warm_and_cold(self, data):
        budget = data.draw(st.sampled_from([None, 1]))
        g, params, _, gates, walks, ctx, calls = data.draw(memo_cases(budget))
        warm = SeedMemo()
        for mask, level in calls:
            b_generic(g, mask, params, ctx, level, gates=gates, walks=walks, memo=warm)
        for mask, level in calls:
            def call(memo):
                return lambda: b_generic(
                    g, mask, params, ctx, level, gates=gates, walks=walks, memo=memo
                )

            cold = smallest_ceiling(lambda: call(SeedMemo())())
            assert smallest_ceiling(call(warm)) == cold

    def test_plain_call_derives_each_tape_once(self, monkeypatch):
        paths = Counter()
        original = SeedContext.__post_init__

        def recording(self, *args):
            paths[self.path] += 1
            return original(self, *args)

        monkeypatch.setattr(SeedContext, "__post_init__", recording)
        g = complete_graph(4)
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=2)
        ctx = SeedContext(5).child("alg")
        for seed in range(3):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            gates, walks = walk_setup(g, params)
            paths.clear()
            b_generic(g, real, params, ctx, gates=gates, walks=walks)
            tapes = [n for path, n in paths.items() if path[-3:-1] == ("tape", "edge")]
            assert tapes and max(tapes) == 1

    def test_memo_refuses_another_scope(self):
        g = path_graph(3)
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=None)
        gates = open_gates(g.n, 2, params.margin)
        walks = WalkIndex(g, params.walk_len, params.alpha)
        real = full_realization(g)
        ctx = SeedContext(1).child("alg")
        memo = SeedMemo()
        b_generic(g, real, params, ctx, gates=gates, walks=walks, memo=memo)
        # an equal context is the same seed
        b_generic(g, real, params, SeedContext(1).child("alg"), gates=gates, walks=walks, memo=memo)
        others = [
            (params, SeedContext(2).child("alg"), gates, walks),
            (replace(params, mis_budget=1), ctx, gates, walks),
            (params, ctx, open_gates(g.n, 3, params.margin), walks),
            (params, ctx, gates, WalkIndex(g, params.walk_len, params.alpha)),
        ]
        for p, c, t, w in others:
            with pytest.raises(ValueError, match="another"):
                b_generic(g, real, p, c, gates=t, walks=w, memo=memo)


def counting_engines(monkeypatch) -> list:
    """Patches ``hyperwalk._Engine`` to log every engine a query starts."""
    started = []

    class Counting(hyperwalk._Engine):
        def __init__(self, lca, oracle) -> None:
            started.append(oracle.root)
            super().__init__(lca, oracle)

    monkeypatch.setattr(hyperwalk, "_Engine", Counting)
    return started


class TestQueryReplay:
    """Queries under one ``SeedMemo``: a repeated (realization, root)
    query replays its probes and returns the answer and node count of a
    fresh query."""

    @pytest.mark.parametrize("mis_budget", [None, 1])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_replay_equals_fresh_query(self, mis_budget, data):
        g, params, _, gates, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        masks = [mask for mask, _ in calls] * 2
        memo = SeedMemo()
        tapes = TapeTable(ctx, g)  # one table for every query under the memo
        with pytest.MonkeyPatch.context() as mp:
            engines = counting_engines(mp)
            for mask in masks:
                shared = BMatchingLca(g, params, mask, gates, walks, memo)
                fresh = BMatchingLca(g, params, mask, gates, walks)
                for e in range(g.m):
                    out, trace = run_lca(shared, g, ctx, Site("edge", e), tapes)
                    want, want_trace = run_lca(fresh, g, ctx, Site("edge", e), TapeTable(ctx, g))
                    assert out == want
                    assert trace.probed == want_trace.probed
                    assert trace.meta == want_trace.meta
        # one engine per fresh query, plus one per distinct memo query
        assert len(engines) == len(masks) * g.m + len(set(masks)) * g.m
        assert len(memo.queries) == len(set(masks)) * g.m

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_smallest_ceiling_same_replayed_and_fresh(self, data):
        g, params, _, gates, walks, ctx, calls = data.draw(memo_cases(None))
        mask = calls[0][0]
        warm = SeedMemo()
        root = Site("edge", data.draw(st.integers(0, g.m - 1)))
        run_lca(BMatchingLca(g, params, mask, gates, walks, warm), g, ctx, root, TapeTable(ctx, g))

        def query(memo):
            lca = BMatchingLca(g, params, mask, gates, walks, memo)
            return lambda: run_lca(lca, g, ctx, root, TapeTable(ctx, g))

        assert smallest_ceiling(query(warm)) == smallest_ceiling(query(None))

    def test_replay_refuses_another_scope(self):
        g = path_graph(3)
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=None)
        real = full_realization(g)
        memo = SeedMemo()
        lca = BMatchingLca(g, params, real, memo=memo)
        ctx, ctx2 = SeedContext(1).child("alg"), SeedContext(2).child("alg")
        run_lca(lca, g, ctx, Site("edge", 0), TapeTable(ctx, g))
        with pytest.raises(ValueError, match="another"):
            run_lca(lca, g, ctx2, Site("edge", 0), TapeTable(ctx2, g))
        # the gates fold in the margin: one of 1 or more shuts them all
        other = BMatchingLca(g, replace(params, margin=1.5), real, memo=memo)
        with pytest.raises(ValueError, match="another"):
            run_lca(other, g, ctx, Site("edge", 0), TapeTable(ctx, g))


@st.composite
def table_cases(draw):
    """A small graph, its walk index at alpha 0..2, and per copy an
    arbitrary realization mask and matching edge set, with endpoint
    gates drawn per vertex.  A matching set is either arbitrary (so a
    vertex may hold several matched edges) or a matching, without which
    no walk that removes an edge is ever valid."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    g = Graph.build(n, [(u, v, 0.5) for u, v in sorted(chosen)])
    alpha = draw(st.integers(0, 2))
    walks = WalkIndex(g, draw(st.integers(1, 3)), alpha)
    full = (1 << g.m) - 1

    def matching_set() -> frozenset:
        edges = draw(st.lists(st.integers(0, g.m - 1), unique=True))
        if draw(st.booleans()):
            return frozenset(edges)
        covered, kept = set(), set()
        for e in edges:
            ends = g.endpoints(e)
            if covered.isdisjoint(ends):
                kept.add(e)
                covered.update(ends)
        return frozenset(kept)

    copies = tuple(
        (
            Realization(g, draw(st.one_of(st.just(full), st.integers(0, full)))),
            matching_set(),
        )
        for _ in range(alpha + 1)
    )
    row = tuple(draw(st.sampled_from([0.0, 0.95])) for _ in range(n))
    table = UnsaturationTable((1.0,) * n, ((0.0,) * n, row))
    return Profile(copies), walks, table


def select_v1(reals, matches, walks, gate, params, rank, guard):
    """``oracles._select_walks_v1`` behind the signature of
    ``_select_walks``: the copies' masks go in as a profile, and the gate
    as the one row of a table that the reference reads at level 1."""
    table = gate_table((gate,), walks.g.n)
    profile = mask_profile(walks.g, reals, matches)
    return _select_walks_v1(profile, walks, table, params, 1, rank, guard)


class TestWalkTable:
    """The bitmask selection in ``_select_walks`` against the per-edge
    predicate it replaced (``oracles.is_augmenting``) and the parent
    selection (``oracles._select_walks_v1``)."""

    @given(case=table_cases())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_equal_is_augmenting(self, case):
        profile, walks, table = case
        margin = 0.1
        ticks = []
        got = _valid_walks(
            walks,
            [real.present for real, _ in profile.pairs],
            [sum(1 << e for e in matching) for _, matching in profile.pairs],
            sum(1 << v for v in range(walks.g.n) if table.unsaturated(v, 1, margin)),
            lambda: ticks.append(1),
        )
        want = [
            w for w in walks.all_walks()
            if is_augmenting(profile, hyperwalk_of(walks, w), table, 1, margin)
        ]
        assert got == want
        assert len(ticks) == len(walks.all_walks())

    def test_second_matched_edge_blocks(self):
        # path 0-1-2-3 with a pendant edge 1-4 matched beside edge 1-2:
        # the walk (0-1, 1-2, 2-3) leaves vertex 1 with two matched edges
        # although every vertex's degree change is the required one
        g = Graph.build(5, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 4, 0.5)])
        walks = WalkIndex(g, 3, 0)
        w = Hyperwalk.make((0, 1, 2), (0, 0, 0))
        profile = profile_noalpha(g, full_realization(g), {1, 3})
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        got = _valid_walks(walks, [(1 << g.m) - 1], [0b1010], (1 << g.n) - 1, lambda: None)
        assert w not in [hyperwalk_of(walks, i) for i in got]
        assert not is_augmenting(profile, w, table, 0, margin=0.1)

    def test_removal_frees_inner_vertices(self):
        # path 0-1-2-3 with edge 1-2 matched: the walk (0-1, 1-2, 2-3)
        # swaps it for the two outer edges, so vertices 1 and 2 keep one
        # matched edge each only because 1-2 leaves
        g = path_graph(3)
        walks = WalkIndex(g, 3, 0)
        w = Hyperwalk.make((0, 1, 2), (0, 0, 0))
        profile = profile_noalpha(g, full_realization(g), {1})
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        got = _valid_walks(walks, [full_realization(g)], [0b010], (1 << g.n) - 1, lambda: None)
        assert w in [hyperwalk_of(walks, i) for i in got]
        assert is_augmenting(profile, w, table, 0, margin=0.1)

    def test_ids_follow_all_walks(self, monkeypatch):
        # with every open walk accepted, the selection's candidates are
        # all_walks() in its order, closed walks dropped
        monkeypatch.setattr(hyperwalk, "_augments", lambda w, *args: w.ends != 0)
        g = complete_graph(4)
        walks = WalkIndex(g, 3, 1)
        full = (1 << g.m) - 1
        got = _valid_walks(walks, [full, full], [0, 0], (1 << g.n) - 1, lambda: None)
        assert got == [i for i in walks.all_walks() if walks.records[i].ends]
        assert len(got) < len(walks.all_walks())
        rec = walks.records[got[0]]
        w = hyperwalk_of(walks, got[0])
        u, v = g.endpoints(w.edges[0])
        assert (rec.ends, rec.copies) == ((1 << u) | (1 << v), ((0, 1 << w.edges[0], 0),))
        assert rec.vertices == tuple(
            (x, sum(1 << e for e in g.incident(x)), 1) for x in (u, v)
        )

    @pytest.mark.parametrize("mis_budget", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_selection_equals_parent(self, mis_budget, data):
        g, params, table, gates, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        select = hyperwalk._select_walks
        selections = []

        def both(reals, matches, walks, gate, params, rank, guard):
            new, old = _Guard(), _Guard()
            got = select(reals, matches, walks, gate, params, rank, new)
            want = select_v1(reals, matches, walks, gate, params, rank, old)
            assert got == want
            assert new.nodes == old.nodes
            selections.append(got)
            guard.tick(new.nodes)
            return got

        def run(selection, mask, level):
            def call():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hyperwalk, "_select_walks", selection)
                    return b_generic(g, mask, params, ctx, level, gates=gates, walks=walks)
            return call

        for mask, level in calls:
            real = Realization(g, mask)
            want = b_generic_v0(g, real, params, ctx, level, table, walks)
            assert run(both, mask, level)() == want
            assert run(select, mask, level)() == want
            assert smallest_ceiling(run(select, mask, level)) == smallest_ceiling(
                run(select_v1, mask, level)
            )
        assert len(selections) >= len([lvl for _, lvl in calls if lvl > 0])

    @pytest.mark.parametrize("edges", [[(0, 1, 0.5), (1, 2, 0.5)], []])
    def test_missing_level_raises_as_parent(self, edges):
        # gates and table cover levels 0 and 1, so a level-3 call reads
        # the missing level 2.  Both routes refuse the gates at entry; the
        # parent raised at the first read, so on a graph without walks it
        # read no row and returned the empty matching
        g = Graph.build(3, edges)
        params = BParams(alpha=1, walk_len=2, depth=3, margin=0.1, mis_budget=None)
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        gates = table_gates(table, params.margin)
        ctx = SeedContext(3).child("alg")
        real = full_realization(g)
        with pytest.raises(ValueError, match="no gate for level 2"):
            b_generic(g, real, params, ctx, gates=gates, walks=walk_setup(g, params)[1])
        with pytest.raises(ValueError, match="no gate for level 2"):
            BMatchingLca(g, params, real, gates)
        if edges:
            with pytest.raises(ValueError, match="no marginals for level 2"):
                b_generic_v0(g, Realization(g, real), params, ctx, None, table)
        else:
            assert b_generic_v0(g, Realization(g, real), params, ctx, None, table) == frozenset()

    def test_unresolved_member_raises(self, monkeypatch):
        monkeypatch.setattr(hyperwalk, "greedy_member", lambda *args: (False, False, 1))
        g = path_graph(2)
        params = BParams(alpha=0, walk_len=2, depth=1, margin=0.1, mis_budget=1)
        gates, walks = walk_setup(g, params)
        with pytest.raises(RuntimeError, match=r"sweep member with edges \(0,\) and copies \(0,\)"):
            b_generic(g, full_realization(g), params, SeedContext(0), gates=gates, walks=walks)


class TestBParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BParams(alpha=-1, walk_len=2, depth=1, margin=0.1, mis_budget=None)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=0, depth=1, margin=0.1, mis_budget=None)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=2, depth=1, margin=-0.1, mis_budget=None)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=2, depth=1, margin=0.1, mis_budget=0)

    def test_preset_arithmetic(self):
        p = bparams_from_eps(0.5, conflict_degree=4)
        assert p.alpha == 127
        assert p.walk_len == 4
        assert p.depth == 512
        assert p.margin == pytest.approx(0.5)
        assert p.mis_budget == 128


@st.composite
def gate_cases(draw):
    """Targets and per-level marginals on a few vertices, drawn from a
    small grid so that ties with the margin occur, and a margin that may
    shut every gate."""
    n = draw(st.integers(0, 6))
    grid = st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.6, 0.95, 1.0])
    a_prob = tuple(draw(grid) for _ in range(n))
    rows = tuple(tuple(draw(grid) for _ in range(n)) for _ in range(draw(st.integers(0, 4))))
    margin = draw(st.sampled_from([0.0, 0.1, 0.4, 0.5, 0.9, 1.0, 1.5]))
    return a_prob, rows, margin


class TestUnsaturationTable:
    """The gates against the per-vertex table they replaced
    (``oracles.UnsaturationTable``)."""

    def test_level_zero_row_is_zero(self):
        # the level-0 marginals are zeros, so gate 0 opens every vertex
        # whose target exceeds the margin
        g = path_graph(1)
        gates = build_unsaturation_table(
            g, replace(SMALL_PARAMS, depth=2), samples=20, ctx=SeedContext(0), a_prob=[1.0, 0.05],
            walks=walk_setup(g, SMALL_PARAMS)[1],
        )
        assert len(gates) == 2
        assert gates[0] == 0b01
        assert 0 <= gates[1] < 1 << g.n

    def test_gate_logic(self):
        gates = gate_masks((0.6, 0.2), ((0.0, 0.0), (0.5, 0.1)), margin=0.1)
        assert gates == (0b11, 0)  # 0.5 >= 0.6 - 0.1 and 0.1 >= 0.2 - 0.1
        g, params = path_graph(1), replace(SMALL_PARAMS, depth=3)
        with pytest.raises(ValueError, match="no gate for level 2"):
            b_generic(g, 1, params, SeedContext(0), gates=gates, walks=walk_setup(g, params)[1])

    def test_factories(self):
        assert open_gates(3, 2, 0.5) == (0b111, 0b111)
        assert open_gates(3, 2, 1.0) == (0, 0)
        assert open_gates(3, 0, 0.5) == ()
        assert table_gates(never_unsaturated(3, 2), 0.0) == (0, 0, 0)

    @given(case=gate_cases())
    @settings(max_examples=200, deadline=None)
    def test_gate_bits_equal_unsaturated(self, case):
        a_prob, rows, margin = case
        gates = gate_masks(a_prob, rows, margin)
        table = UnsaturationTable(a_prob, rows)
        assert len(gates) == len(rows)
        for level, gate in enumerate(gates):
            assert gate >> len(a_prob) == 0
            for v in range(len(a_prob)):
                assert (gate >> v & 1 == 1) == table.unsaturated(v, level, margin)

    @given(
        n=st.integers(0, 6),
        levels=st.integers(0, 4),
        margin=st.sampled_from([0.0, 0.3, 0.99, 1.0, 1.5]),
    )
    @settings(max_examples=50, deadline=None)
    def test_open_gates_equal_always_unsaturated(self, n, levels, margin):
        table = UnsaturationTable.always_unsaturated(n, levels)
        assert open_gates(n, levels, margin) == table_gates(table, margin)[:levels]


class TestLcaRoute:
    def test_agrees_with_generic_small(self):
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=None)
        for seed in range(12):
            g = complete_graph(4)
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            ctx = SeedContext(seed).child("alg")
            gates, walks = walk_setup(g, params)
            want = b_generic(g, real, params, ctx, gates=gates, walks=walks)
            lca = BMatchingLca(g, params, real)
            got = matching_via_queries(lca, ctx)
            assert got == want

    def test_run_is_instrumented(self):
        g = path_graph(2)
        params = BParams(alpha=0, walk_len=2, depth=1, margin=0.1, mis_budget=None)
        real = full_realization(g)
        lca = BMatchingLca(g, params, real)
        ctx = SeedContext(4).child("alg")
        out, trace = run_lca(lca, g, ctx, Site("edge", 0), TapeTable(ctx, g))
        gates, walks = walk_setup(g, params)
        assert out == (0 in b_generic(g, real, params, ctx, gates=gates, walks=walks))
        assert Site("edge", 0) in trace.out_queries

    def test_rejects_mask_outside_graph(self):
        g = path_graph(2)
        params = BParams(alpha=0, walk_len=2, depth=1, margin=0.1, mis_budget=None)
        for mask in (-1, 1 << g.m):
            with pytest.raises(ValueError, match="outside"):
                BMatchingLca(g, params, mask)
        BMatchingLca(g, params, full_realization(g))

    def test_validity_matches_parent(self):
        # the query route decides validity through the predicate it shares
        # with b_generic; against the accessor predicate it used before
        # (oracles.BMatchingLcaV1), answers, probe order and node counts
        # stay the same
        for name, g, kw in B_CORPUS:
            for mis_budget in (None, 1, 3, 6):
                params = BParams(margin=0.1, **dict(kw, mis_budget=mis_budget))
                for seed in range(3):
                    real = sample_realization(g, SeedContext(seed).child("real"), 0)
                    ctx = SeedContext(seed).child("alg")
                    lca = BMatchingLca(g, params, real)
                    old_lca = BMatchingLcaV1(g, params, real)
                    for e in range(g.m):
                        out, trace = run_lca(lca, g, ctx, Site("edge", e), TapeTable(ctx, g))
                        old, old_trace = run_lca(old_lca, g, ctx, Site("edge", e), TapeTable(ctx, g))
                        assert out == old, name
                        assert trace.probed == old_trace.probed, name
                        assert trace.meta["nodes"] == old_trace.meta["nodes"], name

    def test_out_query_ceiling_dominates(self):
        g = path_graph(2)
        params = BParams(alpha=1, walk_len=2, depth=2, margin=0.1, mis_budget=None)
        walks = WalkIndex(g, params.walk_len, params.alpha)
        ceiling = out_query_ceiling(g, walks, params, params.depth)
        real = full_realization(g)
        lca = BMatchingLca(g, params, real)
        for seed in range(10):
            ctx = SeedContext(seed).child("alg")
            for e in range(g.m):
                _, trace = run_lca(lca, g, ctx, Site("edge", e), TapeTable(ctx, g))
                assert len(trace.out_queries) <= ceiling
