import pickle
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _select_walks_v1,
    b_generic_v0,
    bparams_from_eps,
    complete_graph,
    cycle_graph,
    degree_in_profile,
    enumerate_hyperwalks,
    enumerate_hyperwalks_containing,
    hyperwalk_reference_set,
    is_augmenting,
    is_matching,
    matching_via_queries,
    never_unsaturated,
    out_query_ceiling,
    path_graph,
    validate_profile,
    validating_applications,
)
from stochmatch import hyperwalk
from stochmatch.graph import Graph, Realization, SeedContext, sample_realization
from stochmatch.hyperwalk import (
    BMatchingLca,
    BParams,
    EnumerationTooLarge,
    Hyperwalk,
    Profile,
    ResourceGuard,
    SeedMemo,
    UnsaturationTable,
    WalkIndex,
    _Guard,
    _valid_walks,
    apply_hyperwalk,
    b_generic,
    build_unsaturation_table,
    walk_vertices,
)
from stochmatch.lca import Site, run_lca


def star_graph(leaves, p=0.5):
    return Graph.build(leaves + 1, [(0, i, p) for i in range(1, leaves + 1)])


def full_realization(g):
    return Realization(g, (1 << g.m) - 1)


def profile_noalpha(g, mask, matching=frozenset()):
    return Profile(((Realization(g, mask), frozenset(matching)),))


SMALL_PARAMS = BParams(alpha=0, walk_len=2, depth=1, eps=0.3, margin=0.1)


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
        assert len(enumerate_hyperwalks_containing(g, Site.edge(0), 1, 0)) == 1
        assert len(enumerate_hyperwalks_containing(g, Site.edge(0), 1, 2)) == 3

    def test_two_path_middle_vertex(self):
        g = path_graph(2)
        walks = enumerate_hyperwalks_containing(g, Site.vertex(1), 2, 0)
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
            got = set(enumerate_hyperwalks_containing(g, Site.vertex(v), 3, 1))
            want = {w for w in allwalks if v in walk_vertices(g, w.edges)}
            assert got == want
        for e in range(g.m):
            got = set(enumerate_hyperwalks_containing(g, Site.edge(e), 3, 1))
            assert got == {w for w in allwalks if e in w.edges}

    def test_ceiling_guard(self):
        g = complete_graph(5)
        with pytest.raises(EnumerationTooLarge):
            enumerate_hyperwalks(g, 5, 3, ceiling=500)


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
        real = full_realization(g)
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
        real = full_realization(g)
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
        real = full_realization(g)
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
        got = b_generic(g, full_realization(g), SMALL_PARAMS, SeedContext(0), level=0)
        assert got == frozenset()

    def test_single_realized_edge(self):
        g = path_graph(1)
        got = b_generic(g, full_realization(g), SMALL_PARAMS, SeedContext(0), level=1)
        assert got == frozenset({0})

    def test_path_maximal_matching(self):
        g = path_graph(3)
        for seed in range(10):
            got = b_generic(
                g, full_realization(g), SMALL_PARAMS, SeedContext(seed), level=1
            )
            assert is_matching(g, got)
            assert got in (frozenset({0, 2}), frozenset({1}))

    def test_output_within_realization(self):
        g = complete_graph(4)
        for seed in range(8):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            got = b_generic(g, real, SMALL_PARAMS, SeedContext(seed), level=1)
            assert is_matching(g, got)
            assert all(real.has(e) for e in got)

    def test_check_mode_validates_intermediates(self):
        g = complete_graph(4)
        params = BParams(alpha=1, walk_len=3, depth=2, eps=0.3, margin=0.1)
        for seed in range(4):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            with validating_applications():
                loud = b_generic(g, real, params, SeedContext(seed))
            quiet = b_generic(g, real, params, SeedContext(seed))
            assert loud == quiet

    def test_validating_wrapper_catches_collisions(self, monkeypatch):
        # a mutant application that also adds a realized edge beside each
        # matched copy-0 edge must not get past the wrapper
        apply = hyperwalk.apply_hyperwalk

        def colliding(p, w):
            out = apply(p, w)
            real, matching = out.pairs[0]
            g = out.graph
            extra = {f for e in matching for f in g.incident(g.endpoints(e)[0]) if real.has(f)}
            return Profile(((real, matching | extra),) + out.pairs[1:])

        monkeypatch.setattr(hyperwalk, "apply_hyperwalk", colliding)
        g = complete_graph(4)
        with validating_applications():
            with pytest.raises(ValueError, match="collide"):
                b_generic(g, full_realization(g), SMALL_PARAMS, SeedContext(0))

    def test_monotone_without_extra_copies(self):
        # alpha = 0: each walk acts on copy 0 alone, so applications never
        # shrink the matching and levels only grow it
        g = complete_graph(4)
        params = BParams(alpha=0, walk_len=3, depth=3, eps=0.3, margin=0.1)
        for seed in range(6):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            sizes = [
                len(b_generic(g, real, params, SeedContext(seed), level=r))
                for r in range(params.depth + 1)
            ]
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))


@st.composite
def memo_cases(draw, mis_budget):
    """A small graph, params, a table with gates that vary by vertex and
    level, a seed, and a run of (realization mask, level) calls."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    g = Graph.build(n, [(u, v, draw(st.sampled_from([0.3, 0.5, 1.0]))) for u, v in sorted(chosen)])
    alpha = draw(st.integers(0, 1))
    params = BParams(
        alpha=alpha, walk_len=draw(st.integers(1, 3 - alpha)), depth=draw(st.integers(1, 3)),
        eps=0.3, margin=0.1, mis_budget=mis_budget,
    )
    rows = [(0.0,) * n] + [
        tuple(draw(st.sampled_from([0.0, 0.5, 0.95])) for _ in range(n))
        for _ in range(params.depth)
    ]
    table = UnsaturationTable((1.0,) * n, tuple(rows), 1)
    walks = WalkIndex(g, params.walk_len, params.alpha)
    ctx = SeedContext(draw(st.integers(0, 2**16))).child("alg")
    calls = draw(st.lists(
        st.tuples(st.integers(0, 2**g.m - 1), st.integers(0, params.depth)),
        min_size=2, max_size=4,
    ))
    return g, params, table, walks, ctx, calls


def smallest_ceiling(run) -> int:
    """The least node ceiling under which ``run(ceiling)`` succeeds."""

    def ok(ceiling):
        try:
            run(ceiling)
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
        g, params, table, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        memo = SeedMemo()
        for mask, level in calls:
            real = Realization(g, mask)
            got = b_generic(g, real, params, ctx, level, table, walks, memo)
            assert got == b_generic_v0(g, real, params, ctx, level, table, walks)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_smallest_ceiling_same_warm_and_cold(self, data):
        budget = data.draw(st.sampled_from([None, 1]))
        g, params, table, walks, ctx, calls = data.draw(memo_cases(budget))
        warm = SeedMemo()
        for mask, level in calls:
            b_generic(g, Realization(g, mask), params, ctx, level, table, walks, warm)
        for mask, level in calls:
            real = Realization(g, mask)

            def call(memo):
                return lambda c: b_generic(
                    g, real, replace(params, node_ceiling=c), ctx, level, table, walks, memo
                )

            cold = smallest_ceiling(lambda c: call(SeedMemo())(c))
            assert smallest_ceiling(call(warm)) == cold

    def test_plain_call_derives_each_tape_once(self, monkeypatch):
        paths = Counter()
        original = SeedContext.__post_init__

        def recording(self, *args):
            paths[self.path] += 1
            return original(self, *args)

        monkeypatch.setattr(SeedContext, "__post_init__", recording)
        g = complete_graph(4)
        params = BParams(alpha=1, walk_len=2, depth=2, eps=0.3, margin=0.1, mis_budget=2)
        ctx = SeedContext(5).child("alg")
        for seed in range(3):
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            paths.clear()
            b_generic(g, real, params, ctx)
            tapes = [n for path, n in paths.items() if path[-3:-1] == ("tape", "edge")]
            assert tapes and max(tapes) == 1

    def test_memo_refuses_another_scope(self):
        g = path_graph(3)
        params = BParams(alpha=1, walk_len=2, depth=2, eps=0.3, margin=0.1)
        table = UnsaturationTable.always_unsaturated(g.n, 2)
        walks = WalkIndex(g, params.walk_len, params.alpha)
        real = full_realization(g)
        ctx = SeedContext(1).child("alg")
        memo = SeedMemo()
        b_generic(g, real, params, ctx, None, table, walks, memo)
        # the guard's ceiling is no part of the scope, and an equal context is the same seed
        b_generic(g, real, replace(params, node_ceiling=10**6), SeedContext(1).child("alg"),
                  None, table, walks, memo)
        others = [
            (params, SeedContext(2).child("alg"), table, walks),
            (replace(params, mis_budget=1), ctx, table, walks),
            (params, ctx, UnsaturationTable.always_unsaturated(g.n, 3), walks),
            (params, ctx, table, WalkIndex(g, params.walk_len, params.alpha)),
        ]
        for p, c, t, w in others:
            with pytest.raises(ValueError, match="another"):
                b_generic(g, real, p, c, None, t, w, memo)


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
        g, params, table, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        masks = [mask for mask, _ in calls] * 2
        memo = SeedMemo()
        with pytest.MonkeyPatch.context() as mp:
            engines = counting_engines(mp)
            for mask in masks:
                real = Realization(g, mask)
                shared = BMatchingLca(g, params, real, table, walks, memo)
                fresh = BMatchingLca(g, params, real, table, walks)
                for e in range(g.m):
                    out, trace = run_lca(shared, g, ctx, Site.edge(e), memo.tapes)
                    want, want_trace = run_lca(fresh, g, ctx, Site.edge(e))
                    assert out == want
                    assert trace.probed == want_trace.probed
                    assert trace.meta == want_trace.meta
        # one engine per fresh query, plus one per distinct memo query
        assert len(engines) == len(masks) * g.m + len(set(masks)) * g.m
        assert len(memo.queries) == len(set(masks)) * g.m

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_smallest_ceiling_same_replayed_and_fresh(self, data):
        g, params, table, walks, ctx, calls = data.draw(memo_cases(None))
        mask = calls[0][0]
        real = Realization(g, mask)
        warm = SeedMemo()
        root = Site.edge(data.draw(st.integers(0, g.m - 1)))
        run_lca(BMatchingLca(g, params, real, table, walks, warm), g, ctx, root)

        def query(memo):
            return lambda c: run_lca(
                BMatchingLca(g, replace(params, node_ceiling=c), real, table, walks, memo),
                g, ctx, root,
            )

        assert smallest_ceiling(query(warm)) == smallest_ceiling(query(None))

    def test_replay_refuses_another_scope(self):
        g = path_graph(3)
        params = BParams(alpha=1, walk_len=2, depth=2, eps=0.3, margin=0.1)
        real = full_realization(g)
        memo = SeedMemo()
        lca = BMatchingLca(g, params, real, memo=memo)
        run_lca(lca, g, SeedContext(1).child("alg"), Site.edge(0))
        with pytest.raises(ValueError, match="another"):
            run_lca(lca, g, SeedContext(2).child("alg"), Site.edge(0))
        other = BMatchingLca(g, replace(params, margin=0.2), real, memo=memo)
        with pytest.raises(ValueError, match="another"):
            run_lca(other, g, SeedContext(1).child("alg"), Site.edge(0))


@st.composite
def table_cases(draw):
    """A small graph, its walk index at alpha 0..2, and per copy an
    arbitrary realization mask and matching edge set (so a vertex may
    hold several matched edges), with endpoint gates drawn per vertex."""
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    g = Graph.build(n, [(u, v, 0.5) for u, v in sorted(chosen)])
    alpha = draw(st.integers(0, 2))
    walks = WalkIndex(g, draw(st.integers(1, 3)), alpha)
    full = (1 << g.m) - 1
    copies = tuple(
        (
            Realization(g, draw(st.one_of(st.just(full), st.integers(0, full)))),
            frozenset(draw(st.sets(st.integers(0, g.m - 1)))),
        )
        for _ in range(alpha + 1)
    )
    row = tuple(draw(st.sampled_from([0.0, 0.95])) for _ in range(n))
    table = UnsaturationTable((1.0,) * n, ((0.0,) * n, row), 1)
    return Profile(copies), walks, table


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
            walks.walk_table(),
            [real.present for real, _ in profile.pairs],
            [sum(1 << e for e in matching) for _, matching in profile.pairs],
            profile.alpha,
            lambda: sum(1 << v for v in range(walks.g.n) if table.unsaturated(v, 1, margin)),
            lambda: ticks.append(1),
        )
        want = [w for w in walks.all_walks() if is_augmenting(profile, w, table, 1, margin)]
        assert got == want
        assert len(ticks) == len(walks.all_walks())

    def test_second_matched_edge_blocks(self):
        # path 0-1-2-3 with a pendant edge 1-4 matched beside edge 1-2:
        # the walk (0-1, 1-2, 2-3) leaves vertex 1 with two matched edges
        # although every vertex's degree change is the required one
        g = Graph.build(5, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 4, 0.5)])
        walks = WalkIndex(g, 3, 0)
        w = Hyperwalk.make((0, 1, 2), (0, 0, 0))
        profile = Profile(((full_realization(g), frozenset({1, 3})),))
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        got = _valid_walks(
            walks.walk_table(), [(1 << g.m) - 1], [0b1010], 0, lambda: (1 << g.n) - 1, lambda: None
        )
        assert w not in got
        assert not is_augmenting(profile, w, table, 0, margin=0.1)

    def test_rows_follow_all_walks(self):
        g = complete_graph(4)
        walks = WalkIndex(g, 3, 1)
        rows = walks.walk_table()
        assert walks.walk_table() is rows
        assert tuple(row[0] for row in rows) == walks.all_walks()
        w, ends, top, copies, vertices = rows[0]
        u, v = g.endpoints(w.edges[0])
        assert (ends, top, copies) == ((1 << u) | (1 << v), 0, ((0, 1 << w.edges[0], 0),))
        assert vertices == tuple((sum(1 << e for e in g.incident(x)), 1) for x in (u, v))

    @pytest.mark.parametrize("mis_budget", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_selection_equals_parent(self, mis_budget, data):
        g, params, table, walks, ctx, calls = data.draw(memo_cases(mis_budget))
        select = hyperwalk._select_walks
        selections = []

        def both(profile, walks, table, params, level, rank, guard):
            new, old = _Guard(0), _Guard(0)
            got = select(profile, walks, table, params, level, rank, new)
            want = _select_walks_v1(profile, walks, table, params, level, rank, old)
            assert got == want
            assert new.nodes == old.nodes
            selections.append(got)
            guard.tick(new.nodes)
            return got

        def run(selection, mask, level):
            def call(ceiling):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hyperwalk, "_select_walks", selection)
                    return b_generic(
                        g, Realization(g, mask), replace(params, node_ceiling=ceiling),
                        ctx, level, table, walks,
                    )
            return call

        for mask, level in calls:
            real = Realization(g, mask)
            want = b_generic_v0(g, real, params, ctx, level, table, walks)
            assert run(both, mask, level)(0) == want
            assert run(select, mask, level)(0) == want
            assert smallest_ceiling(run(select, mask, level)) == smallest_ceiling(
                run(_select_walks_v1, mask, level)
            )
        assert len(selections) >= len([lvl for _, lvl in calls if lvl > 0])

    @pytest.mark.parametrize("edges", [[(0, 1, 0.5), (1, 2, 0.5)], []])
    def test_missing_level_raises_as_parent(self, edges):
        # the table has rows for levels 0 and 1, so a level-3 call reads
        # the missing row 2; a graph without walks reads no row at all
        g = Graph.build(3, edges)
        params = BParams(alpha=1, walk_len=2, depth=3, eps=0.3, margin=0.1)
        table = UnsaturationTable.always_unsaturated(g.n, 1)
        ctx = SeedContext(3).child("alg")

        def outcome(selection):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hyperwalk, "_select_walks", selection)
                try:
                    return b_generic(g, full_realization(g), params, ctx, None, table)
                except ValueError as exc:
                    return str(exc)

        got = outcome(hyperwalk._select_walks)
        assert got == outcome(_select_walks_v1)
        assert got == ("no marginals for level 2" if edges else frozenset())

    def test_unresolved_member_raises(self, monkeypatch):
        monkeypatch.setattr(hyperwalk, "greedy_member", lambda *args: (False, False, 1))
        g = path_graph(2)
        params = BParams(alpha=0, walk_len=2, depth=1, eps=0.3, margin=0.1, mis_budget=1)
        with pytest.raises(RuntimeError, match="sweep member Hyperwalk"):
            b_generic(g, full_realization(g), params, SeedContext(0))


class TestBParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BParams(alpha=-1, walk_len=2, depth=1, eps=0.3, margin=0.1)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=0, depth=1, eps=0.3, margin=0.1)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=2, depth=1, eps=1.5, margin=0.1)
        with pytest.raises(ValueError):
            BParams(alpha=0, walk_len=2, depth=1, eps=0.3, margin=0.1, mis_budget=0)

    def test_preset_arithmetic(self):
        p = bparams_from_eps(0.5, conflict_degree=4)
        assert p.alpha == 127
        assert p.walk_len == 4
        assert p.depth == 512
        assert p.margin == pytest.approx(0.5)
        assert p.mis_budget == 128


class TestUnsaturationTable:
    def test_level_zero_row_is_zero(self):
        g = path_graph(1)
        table = build_unsaturation_table(
            g, SMALL_PARAMS, level=1, samples=20, ctx=SeedContext(0), a_prob=[1.0, 1.0]
        )
        assert table.b_rows[0] == (0.0, 0.0)
        assert all(0.0 <= x <= 1.0 for x in table.b_rows[1])

    def test_gate_logic(self):
        table = UnsaturationTable((0.6, 0.2), ((0.0, 0.0), (0.5, 0.1)), 1)
        assert table.unsaturated(0, 0, margin=0.1)
        assert not table.unsaturated(0, 1, margin=0.1)  # 0.5 >= 0.6 - 0.1
        assert not table.unsaturated(1, 1, margin=0.1)
        with pytest.raises(ValueError):
            table.unsaturated(0, 5, margin=0.1)

    def test_factories(self):
        t = UnsaturationTable.always_unsaturated(3, 2)
        assert all(t.unsaturated(v, lvl, 0.5) for v in range(3) for lvl in range(3))
        t = never_unsaturated(3, 2)
        assert not any(t.unsaturated(v, lvl, 0.0) for v in range(3) for lvl in range(3))


class TestLcaRoute:
    def test_agrees_with_generic_small(self):
        params = BParams(alpha=1, walk_len=2, depth=2, eps=0.3, margin=0.1)
        for seed in range(12):
            g = complete_graph(4)
            real = sample_realization(g, SeedContext(seed).child("r"), 0)
            ctx = SeedContext(seed).child("alg")
            want = b_generic(g, real, params, ctx)
            lca = BMatchingLca(g, params, real)
            got = matching_via_queries(lca, ctx)
            assert got == want

    def test_run_is_instrumented(self):
        g = path_graph(2)
        params = BParams(alpha=0, walk_len=2, depth=1, eps=0.3, margin=0.1)
        real = full_realization(g)
        lca = BMatchingLca(g, params, real)
        ctx = SeedContext(4).child("alg")
        out, trace = run_lca(lca, g, ctx, Site.edge(0))
        assert out == (0 in b_generic(g, real, params, ctx))
        assert Site.edge(0) in trace.out_queries

    def test_out_query_ceiling_dominates(self):
        g = path_graph(2)
        params = BParams(alpha=1, walk_len=2, depth=2, eps=0.3, margin=0.1)
        walks = WalkIndex(g, params.walk_len, params.alpha, params.walk_ceiling)
        ceiling = out_query_ceiling(g, walks, params, params.depth)
        real = full_realization(g)
        lca = BMatchingLca(g, params, real)
        for seed in range(10):
            ctx = SeedContext(seed).child("alg")
            for e in range(g.m):
                _, trace = run_lca(lca, g, ctx, Site.edge(e))
                assert len(trace.out_queries) <= ceiling
