import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    MatcherV1,
    all_edges,
    blossom_violations_full,
    brute_matching_number,
    complete_graph,
    cycle_graph,
    gnp_graph,
    matching_number_v0,
    matching_number_v1,
    matching_size_expectation_exact,
    maximum_matching_v0,
    maximum_matching_v1,
    is_matching,
    path_graph,
    petersen_subgraph,
    vertex_load,
    violates_vertex_caps,
)
from stochmatch import matching
from stochmatch.graph import Graph, ResourceGuard, SeedContext, edge_mask, mask_edges
from stochmatch.matching import (
    ComponentMemo,
    _Matcher,
    FractionalMatching,
    check_blossom,
    fractional_size,
    matched_vertices,
    matching_number,
    maximum_matching,
)
from test_cli import GOLDEN_GRAPHS


def random_instance(seed: int, n: int = 9, edge_prob: float = 0.35) -> Graph:
    return gnp_graph(n, edge_prob, 0.5, SeedContext(seed).child("inst"))


class TestMaximumMatching:
    def test_triangle_size_one(self, triangle):
        assert len(maximum_matching(triangle, all_edges(triangle))) == 1

    def test_path3_forced(self, path3):
        # the only maximum matching of a 3-edge path: outer edges
        assert maximum_matching(path3, all_edges(path3)) == frozenset({0, 2})

    def test_c5_size_two(self):
        assert len(maximum_matching(cycle_graph(5), all_edges(cycle_graph(5)))) == 2

    def test_output_is_matching_within_active(self, triangle):
        got = maximum_matching(triangle, active=edge_mask([0, 1]))
        assert is_matching(triangle, got)
        assert got <= {0, 1}

    def test_purity(self):
        g = random_instance(3, n=12)
        first = maximum_matching(g, all_edges(g))
        assert all(maximum_matching(g, all_edges(g)) == first for _ in range(1000))

    @given(st.integers(0, 400))
    @settings(max_examples=120, deadline=None)
    def test_brute_force_equivalence(self, seed):
        g = random_instance(seed)
        got = maximum_matching(g, all_edges(g))
        assert is_matching(g, got)
        assert len(got) == brute_matching_number(g)

    def test_sparse_cost_follows_the_tree(self):
        # 5,000 disjoint edges on 50,000 vertices, one short search per
        # edge: a matcher that allocates n-sized state per search took
        # about 6 s (Python 3.11, 2-core Xeon), this one about 0.03 s
        g = Graph.build(50_000, [(2 * i, 2 * i + 1, 0.5) for i in range(5000)])
        t0 = time.monotonic()
        assert maximum_matching(g, all_edges(g)) == frozenset(range(5000))
        assert time.monotonic() - t0 < 2.0

    def test_matching_number_matches_set_size(self):
        for seed in range(30):
            g = random_instance(seed)
            assert matching_number(g, all_edges(g)) == len(maximum_matching(g, all_edges(g)))

    def test_active_subset(self):
        g = complete_graph(5)
        assert matching_number(g, active=edge_mask([])) == 0
        assert matching_number(g, active=edge_mask([0])) == 1


@pytest.fixture(scope="module")
def differential_corpus():
    graphs = [cycle_graph(n) for n in range(3, 10)]
    graphs += [complete_graph(5), petersen_subgraph(range(15))]
    graphs += [petersen_subgraph([e for e in range(15) if e != d]) for d in range(15)]
    for seed in range(250):
        n = 6 + seed % 25
        density = (0.15, 0.3, 0.45)[seed % 3]
        graphs.append(gnp_graph(n, density, 0.5, SeedContext(seed).child("diff")))
    return graphs


def sparse_gnp(n: int, seed: int, c: float = 3.0) -> Graph:
    """G(n, c/n), by geometric skips over the pairs (Batagelj-Brandes)."""
    rng = random.Random(seed)
    log_q = math.log(1.0 - c / n)
    triples = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            triples.append((w, v, 0.5))
    return Graph.build(n, triples)


def active_form(form: str, mask: int, g: Graph):
    """``active`` in one of the forms ``oracles.MatcherV0`` takes, and the
    same edge set as the package takes it, an edge mask; the form "none"
    is every edge of ``g``."""
    if form == "none":
        return None, all_edges(g)
    if form == "mask":
        return mask, mask
    return mask_edges(mask)[::-1], edge_mask(mask_edges(mask))  # unsorted on purpose


class TestDifferentialAgainstParent:
    """The matcher against the ones it replaced: ``oracles.MatcherV1``,
    whose blossoms relabeled by scanning the search tree, and
    ``oracles.MatcherV0``, which allocated its search state per search.
    Equal edge sets and sizes on blossom-heavy and on large sparse graphs,
    under every form of ``active`` that the V0 reference takes."""

    @pytest.mark.parametrize("form", ["none", "mask", "ids"])
    def test_equal_edge_sets_and_sizes(self, differential_corpus, form):
        rng = random.Random(f"diff-{form}")
        for g in differential_corpus:
            for _ in range(1 if form == "none" else 8):
                active, mask = active_form(form, rng.getrandbits(g.m), g)
                got = maximum_matching(g, mask)
                assert got == maximum_matching_v1(g, mask)
                assert got == maximum_matching_v0(g, active)
                size = matching_number(g, mask)
                assert size == matching_number_v1(g, mask)
                assert size == matching_number_v0(g, active)

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    @pytest.mark.parametrize("form", ["none", "mask", "ids"])
    def test_sparse_gnp(self, n, form):
        g = sparse_gnp(n, n)
        rng = random.Random(f"sparse-{n}-{form}")
        for _ in range(1 if form == "none" else 2):
            # dense masks keep the big components, and their blossoms
            active, mask = active_form(form, rng.getrandbits(g.m) | rng.getrandbits(g.m), g)
            got = maximum_matching(g, mask)
            assert got == maximum_matching_v1(g, mask)
            assert got == maximum_matching_v0(g, active)
            size = matching_number(g, mask)
            assert size == len(got)
            assert size == matching_number_v1(g, mask)
            assert size == matching_number_v0(g, active)


class CountingMatcher(_Matcher):
    """Counts the vertices blossoms relabel: each joins its new base's
    member list once per relabel."""

    relabeled = 0

    def _lca(self, a, b):
        cur = super()._lca(a, b)
        self.cur, self.before = cur, len(self.members.get(cur, (cur,)))
        return cur

    def _contract(self, q, v, to) -> None:
        super()._contract(q, v, to)
        self.relabeled += len(self.members[self.cur]) - self.before


class CountingMatcherV1(MatcherV1):
    """Counts the tree entries blossoms scan."""

    scanned = 0

    def _contract(self, q, v, to) -> None:
        self.scanned += len(self.tree)
        super()._contract(q, v, to)


def test_blossom_relabel_costs_the_blossom():
    # the full G(8000, m=12,030): blossoms in big trees, where a relabel
    # by tree scan costs tree x blossoms
    rng = random.Random(8000)
    pairs = set()
    while len(pairs) < 12_030:
        u, v = rng.randrange(8000), rng.randrange(8000)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    g = Graph.build(8000, [(u, v, 0.5) for u, v in sorted(pairs)])
    new, old = CountingMatcher(g, all_edges(g)), CountingMatcherV1(g, all_edges(g))
    new.run()
    old.run()
    assert new.edge_set() == old.edge_set()
    assert old.scanned > 100_000
    assert 0 < new.relabeled < old.scanned / 20


class KeepsMembers(_Matcher):
    """A faulty reset: blossom member lists survive into the next search."""

    def _reset(self) -> None:
        kept = dict(self.members)
        super()._reset()
        self.members.update(kept)


class KeepsBases(_Matcher):
    """A faulty reset: contracted bases survive into the next search."""

    def _reset(self) -> None:
        kept = list(self.base)
        super()._reset()
        self.base[:] = kept


# graphs on which each faulty reset drives a walk up the tree into a cycle
CORRUPTING = {
    KeepsMembers: (8, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
                       (2, 7), (4, 5), (4, 6), (5, 6)]),
    KeepsBases: (8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
                     (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (3, 7),
                     (4, 5), (4, 7), (5, 6), (5, 7)]),
}


class TestCorruptSearchState:
    @pytest.mark.parametrize("faulty", list(CORRUPTING), ids=lambda c: c.__name__)
    def test_fault_raises(self, faulty):
        n, pairs = CORRUPTING[faulty]
        g = Graph.build(n, [(u, v, 0.5) for u, v in pairs])
        assert len(maximum_matching(g, all_edges(g))) == n // 2
        with pytest.raises(RuntimeError, match="inconsistent"):
            faulty(g, all_edges(g)).run()

    @pytest.mark.parametrize("faulty", list(CORRUPTING), ids=lambda c: c.__name__)
    def test_every_faulty_search_ends(self, faulty):
        # each run either raises or returns; before the bounds, some looped forever
        for seed in range(300):
            g = random_instance(seed, n=8, edge_prob=0.5)
            try:
                faulty(g, all_edges(g)).run()
            except RuntimeError as exc:
                assert "inconsistent" in str(exc)


@st.composite
def small_graphs(draw):
    """Up to 10 edges on up to 8 vertices, ids in drawn order, so a
    graph is often disconnected and its ids do not follow its vertices;
    some edges are sure, so some masks weigh 0."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    probs = st.sampled_from([0.2, 0.5, 0.9, 1.0])
    return Graph.build(n, [(u, v, draw(probs)) for u, v in chosen])


# the verify-exact bench workload's 12-vertex, 14-edge graph
VERIFY_EXACT = Graph.build(12, [
    (1, 2, 0.9), (3, 9, 0.9), (1, 8, 0.9), (3, 6, 0.9), (2, 6, 0.9),
    (0, 3, 0.9), (5, 7, 0.9), (4, 9, 0.9), (3, 7, 0.9), (4, 6, 0.9),
    (10, 11, 0.9), (0, 8, 0.2), (5, 11, 0.2), (0, 10, 0.2),
])


def component_corpus() -> dict:
    odd = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (2, 3)]
    return {
        "kite": GOLDEN_GRAPHS["kite"][0],
        "split": GOLDEN_GRAPHS["split"][0],
        "verify-exact": VERIFY_EXACT,
        "C5+C7": Graph.build(12, [(i, (i + 1) % 5, 0.5) for i in range(5)]
                             + [(5 + i, 5 + (i + 1) % 7, 0.5) for i in range(7)]),
        "C3-C5 joined": Graph.build(8, [(u, v, 0.5) for u, v in odd]),
        "petersen": petersen_subgraph(range(12)),
    }


class TestComponentMemo:
    """The per-component route of ``maximum_matching`` against the plain
    matcher, mask by mask, with ==."""

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_every_mask_equals_plain(self, g):
        memo = ComponentMemo(g)
        for mask in range(1 << g.m):
            assert maximum_matching(g, mask, memo) == maximum_matching(g, mask)

    @pytest.mark.parametrize("name", sorted(component_corpus()))
    def test_corpus_every_mask(self, name):
        g = component_corpus()[name]
        memo = ComponentMemo(g)
        for mask in range(1 << g.m):
            assert maximum_matching(g, mask, memo) == maximum_matching(g, mask)
        # each stored matching is the plain matcher's on that component
        assert all(got == maximum_matching(g, edges) for edges, got in memo.matchings.items())

    def test_same_vertices_other_edges(self):
        # paths 0-1-2-3 and 1-2-3-0 of the 4-cycle span the same vertices
        # but match different edges
        g = cycle_graph(4)
        memo = ComponentMemo(g)
        assert maximum_matching(g, 0b0111, memo) == frozenset({0, 2})
        assert maximum_matching(g, 0b1110, memo) == frozenset({1, 3})

    def test_capped_memo_stops_growing(self, monkeypatch):
        monkeypatch.setattr(matching, "COMPONENT_MEMO_CAP", 4)
        g = component_corpus()["kite"]
        memo = ComponentMemo(g)
        sizes = []
        for mask in range(1 << g.m):
            assert maximum_matching(g, mask, memo) == maximum_matching(g, mask)
            sizes.append(len(memo.matchings))
        assert max(sizes) == 4 and sizes[-1] == 4

    def test_memo_refuses_other_inputs(self, triangle, path3):
        memo = ComponentMemo(triangle)
        with pytest.raises(ValueError, match="bitmasks of its own graph"):
            maximum_matching(path3, 0b11, memo)
        with pytest.raises(ValueError, match="bitmasks of its own graph"):
            maximum_matching(triangle, [0, 1], memo)


class TestExactExpectation:
    def test_single_edge(self):
        g = Graph.build(2, [(0, 1, 0.5)])
        assert matching_size_expectation_exact(g) == pytest.approx(0.5, abs=1e-9)

    def test_triangle(self, triangle):
        assert matching_size_expectation_exact(triangle) == pytest.approx(
            0.875, abs=1e-9
        )

    def test_path3(self, path3):
        assert matching_size_expectation_exact(path3) == pytest.approx(
            1.125, abs=1e-9
        )

    def test_cap(self):
        g = path_graph(25)
        with pytest.raises(ResourceGuard):
            matching_size_expectation_exact(g)


class TestFractional:
    def test_empty(self):
        f = FractionalMatching.build(path_graph(2), {})
        assert fractional_size(f) == 0.0

    def test_single_edge_unit(self):
        g = path_graph(1)
        f = FractionalMatching.build(g, {0: 1.0})
        assert fractional_size(f) == 1.0
        assert vertex_load(f, 0) == 1.0 and vertex_load(f, 1) == 1.0

    def test_middle_vertex_load(self):
        g = path_graph(2)
        f = FractionalMatching.build(g, {0: 0.5, 1: 0.5})
        assert vertex_load(f, 1) == pytest.approx(1.0)
        assert violates_vertex_caps(f) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FractionalMatching.build(path_graph(1), {0: -0.1})

    def test_zero_dropped_from_support(self):
        f = FractionalMatching.build(path_graph(2), {0: 0.0, 1: 0.3})
        assert f.support == frozenset({1})


class TestBlossomChecker:
    def test_c5_half_flagged(self):
        g = cycle_graph(5)
        f = FractionalMatching.build(g, {e: 0.5 for e in range(5)})
        report = check_blossom(f, eps=0.2)
        assert not report.ok
        assert any(
            len(S) == 5 and mass == pytest.approx(2.5) and bound == 2
            for S, mass, bound in report.violations
        )

    def test_c4_half_clean(self):
        g = cycle_graph(4)
        f = FractionalMatching.build(g, {e: 0.5 for e in range(4)})
        assert check_blossom(f, eps=0.2).ok

    def test_integral_matchings_clean(self):
        for seed in range(25):
            g = random_instance(seed)
            f = FractionalMatching.build(g, {e: 1.0 for e in maximum_matching(g, all_edges(g))})
            assert check_blossom(f, eps=0.2).ok

    def test_cap_exceeded(self):
        f = FractionalMatching.build(path_graph(1), {0: 1.0})
        with pytest.raises(ResourceGuard):
            check_blossom(f, eps=0.05)

    @given(st.integers(0, 200), st.sampled_from([0.2, 0.25, 1.0 / 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_double_entry(self, seed, eps):
        # pruned sweep must agree with the unpruned full enumeration
        g = random_instance(seed, n=7, edge_prob=0.5)
        ctx = SeedContext(seed).child("weights")
        raw = {e: ctx.uniform(e) for e in range(g.m)}
        f = FractionalMatching.build(g, raw)
        report = check_blossom(f, eps=eps)
        full = blossom_violations_full(f.values, g, eps)
        assert bool(report.violations) == bool(full)
        full_sets = {S for S, _, _ in full}
        for S, mass, bound in report.violations:
            assert frozenset(S) in full_sets
            direct = sum(
                f.get(e)
                for e in range(g.m)
                if set(g.endpoints(e)) <= set(S)
            )
            assert mass == pytest.approx(direct)
            assert bound == len(S) // 2
            assert direct > bound

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_certified_f_close_to_mu(self, seed):
        # a load-feasible f passing the sweep at eps has value close to mu
        eps = 0.2
        g = random_instance(seed, n=7, edge_prob=0.4)
        if g.m == 0 or g.m > 10:
            return
        ctx = SeedContext(seed).child("w")
        raw = {e: ctx.uniform(e) for e in range(g.m)}
        scale = max(
            (
                sum(raw[e] for e in g.incident(v))
                for v in range(g.n)
                if g.incident(v)
            ),
            default=1.0,
        )
        f = FractionalMatching.build(g, {e: x / max(scale, 1.0) for e, x in raw.items()})
        assert violates_vertex_caps(f) == []
        if not check_blossom(f, eps=eps).ok:
            return
        mu = matching_number(g, active=edge_mask(f.support))
        assert mu >= (1.0 - eps) * fractional_size(f) - 1e-9


def test_matched_vertices(path3):
    assert matched_vertices(path3, [0, 2]) == frozenset({0, 1, 2, 3})
    assert matched_vertices(path3, []) == frozenset()


def test_is_matching_rejects_shared_endpoint(path3):
    assert not is_matching(path3, [0, 1])
