import math
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import edge_id, enumerate_realizations_v0, gnp_graph, path_graph, restrict
from stochmatch.graph import (
    ENUM_CAP,
    LOW_EDGES,
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    ResourceGuard,
    SeedContext,
    _encode_labels,
    edge_mask,
    enumerate_realizations,
    mask_edges,
    parse_graph_text,
    sample_realization,
    subgraph,
    weighted_realizations,
    write_graph_text,
)


def _scale_pairs(n: int, m: int) -> list:
    rng = random.Random(5)
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(pairs)


# 1,200 distinct pairs on 200 vertices: the scale of the realization tests
SCALE_N = 200
SCALE_PAIRS = _scale_pairs(SCALE_N, 1200)

LABELS = st.lists(
    st.one_of(st.text(max_size=6), st.integers(-(2**70), 2**70)), max_size=4
).map(tuple)


def small_graphs():
    """Strategy: valid graphs with at most 8 edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=min(8, len(pairs)))
        )
        probs = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        return Graph.build(n, [c + (p,) for c, p in zip(chosen, probs)])

    return build()


class TestGraphBuild:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(1, 1, 0.5)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 1, 0.5), (1, 0, 0.5)])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 1, 1.5)])

    def test_adjacency_consistent(self):
        g = Graph.build(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 1.0)])
        sightings = [0] * g.m
        for v in range(g.n):
            for e in g.incident(v):
                assert v in g.endpoints(e)
                sightings[e] += 1
        assert sightings == [2] * g.m

    def test_edge_id_lookup(self):
        g = Graph.build(3, [(0, 1, 0.5), (1, 2, 0.5)])
        assert edge_id(g, 1, 0) == 0
        assert edge_id(g, 1, 2) == 1
        assert edge_id(g, 0, 2) is None


class TestEnumeration:
    def test_single_edge_outcomes(self):
        g = Graph.build(2, [(0, 1, 0.5)])
        outcomes = dict(enumerate_realizations(g))
        assert outcomes == {0: 0.5, 1: 0.5}

    def test_sure_edges_single_outcome(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        outcomes = list(enumerate_realizations(g))
        live = [(mask, p) for mask, p in outcomes if p > 0.0]
        assert len(live) == 1
        assert live[0][0] == 0b11
        assert live[0][1] == pytest.approx(1.0)

    def test_path3_uniform(self, path3):
        outcomes = list(enumerate_realizations(path3))
        assert len(outcomes) == 8
        assert all(p == pytest.approx(0.125) for _, p in outcomes)

    def test_cap_enforced(self):
        g = Graph.build(26, [(i, i + 1, 0.5) for i in range(25)])
        with pytest.raises(ResourceGuard):
            list(enumerate_realizations(g))

    @pytest.mark.parametrize("m", [0, 1, LOW_EDGES, 14, "sure"])
    def test_matches_parent_loop(self, m):
        # the prefix table must not change a single bit of any probability
        if m == "sure":  # p = 1 edges on both sides of the table
            g = Graph.build(13, [(i, i + 1, 1.0 if i % 3 else 0.3) for i in range(12)])
        else:
            rng = random.Random(m)
            g = Graph.build(m + 1, [(i, i + 1, rng.uniform(0.01, 1.0)) for i in range(m)])
        got = [(mask, p.hex()) for mask, p in enumerate_realizations(g)]
        want = [(r.present, p.hex()) for r, p in enumerate_realizations_v0(g)]
        assert got == want

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, g):
        total = sum(p for _, p in enumerate_realizations(g))
        assert abs(total - 1.0) <= 1e-12


class TestWeightedRealizations:
    def test_auto_mode_boundary(self):
        # the resolved flag comes back before any realization is made
        exact, _ = weighted_realizations(path_graph(ENUM_CAP), 1, None, None)
        assert exact is True
        exact, _ = weighted_realizations(path_graph(ENUM_CAP + 1), 1, SeedContext(0), None)
        assert exact is False

    def test_sampled_preconditions(self, path3):
        with pytest.raises(ValueError):
            weighted_realizations(path3, 5, None, exact=False)
        with pytest.raises(ValueError):
            weighted_realizations(path3, 0, SeedContext(0), exact=False)

    def test_sampled_trials_have_unit_weight(self, path3):
        ctx = SeedContext(4)
        _, worlds = weighted_realizations(path3, 6, ctx, exact=False)
        expected = [(sample_realization(path3, ctx, t), 1) for t in range(6)]
        assert list(worlds) == expected


class TestSampling:
    def test_sure_edge_always_present(self):
        g = Graph.build(2, [(0, 1, 1.0)])
        ctx = SeedContext(5)
        assert all(sample_realization(g, ctx, t) & 1 for t in range(50))

    def test_determinism(self):
        g = Graph.build(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)])
        a = sample_realization(g, SeedContext(9), 3)
        b = sample_realization(g, SeedContext(9), 3)
        assert a == b

    def test_presence_frequency(self):
        # 4 sigma budget at N = 1e5 for p = 0.5
        g = Graph.build(2, [(0, 1, 0.5)])
        ctx = SeedContext(123)
        n = 100_000
        hits = sum(sample_realization(g, ctx, t) & 1 for t in range(n))
        assert abs(hits / n - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_matches_uniform_stream(self):
        # the fast path must stay in lockstep with the documented stream
        g = Graph.build(4, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.5), (0, 3, 0.9)])
        ctx = SeedContext(77)
        for t in range(20):
            sub = ctx.child("realize", t)
            ref = 0
            for e in range(g.m):
                if sub.uniform(e) < g.edges[e][2]:
                    ref |= 1 << e
            assert sample_realization(g, ctx, t) == ref

    @given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_matches_uniform_stream_at_scale(self, seed, trial, mix):
        # m = 1,200, with p on both sides of each edge's own draw k / 2**53
        # (the draw itself, and the floats next to it), p = 1.0, subnormal
        # p and plain p, so the exact integer threshold must agree with
        # the float comparison at every boundary
        ctx = SeedContext(seed)
        sub = ctx.child("realize", trial)
        rng = random.Random(mix)
        draws = [sub.uniform(e) for e in range(len(SCALE_PAIRS))]
        # the documented stream: a digest's first 8 bytes, little-endian, top 53 bits
        assert draws == [
            (int.from_bytes(sub.digest(e)[:8], "little") >> 11) / 2**53 for e in range(len(draws))
        ]
        triples = []
        for (u, v), x in zip(SCALE_PAIRS, draws):
            p = rng.choice(
                (
                    x,
                    math.nextafter(x, 2.0),
                    math.nextafter(x, 0.0),
                    1.0,
                    5e-324,
                    2.2e-308,
                    rng.random(),
                )
            )
            triples.append((u, v, min(max(p, 5e-324), 1.0)))
        g = Graph.build(SCALE_N, triples)
        ref = 0
        for e, (_, _, p) in enumerate(g.edges):
            if draws[e] < p:
                ref |= 1 << e
        assert sample_realization(g, ctx, trial) == ref

    def test_restrict(self):
        g = Graph.build(3, [(0, 1, 1.0), (1, 2, 1.0)])
        r = sample_realization(g, SeedContext(1), 0)
        assert restrict(r, 0b01) == 0b01


class TestSeedContext:
    def test_same_path_same_stream(self):
        a = SeedContext(4).child("x", 1)
        b = SeedContext(4).child("x", 1)
        assert [a.uniform(i) for i in range(5)] == [b.uniform(i) for i in range(5)]

    def test_distinct_paths_differ(self):
        a = SeedContext(4).child("x")
        b = SeedContext(4).child("y")
        assert [a.uniform(i) for i in range(8)] != [b.uniform(i) for i in range(8)]

    def test_uniform_range(self):
        ctx = SeedContext(0)
        vals = [ctx.uniform(i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_label_types_guarded(self):
        with pytest.raises(TypeError):
            SeedContext(0).uniform(True)
        with pytest.raises(TypeError):
            SeedContext(0).uniform(3.5)

    def test_picklable(self):
        ctx = SeedContext(11).child("deep", 2)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.uniform("z") == ctx.uniform("z")

    @given(st.integers(min_value=0, max_value=2**63), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_uniform_deterministic(self, seed, label):
        assert SeedContext(seed).uniform(label) == SeedContext(seed).uniform(label)

    @given(LABELS, LABELS)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_prefix_closed(self, a, b):
        assert _encode_labels(a + b) == _encode_labels(a) + _encode_labels(b)

    @given(st.integers(min_value=-(2**64), max_value=2**64), LABELS, LABELS)
    @settings(max_examples=100, deadline=None)
    def test_child_equals_direct_construction(self, seed, a, b):
        # child() extends the parent's cached encoding; direct construction
        # encodes the whole path
        derived = SeedContext(seed, a).child(*b)
        direct = SeedContext(seed, a + b)
        assert derived._key == direct._key
        assert derived.digest("x", 3) == direct.digest("x", 3)
        assert derived == direct and hash(derived) == hash(direct)
        assert repr(derived) == repr(direct)
        clone = pickle.loads(pickle.dumps(derived))
        assert clone == direct and clone._key == direct._key
        assert clone.child("y").digest() == direct.child("y").digest()

    def test_child_rejects_bool_label(self):
        with pytest.raises(TypeError):
            SeedContext(0).child(True)
        with pytest.raises(TypeError):
            SeedContext(0, ("x",)).child(1, False)


class TestTextFormat:
    def test_round_trip(self):
        g = Graph.build(4, [(0, 1, 0.25), (2, 3, 1.0)])
        again = parse_graph_text(write_graph_text(g))
        assert again.n == g.n and again.edges == g.edges

    def test_comments_and_header(self):
        text = "# demo\nn 5\n0 1 0.5\n2 3 0.25\n"
        g = parse_graph_text(text)
        assert g.n == 5 and g.m == 2

    def test_n_defaults_to_max_id(self):
        g = parse_graph_text("0 3 0.5\n")
        assert g.n == 4

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("0 1\n")

    @pytest.mark.parametrize(
        "text",
        [f"n {MAX_VERTICES + 1}\n", f"0 {MAX_VERTICES} 0.5\n", "n -1\n"],
    )
    def test_vertex_count_limit(self, text):
        with pytest.raises(GraphFormatError, match="vertex count"):
            parse_graph_text(text)


class TestSubgraph:
    def test_mapping_round_trip(self, triangle):
        sub, from_sub = subgraph(triangle, [0, 2])
        assert sub.m == 2 and from_sub == (0, 2)
        for sub_e, full_e in enumerate(from_sub):
            assert sub.endpoints(sub_e) == triangle.endpoints(full_e)

    def test_edge_mask(self):
        assert edge_mask([0, 3]) == 0b1001
        assert mask_edges(0b1001) == [0, 3]
        assert mask_edges(0) == []
        ids = [0, 1, 5, 63, 64, 1000]
        assert mask_edges(edge_mask(ids)) == ids
        with pytest.raises(ValueError):
            edge_mask([3, -1])

    @given(st.lists(st.integers(0, 9000), max_size=300))
    @example([])
    @example([0])
    @example([6000])
    @example(list(range(0, 7000, 3)))
    @settings(max_examples=200, deadline=None)
    def test_codec_matches_bit_loop(self, ids):
        # the plain loops the codec replaced, on masks up to 9,000 bits
        mask = 0
        for e in ids:
            mask |= 1 << e
        assert edge_mask(ids) == mask
        assert edge_mask(iter(ids)) == mask
        assert mask_edges(mask) == [e for e in range(mask.bit_length()) if (mask >> e) & 1]
        assert mask_edges(mask) == sorted(set(ids))


def test_gnp_deterministic():
    a = gnp_graph(12, 0.3, 0.5, SeedContext(2).child("g"))
    b = gnp_graph(12, 0.3, 0.5, SeedContext(2).child("g"))
    assert a.edges == b.edges
    assert all(p == 0.5 for _, _, p in a.edges)
