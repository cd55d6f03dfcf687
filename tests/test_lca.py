import gc
import hashlib
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    LcaOracleV0,
    LcaOracleV1,
    TruncatedGreedyMisV0,
    add_sweep_pairwise,
    check_correlated_bound,
    estimate_delta,
    find_rank_ctx,
    gather_ledger_v0,
    gnp_graph,
    path_graph,
    run_lca_v0,
    sweep_ledger,
)
from stochmatch.graph import Graph, SeedContext, sample_realization
from stochmatch.hyperwalk import BMatchingLca, BParams
from stochmatch.lca import (
    LcaOracle,
    NaturalityViolation,
    QueryLedger,
    Site,
    TapeTable,
    gather_ledger,
    ledger_to_csv,
    run_lca,
    site_tape,
)
from stochmatch.mis import TruncatedGreedyMis
from test_acceptance import B_CORPUS
from test_cli import B_FLAGS, GOLDEN_GRAPHS


class SelfOnlyLca:
    """Answers from the root's own tape; probes nothing else."""

    site_kind = "vertex"

    def run(self, oracle, root):
        tape = oracle.probe(root)
        return tape.uniform("ans") < 0.5


class HubLca:
    """Every root also probes vertex 0; needs a star to stay natural."""

    site_kind = "vertex"

    def run(self, oracle, root):
        oracle.probe(root)
        if root.id != 0:
            oracle.probe(Site("vertex", 0))
        return True


class RogueLca:
    """Probes the root, then probes or peeks at the site of kind ``kind``
    ``hops`` ids on."""

    site_kind = "vertex"

    def __init__(self, op="probe", hops=2, kind="vertex"):
        self.op = op
        self.hops = hops
        self.kind = kind

    def run(self, oracle, root):
        oracle.probe(root)
        getattr(oracle, self.op)((self.kind, root.id + self.hops))
        return True


def star(n):
    return Graph.build(n, [(0, i, 0.5) for i in range(1, n)])


class TestRunLca:
    def test_self_only_trace(self):
        g, ctx = star(5), SeedContext(0)
        out, trace = run_lca(SelfOnlyLca(), g, ctx, Site("vertex", 2), TapeTable(ctx, g))
        assert trace.out_queries == frozenset({Site("vertex", 2)})
        assert isinstance(out, bool)

    def test_isolated_gmis_member(self):
        g, ctx = Graph.build(1, []), SeedContext(3)
        out, trace = run_lca(TruncatedGreedyMis(None), g, ctx, Site("vertex", 0), TapeTable(ctx, g))
        assert out.member is True
        assert trace.out_queries == frozenset({Site("vertex", 0)})

    def test_purity_and_interleaving(self):
        g = gnp_graph(10, 0.3, 0.5, SeedContext(4).child("gen"))
        ctx = SeedContext(17)
        lca = TruncatedGreedyMis(None)
        first = [run_lca(lca, g, ctx, Site("vertex", v), TapeTable(ctx, g)) for v in range(g.n)]
        # interleave repeats with fresh queries in a different order
        for v in reversed(range(g.n)):
            out, trace = run_lca(lca, g, ctx, Site("vertex", v), TapeTable(ctx, g))
            assert (out, trace) == first[v]
            again, trace2 = run_lca(lca, g, ctx, Site("vertex", (v * 3) % g.n), TapeTable(ctx, g))
            assert (again, trace2) == first[(v * 3) % g.n]

    def test_naturality_enforced(self):
        g, ctx = path_graph(3), SeedContext(0)
        for op in ("probe", "peek"):
            with pytest.raises(NaturalityViolation):
                run_lca(RogueLca(op), g, ctx, Site("vertex", 0), TapeTable(ctx, g))
            assert run_lca(RogueLca(op, hops=1), g, ctx, Site("vertex", 0), TapeTable(ctx, g))[0]

    def test_unknown_site_kind_refused(self):
        # also for an id among the touched vertices, which a vertex read
        # would admit with one lookup
        g, ctx = path_graph(3), SeedContext(0)
        for op in ("probe", "peek"):
            for hops in (0, 1):
                with pytest.raises(ValueError, match="unknown site kind 'face'"):
                    run_lca(RogueLca(op, hops, "face"), g, ctx, Site("vertex", 1), TapeTable(ctx, g))

    def test_root_kind_mismatch(self):
        g, ctx = path_graph(2), SeedContext(0)
        with pytest.raises(ValueError, match="expects vertex roots, got edge"):
            run_lca(TruncatedGreedyMis(None), g, ctx, Site("edge", 0), TapeTable(ctx, g))

    def test_trace_prefixes_connected(self):
        # independent re-check of the naturality contract on real traces
        g = gnp_graph(12, 0.3, 0.5, SeedContext(6).child("gen"))
        ctx = SeedContext(23)
        for v in range(g.n):
            _, trace = run_lca(TruncatedGreedyMis(None), g, ctx, Site("vertex", v), TapeTable(ctx, g))
            seen = set()
            for site in trace.probed:
                ok = not seen or any(
                    w in seen for w in g.neighbors(site.id)
                ) or site.id in seen
                assert ok, f"disconnected probe {site} after {seen}"
                seen.add(site.id)

    def test_site_tape_is_canonical(self):
        ctx = SeedContext(9)
        a = site_tape(ctx, Site("vertex", 4)).uniform("rank")
        b = site_tape(ctx, Site("vertex", 4)).uniform("rank")
        assert a == b


class TestLedger:
    def test_self_only_all_ones(self):
        g = star(6)
        ledger = sweep_ledger(SelfOnlyLca(), g, SeedContext(0))
        for v in range(g.n):
            s = Site("vertex", v)
            assert ledger.mean_qplus(s) == 1.0
            assert ledger.mean_qminus(s) == 1.0
            assert ledger.mean_psi(s) == 1.0

    def test_hub_ledger(self):
        n = 7
        g = star(n)
        ledger = sweep_ledger(HubLca(), g, SeedContext(0))
        assert ledger.mean_qminus(Site("vertex", 0)) == n
        assert all(ledger.mean_psi(Site("vertex", v)) == n for v in range(n))
        report = check_correlated_bound(
            gather_ledger(HubLca(), g, SeedContext(0), trials=3)
        )
        # psi = n against q+ * q- = 2n: inside the bound with slack 1
        assert report.lhs == n and report.rhs == 2 * n
        assert report.ok

    def test_gmis_path_trace_example(self):
        g = path_graph(2)  # vertices 0-1-2
        ctx = find_rank_ctx(
            g, lambda r: r[1] < r[0] and r[1] < r[2]
        )
        lca = TruncatedGreedyMis(None)
        outs = {}
        for v in range(3):
            out, trace = run_lca(lca, g, ctx, Site("vertex", v), TapeTable(ctx, g))
            outs[v] = (out.member, trace.out_queries)
        assert outs[0] == (False, frozenset({Site("vertex", 0), Site("vertex", 1)}))
        assert outs[2] == (False, frozenset({Site("vertex", 2), Site("vertex", 1)}))
        assert outs[1][0] is True
        # correlated set of 0 contains 2: their out-query sets meet at 1
        assert outs[0][1] & outs[2][1]
        ledger = sweep_ledger(lca, g, ctx)
        assert ledger.mean_psi(Site("vertex", 0)) == 3.0

    def test_identity_and_pointwise(self):
        g = gnp_graph(12, 0.3, 0.5, SeedContext(1).child("gen"))
        for t in range(6):
            ledger = sweep_ledger(TruncatedGreedyMis(None), g, SeedContext(t))
            row_plus = ledger.qplus_rows[0]
            row_minus = ledger.qminus_rows[0]
            row_psi = ledger.psi_rows[0]
            assert sum(row_plus.values()) == sum(row_minus.values())
            for s in ledger.sites:
                assert row_psi[s] >= row_plus[s]

    def test_csv_export(self):
        g = star(4)
        text = ledger_to_csv(sweep_ledger(SelfOnlyLca(), g, SeedContext(0)))
        lines = text.strip().split("\n")
        assert lines[0] == "kind,site,mean_qplus,mean_qminus,mean_psi"
        assert len(lines) == 1 + g.n
        assert lines[1].startswith("vertex,0,1.000000")

    def test_gather_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            gather_ledger(SelfOnlyLca(), star(3), SeedContext(0), trials=0)

    def test_bound_needs_two_sweeps(self):
        ledger = gather_ledger(SelfOnlyLca(), star(3), SeedContext(0), trials=1)
        with pytest.raises(ValueError, match="need at least two sweeps"):
            check_correlated_bound(ledger)

    def test_correlated_bound_on_random_graphs(self):
        for seed in (0, 1):
            g = gnp_graph(14, 0.25, 0.5, SeedContext(seed).child("gen"))
            ledger = gather_ledger(
                TruncatedGreedyMis(None), g, SeedContext(seed).child("sw"), trials=30
            )
            assert check_correlated_bound(ledger).ok


def golden_b_matching(name):
    g = GOLDEN_GRAPHS[name][0]
    flags = dict(zip(B_FLAGS[::2], B_FLAGS[1::2]))
    params = BParams(
        margin=0.08, **{k[2:].replace("-", "_"): int(v) for k, v in flags.items()}
    )
    real = sample_realization(g, SeedContext(3).child("real"), 0)
    return g, BMatchingLca(g, params, real)


class TestLedgerIndex:
    """The in-query index against the pairwise ledger it replaced."""

    @staticmethod
    def assert_matches_pairwise(lca, g, ctx):
        ledger = sweep_ledger(lca, g, ctx)
        out_sets = {r: run_lca(lca, g, ctx, r, TapeTable(ctx, g))[1].out_queries for r in ledger.sites}
        ref = QueryLedger(ledger.site_kind, ledger.sites)
        add_sweep_pairwise(ref, out_sets)
        assert ledger.qplus_rows == ref.qplus_rows
        assert ledger.qminus_rows == ref.qminus_rows
        assert ledger.psi_rows == ref.psi_rows

    def test_tmis_sweeps(self):
        for n in (12, 60, 200):
            for seed in range(2):
                g = gnp_graph(n, 3.0 / n, 0.5, SeedContext(seed).child("gen"))
                for budget in (None, 1, 3, 8):
                    lca = TruncatedGreedyMis(budget)
                    self.assert_matches_pairwise(lca, g, SeedContext(seed).child("sw"))

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_b_matching_sweep(self, name):
        g, lca = golden_b_matching(name)
        for t in range(2):
            self.assert_matches_pairwise(lca, g, SeedContext(3).child("sw", t))


class TestTapeTable:
    """Tapes read through a sweep's shared table against the parent route,
    which derived a fresh tape, encoding the whole path, per probe and peek."""

    @staticmethod
    def assert_matches_v0(lca, ref_lca, g, ctx, trials=2):
        # ref_lca runs on LcaOracleV0, whose tapes are bare SeedContexts
        ledger = gather_ledger(lca, g, ctx, trials)
        ref = gather_ledger_v0(ref_lca, g, ctx, trials)
        assert ledger.qplus_rows == ref.qplus_rows
        assert ledger.qminus_rows == ref.qminus_rows
        assert ledger.psi_rows == ref.psi_rows
        for t in range(trials):
            sub = ctx.child("sweep", t)
            tapes = TapeTable(sub, g)
            for r in ledger.sites:
                out, trace = run_lca(lca, g, sub, r, tapes)
                old, old_trace = run_lca_v0(ref_lca, g, sub, r)
                assert out == old
                assert trace == old_trace and trace.meta == old_trace.meta

    def test_tmis_sweeps(self):
        for n in (12, 60, 200):
            for seed in range(2):
                g = gnp_graph(n, 3.0 / n, 0.5, SeedContext(seed).child("gen"))
                for budget in (None, 1, 3, 8):
                    lca = TruncatedGreedyMis(budget)
                    ref_lca = TruncatedGreedyMisV0(budget)
                    self.assert_matches_v0(lca, ref_lca, g, SeedContext(seed).child("tt"))

    @pytest.mark.parametrize("name", ["kite", "split"])
    def test_b_matching_sweeps(self, name):
        g, lca = golden_b_matching(name)
        self.assert_matches_v0(lca, lca, g, SeedContext(3).child("tt"))

    @staticmethod
    def count_calls(monkeypatch, name, cls=SeedContext):
        counter = {"n": 0}
        original = getattr(cls, name)

        def counting(self, *args):
            counter["n"] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counting)
        return counter

    def test_tmis_sweep_derives_each_tape_once(self, monkeypatch):
        # and hashes each rank once
        graphs = [gnp_graph(n, 3.0 / n, 0.5, SeedContext(1).child("gen")) for n in (12, 60, 200)]
        ctx = SeedContext(1).child("count")
        derived = self.count_calls(monkeypatch, "__post_init__")
        digests = self.count_calls(monkeypatch, "digest")
        for g in graphs:
            for budget in (None, 3):
                lca = TruncatedGreedyMis(budget)
                derived["n"] = digests["n"] = 0
                sweep_ledger(lca, g, ctx)
                assert derived["n"] <= g.n
                assert digests["n"] <= g.n

    def test_tmis_sweep_expands_each_vertex_once(self, monkeypatch):
        # a vertex's lower-rank neighbors are stored on its tape, so the
        # sweep peeks at each neighbor rank once per table: at most 2m peeks
        graphs = [gnp_graph(n, 3.0 / n, 0.5, SeedContext(1).child("gen")) for n in (12, 60, 200)]
        ctx = SeedContext(1).child("count")
        peeks = self.count_calls(monkeypatch, "peek", LcaOracle)
        for g in graphs:
            for budget in (None, 3):
                peeks["n"] = 0
                sweep_ledger(TruncatedGreedyMis(budget), g, ctx)
                assert 0 < peeks["n"] <= 2 * g.m

    def test_tmis_sweep_builds_each_site_once(self, monkeypatch):
        # the queries name sites by plain pairs; the sweep's tape table
        # builds the one Site of each vertex read
        graphs = [gnp_graph(n, 3.0 / n, 0.5, SeedContext(1).child("gen")) for n in (12, 60, 200)]
        ctx = SeedContext(1).child("count")
        built = self.count_calls(monkeypatch, "__new__", Site)
        for g in graphs:
            roots = [Site("vertex", v) for v in range(g.n)]
            for budget in (None, 3):
                lca = TruncatedGreedyMis(budget)
                tapes = TapeTable(ctx, g)  # the sweep's, as in sweep_ledger
                built["n"] = 0
                for root in roots:
                    run_lca(lca, g, ctx, root, tapes)
                assert 0 < built["n"] <= g.n

    def test_b_matching_sweep_hashes_each_value_once(self, monkeypatch):
        g, lca = golden_b_matching("kite")
        reads = []
        original = SeedContext.digest

        def recording(self, *labels):
            reads.append((self.seed, self.path, labels))
            return original(self, *labels)

        monkeypatch.setattr(SeedContext, "digest", recording)
        sweep_ledger(lca, g, SeedContext(3).child("count"))
        assert reads and len(set(reads)) == len(reads)

    def test_table_refuses_another_ctx_or_graph(self):
        # a table's tapes and expansions are functions of its ctx and graph:
        # reused under another seed or on another graph, it would answer
        # from them, so the oracle refuses it; an equal ctx is the same seed
        g = gnp_graph(30, 0.1, 0.5, SeedContext(0).child("gen"))
        other = gnp_graph(30, 0.1, 0.5, SeedContext(1).child("gen"))
        lca = TruncatedGreedyMis(None)
        tapes = TapeTable(SeedContext(1), g)
        for v in range(g.n):
            root = Site("vertex", v)
            shared = run_lca(lca, g, SeedContext(1), root, tapes)
            assert shared == run_lca(lca, g, SeedContext(1), root, TapeTable(SeedContext(1), g))
            for ctx, h in ((SeedContext(2), g), (SeedContext(1), other)):
                with pytest.raises(ValueError, match="another ctx or graph"):
                    run_lca(lca, h, ctx, root, tapes)

    def test_table_dies_with_its_sweep(self):
        # no query may leave a reference cycle reaching the table: the
        # table would then outlive its sweep until a full collection
        kite, b_lca = golden_b_matching("kite")
        g60 = gnp_graph(60, 0.05, 0.5, SeedContext(0).child("gen"))
        cases = [(g60, TruncatedGreedyMis(None), "vertex"), (kite, b_lca, "edge")]
        gc.disable()
        try:
            for g, lca, kind in cases:
                tapes = TapeTable(SeedContext(0), g)
                for i in range(g.n if kind == "vertex" else g.m):
                    run_lca(lca, g, tapes.ctx, Site(kind, i), tapes)
                refs = [weakref.ref(tape) for tape in tapes.values()]
                del tapes
                assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_b_matching_query_derives_each_tape_once(self, monkeypatch):
        g, lca = golden_b_matching("kite")
        ctx = SeedContext(3).child("count")
        counter = self.count_calls(monkeypatch, "__post_init__")
        for e in range(g.m):
            counter["n"] = 0
            run_lca(lca, g, ctx, Site("edge", e), TapeTable(ctx, g))
            assert counter["n"] <= g.m


class TestNearSet:
    """The oracle's one-lookup admission against the oracle it replaced
    (``LcaOracleV1``), which ran the full check on every read, and
    against the earlier scan of a peeked vertex's neighbors
    (``LcaOracleV0``)."""

    @staticmethod
    def replay(oracle_cls, g, root, steps):
        oracle = oracle_cls(g, SeedContext(0), root, TapeTable(SeedContext(0), g))
        outcomes = []
        for op, site in steps:
            try:
                getattr(oracle, op)(site)
                outcomes.append(True)
            except (NaturalityViolation, ValueError) as err:
                outcomes.append((type(err).__name__, str(err)))
        trace = oracle.trace()
        assert all(type(s) is Site for s in trace.probed)
        return outcomes, trace

    def assert_admits_as_references(self, g, root, steps):
        new = self.replay(LcaOracle, g, root, steps)
        assert new == self.replay(LcaOracleV1, g, root, steps)
        assert new == self.replay(LcaOracleV0, g, root, steps)
        return [out is True for out in new[0]]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_reads(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.build(n, [(u, v, 0.5) for u, v in chosen])
        sites = [Site("vertex", v) for v in range(n)] + [Site("edge", e) for e in range(g.m)]
        root = data.draw(st.sampled_from(sites))
        # unknown kinds, and every site also as the plain pair the LCAs pass
        unknown = [Site("face", i) for i in range(n)]
        site = st.sampled_from(sites + unknown).flatmap(lambda s: st.sampled_from([s, tuple(s)]))
        steps = data.draw(st.lists(st.tuples(st.sampled_from(["probe", "peek"]), site), max_size=15))
        self.assert_admits_as_references(g, root, steps)

    def test_vertex_peek_after_edge_probes_only(self):
        g = path_graph(4)  # vertices 0-1-2-3-4, edge e joins e and e + 1
        steps = [("probe", Site("edge", 1)), ("peek", Site("vertex", 3)), ("peek", Site("vertex", 4))]
        assert self.assert_admits_as_references(g, Site("edge", 0), steps) == [True, True, False]


class TestDelta:
    def test_disjoint_components_zero(self):
        g = Graph.build(2, [])
        est = estimate_delta(
            TruncatedGreedyMis(None),
            g,
            [(Site("vertex", 0), Site("vertex", 1))],
            trials=40,
            ctx=SeedContext(0),
        )
        assert est[(Site("vertex", 0), Site("vertex", 1))].delta == 0.0

    def test_same_root_one(self):
        g = star(3)
        pair = (Site("vertex", 1), Site("vertex", 1))
        est = estimate_delta(TruncatedGreedyMis(None), g, [pair], trials=20, ctx=SeedContext(0))
        assert est[pair].delta == 1.0

    def test_adjacent_gmis_one(self):
        g = Graph.build(2, [(0, 1, 0.5)])
        pair = (Site("vertex", 0), Site("vertex", 1))
        est = estimate_delta(TruncatedGreedyMis(None), g, [pair], trials=50, ctx=SeedContext(1))
        assert est[pair].delta == 1.0

    def test_near_independence(self):
        # outputs of roots with small delta have covariance of the same order
        g = gnp_graph(20, 0.15, 0.5, SeedContext(2).child("gen"))
        lca = TruncatedGreedyMis(None)
        trials = 400
        delta0 = 0.1
        ctx = SeedContext(5).child("ni")
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        outputs = []
        for t in range(trials):
            sub = ctx.child("trial", t)
            outs = {}
            sets = {}
            for v in range(g.n):
                out, trace = run_lca(lca, g, sub, Site("vertex", v), TapeTable(sub, g))
                outs[v] = 1.0 if out.member else 0.0
                sets[v] = trace.out_queries
            outputs.append((outs, sets))
        checked = 0
        for u, v in pairs:
            hits = sum(1 for _, sets in outputs if sets[u] & sets[v])
            if hits / trials > delta0:
                continue
            checked += 1
            a = [outs[u] for outs, _ in outputs]
            b = [outs[v] for outs, _ in outputs]
            mean_a = sum(a) / trials
            mean_b = sum(b) / trials
            prods = [(x - mean_a) * (y - mean_b) for x, y in zip(a, b)]
            cov = sum(prods) / trials
            var = sum((p - cov) ** 2 for p in prods) / (trials - 1)
            sigma = math.sqrt(var / trials)
            assert abs(cov) <= delta0 + 4 * sigma
        assert checked > 0


def _b_corpus_queries():
    """Every edge root of criterion 9's corpus over 20 seeds, each query
    under its own tapes, as ``matching_via_queries`` runs them: yields
    (instance name, seed, root, answer, trace)."""
    for name, g, kw in B_CORPUS:
        params = BParams(margin=0.1, **{"mis_budget": None, **kw})
        for seed in range(20):
            real = sample_realization(g, SeedContext(seed).child("real"), 0)
            lca = BMatchingLca(g, params, real)
            ctx = SeedContext(seed).child("alg")
            for e in range(g.m):
                out, trace = run_lca(lca, g, ctx, Site("edge", e), TapeTable(ctx, g))
                yield name, seed, e, out, trace


class TestProbeOrder:
    # sha256 over the ordered traces below, computed before any change to
    # the query routes; a reordering that keeps answers and probe sets
    # (say, visiting a walk list backwards) still moves it
    DIGEST = "28172efba11a2070604851732b6c46c07fafb28287b8f56fb2ac72db86c270ca"

    @staticmethod
    def line(*parts, trace):
        meta = sorted(trace.meta.items())
        return repr((*parts, trace.root, trace.probed, meta)).encode() + b"\n"

    def test_golden_probe_order(self):
        h = hashlib.sha256()
        for name, seed, e, out, trace in _b_corpus_queries():
            h.update(self.line(name, seed, e, out, trace=trace))
        g = gnp_graph(50, 0.2, 0.5, SeedContext(3).child("g"))
        lca = TruncatedGreedyMis(4)
        ctx = SeedContext(8).child("ledger", "sweep", 0)
        tapes = TapeTable(ctx, g)
        for v in range(g.n):
            out, trace = run_lca(lca, g, ctx, Site("vertex", v), tapes)
            h.update(self.line(v, out.member, out.calls, out.truncated, trace=trace))
        assert h.hexdigest() == self.DIGEST

    def test_tmis_read_set_is_near_set(self, monkeypatch):
        # a vertex LCA's read set is the oracle's near set: the vertices
        # whose tapes the reference recursion probes or peeks, which reads
        # every rank it depends on, are the probed vertices and their
        # neighbors (the production LCA skips peeks it has stored)
        reads = set()
        originals = {name: getattr(LcaOracle, name) for name in ("probe", "peek")}

        def recording(name):
            def read(self, site):
                reads.add(site[1])
                return originals[name](self, site)

            return read

        for name in originals:
            monkeypatch.setattr(LcaOracle, name, recording(name))
        truncated = 0
        for seed, n in ((0, 12), (1, 60)):
            g = gnp_graph(n, 3.0 / n, 0.5, SeedContext(seed).child("g"))
            ctx = SeedContext(seed).child("reads")
            for budget in (None, 1, 3):
                lca = TruncatedGreedyMisV0(budget)
                tapes = TapeTable(ctx, g)
                for v in range(g.n):
                    reads.clear()
                    oracle = LcaOracle(g, ctx, Site("vertex", v), tapes)
                    truncated += lca.run(oracle, Site("vertex", v)).truncated
                    probed = {s.id for s in oracle.probed}
                    near = probed.union(*(g.neighbors(u) for u in probed))
                    assert reads == near == oracle._near
        assert truncated > 0, "corpus never exercised truncation"

    def test_b_matching_peeks_read_probed_sites(self, monkeypatch):
        # the b-matching LCA's read set is its probe set, so the footprint
        # collisions DeltaTable estimates bound its outputs' correlation
        peeks, unprobed = [0], []
        original = LcaOracle.peek

        def checked_peek(self, site):
            peeks[0] += 1
            if site not in self.probed:
                unprobed.append((self.root, site))
            return original(self, site)

        monkeypatch.setattr(LcaOracle, "peek", checked_peek)
        for _ in _b_corpus_queries():
            pass
        assert peeks[0] > 0
        assert unprobed == []
