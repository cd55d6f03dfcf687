"""Reference implementations and test-only helpers.

The brute-force oracles are deliberately naive: exhaustive recursion and
direct set arithmetic, no shared code with the package beyond the Graph
type.  Slow is fine; they run on instances with at most a dozen edges.

Below them sit helpers that only tests use (kept out of the package
surface), and earlier implementations that the package replaced, kept
verbatim as differential oracles for their replacements.
"""

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import pytest

from stochmatch import hyperwalk
from stochmatch.analysis import (
    CrucialSetup,
    RatioEstimate,
    ratio_sweep,
)
from stochmatch.graph import (
    ENUM_CAP,
    Graph,
    SeedContext,
    edge_mask,
    enumerate_realizations,
    mask_edges,
    sample_realization,
    weighted_realizations,
)
from stochmatch.hyperwalk import (
    BMatchingLca,
    BParams,
    Recursion,
    WalkIndex,
    _copy_realized,
    _Engine,
    _Guard,
    _walk_lower,
    _walk_rank,
    gate_masks,
)
from stochmatch.lca import (
    LcaOracle,
    NaturalityViolation,
    QueryLedger,
    Site,
    TapeTable,
    _empty_ledger,
    _ledger_sweep,
    _Tape,
    run_lca,
    site_tape,
)
from stochmatch.matching import (
    _Matcher,
    matched_vertices,
    matching_number,
    maximum_matching,
)
from stochmatch.mis import TmisOutcome, TruncatedGreedyMis, greedy_member
from stochmatch.sparsifier import QProfile, max_degree_of


# -- the package's hyperwalk object before walks became int ids of a
# WalkIndex, kept for the references below, which take walks as objects


@dataclass(frozen=True)
class Hyperwalk:
    """Edge walk with one copy index per position.

    Edges are distinct and consecutive edges share an endpoint.  Odd
    positions (1-based) are additions, even positions removals.  A walk
    of odd length acts identically to its reversal, so those pairs are
    stored in one canonical orientation; even-length walks change
    meaning under reversal and keep their direction.  Walks key many
    memos, so the hash is computed once, and ``additions``/``removals``
    are built once per walk, on first use.
    """

    edges: tuple
    indices: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.edges, self.indices)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, edges: Iterable[int], indices: Iterable[int]) -> "Hyperwalk":
        edges = tuple(edges)
        indices = tuple(indices)
        if not edges:
            raise ValueError("empty hyperwalk")
        if len(edges) != len(indices):
            raise ValueError("edges and indices must have equal length")
        if len(set(edges)) != len(edges):
            raise ValueError("hyperwalk edges must be distinct")
        if any(s < 0 for s in indices):
            raise ValueError("copy indices must be nonnegative")
        if len(edges) % 2 == 1:
            fwd = (edges, indices)
            rev = (edges[::-1], indices[::-1])
            edges, indices = min(fwd, rev)
        return cls(edges, indices)

    @property
    def sort_key(self) -> tuple:
        return (len(self.edges), self.edges, self.indices)

    def entries(self):
        """(position, edge, copy) triples with 1-based positions."""
        return tuple(
            (j + 1, e, s) for j, (e, s) in enumerate(zip(self.edges, self.indices))
        )

    @cached_property
    def _moves(self) -> tuple:
        entries = self.entries()
        return (
            frozenset((e, s) for j, e, s in entries if j % 2 == 1),
            frozenset((e, s) for j, e, s in entries if j % 2 == 0),
        )

    def additions(self) -> frozenset:
        return self._moves[0]

    def removals(self) -> frozenset:
        return self._moves[1]


def walk_vertices(g: Graph, edges: tuple) -> tuple:
    """Vertex sequence v_0..v_k of an edge walk; raises for non-walks.

    A single edge is oriented from its smaller endpoint; longer walks
    are oriented by the shared endpoints of consecutive edges.
    """
    if not edges:
        raise ValueError("empty walk")
    if len(edges) == 1:
        return g.endpoints(edges[0])
    a1, b1 = g.endpoints(edges[0])
    a2, b2 = g.endpoints(edges[1])
    shared = {a1, b1} & {a2, b2}
    if len(shared) != 1:
        raise ValueError("consecutive edges must share one endpoint")
    v1 = shared.pop()
    vseq = [b1 if v1 == a1 else a1, v1]
    for e in edges[1:]:
        a, b = g.endpoints(e)
        if a == vseq[-1]:
            vseq.append(b)
        elif b == vseq[-1]:
            vseq.append(a)
        else:
            raise ValueError("consecutive edges must share one endpoint")
    return tuple(vseq)


def hyperwalk_of(walks: WalkIndex, i: int) -> Hyperwalk:
    """The :class:`Hyperwalk` of walk id ``i`` of ``walks``."""
    record = walks.records[i]
    return Hyperwalk(record.edges, record.indices)


# -- the package's realization and profile types before edge masks, kept
# for the references below, which read realizations and matchings as sets


@dataclass(frozen=True)
class Realization:
    """One sampled world: the subset of edges that came up present."""

    graph: Graph
    present: int  # bitmask over edge ids

    def has(self, e: int) -> bool:
        return (self.present >> e) & 1 == 1


@dataclass(frozen=True)
class Profile:
    """Realization/matching pairs (copy 0 first)."""

    pairs: tuple

    @property
    def alpha(self) -> int:
        return len(self.pairs) - 1

    @property
    def graph(self) -> Graph:
        return self.pairs[0][0].graph

    def realization(self, i: int) -> Realization:
        return self.pairs[i][0]

    def matching(self, i: int) -> frozenset:
        return self.pairs[i][1]


def apply_hyperwalk(p: Profile, w: Hyperwalk) -> Profile:
    """P with odd entries added to and even entries removed from their
    copies (removal wins when both touch the same copy)."""
    if any(s > p.alpha for s in w.indices):
        raise ValueError("copy index out of range for this profile")
    adds = w.additions()
    removals = w.removals()
    pairs = []
    for i, (real, matching) in enumerate(p.pairs):
        new = set(matching)
        new.update(e for (e, s) in adds if s == i)
        new.difference_update(e for (e, s) in removals if s == i)
        pairs.append((real, frozenset(new)))
    return Profile(tuple(pairs))


def mask_profile(g: Graph, reals: Sequence[int], matches: Sequence[int]) -> Profile:
    """The :class:`Profile` of per-copy realization and matching masks."""
    return Profile(tuple(
        (Realization(g, real), frozenset(mask_edges(match)))
        for real, match in zip(reals, matches)
    ))


def brute_matching_number(g: Graph, active=None) -> int:
    """Maximum matching size by branching on each edge: take it or not."""
    edges = [g.endpoints(e) for e in (range(g.m) if active is None else sorted(active))]

    def best(i: int, used: frozenset) -> int:
        if i >= len(edges):
            return 0
        u, v = edges[i]
        out = best(i + 1, used)
        if u not in used and v not in used:
            out = max(out, 1 + best(i + 1, used | {u, v}))
        return out

    return best(0, frozenset())


def brute_expected_mu(g: Graph) -> float:
    """E[mu(G_p)] by direct summation over all 2^m edge subsets."""
    total = 0.0
    for picks in product((False, True), repeat=g.m):
        prob = 1.0
        active = []
        for e, take in enumerate(picks):
            p = g.edges[e][2]
            prob *= p if take else (1.0 - p)
            if take:
                active.append(e)
        total += prob * brute_matching_number(g, active)
    return total


def greedy_mis_sweep(g: Graph, ranks: dict) -> frozenset:
    """Greedy MIS by global sort-and-sweep over ranks."""
    members = set()
    for v in sorted(range(g.n), key=lambda u: ranks[u]):
        if all(w not in members for w in g.neighbors(v)):
            members.add(v)
    return frozenset(members)


def is_independent(g: Graph, members) -> bool:
    members = set(members)
    return all(
        not (u in members and v in members) for u, v, _ in g.edges
    )


def is_maximal_independent(g: Graph, members) -> bool:
    members = set(members)
    if not is_independent(g, members):
        return False
    for v in range(g.n):
        if v in members:
            continue
        if all(w not in members for w in g.neighbors(v)):
            return False
    return True


def blossom_violations_full(values: dict, g: Graph, eps: float):
    """Every violated odd-set inequality, enumerated without any pruning."""
    cap = int(1.0 / eps)
    out = []
    for k in range(3, min(cap, g.n) + 1, 2):
        for s in combinations(range(g.n), k):
            inside = set(s)
            lhs = sum(
                values.get(e, 0.0)
                for e in range(g.m)
                if g.edges[e][0] in inside and g.edges[e][1] in inside
            )
            if lhs > k // 2 + 1e-12:
                out.append((frozenset(s), lhs, k // 2))
    return out


# -- fixed corpus builders ---------------------------------------------------


def path_graph(k_edges: int, p: float = 0.5) -> Graph:
    return Graph.build(k_edges + 1, [(i, i + 1, p) for i in range(k_edges)])


def cycle_graph(n: int, p: float = 0.5) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n, p) for i in range(n)])


def complete_graph(n: int, p: float = 0.5) -> Graph:
    return Graph.build(n, [(u, v, p) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int, p: float = 0.5) -> Graph:
    return Graph.build(a + b, [(u, a + w, p) for u in range(a) for w in range(b)])


def gnp_graph(n: int, edge_prob: float, p: float, ctx: SeedContext) -> Graph:
    """Erdos-Renyi instance: each pair is an edge with probability
    ``edge_prob``; every edge gets realization probability ``p``."""
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if ctx.uniform("gnp", u, v) < edge_prob:
                triples.append((u, v, p))
    return Graph.build(n, triples)


PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def petersen_subgraph(edge_ids, p: float = 0.5) -> Graph:
    return Graph.build(10, [PETERSEN_EDGES[i] + (p,) for i in edge_ids])


def find_rank_ctx(g: Graph, predicate, tries: int = 20000):
    """Smallest master seed whose vertex ranks satisfy the predicate."""
    for seed in range(tries):
        ctx = SeedContext(seed)
        ranks = {v: vertex_rank(ctx, v) for v in range(g.n)}
        if predicate(ranks):
            return ctx
    raise AssertionError("no seed satisfies the rank predicate")


def directed_edge_walks(g: Graph, max_len: int):
    """All directed walks with distinct edges, grouped by length."""
    by_len = {k: [] for k in range(1, max_len + 1)}

    def extend(edges, tail):
        k = len(edges)
        if k:
            by_len[k].append(tuple(edges))
        if k == max_len:
            return
        for e in g.incident(tail):
            if e in edges:
                continue
            u, v = g.endpoints(e)
            extend(edges + [e], v if u == tail else u)

    for e in range(g.m):
        u, v = g.endpoints(e)
        extend([e], v)
        extend([e], u)
    # a single edge yields the same walk from both orientations
    by_len[1] = sorted(set(by_len[1]))
    return by_len


def hyperwalk_reference_set(g: Graph, max_len: int, alpha: int):
    """Canonical (edges, indices) pairs by direct product enumeration."""
    out = set()
    for k, seqs in directed_edge_walks(g, max_len).items():
        for edges in seqs:
            for indices in product(range(alpha + 1), repeat=k):
                if k % 2 == 1:
                    fwd = (edges, indices)
                    rev = (edges[::-1], indices[::-1])
                    out.add(min(fwd, rev))
                else:
                    out.add((edges, indices))
    return out


# -- test-only helpers -------------------------------------------------------


def all_edges(g: Graph) -> int:
    """The edge bitmask of every edge of ``g``."""
    return (1 << g.m) - 1


def walk_setup(g: Graph, params: BParams) -> Recursion:
    """The recursion of ``params`` on ``g`` without a table: a fresh walk
    index at the params' length and copies, every gate of levels
    0..depth-1 open (:func:`open_gates`), and the params' budget."""
    gates = hyperwalk.open_gates(g.n, params.depth, params.margin)
    return Recursion(WalkIndex(g, params.walk_len, params.alpha), gates, params.mis_budget)


def at_level(rec: Recursion, level: int) -> Recursion:
    """``rec`` cut to depth ``level``: the recursion of a level-``level``
    call on its walk index, gates and budget."""
    return rec._replace(gates=rec.gates[:level])


def recursion_params(rec: Recursion) -> BParams:
    """The params of ``rec`` for the frozen references that take them: its
    walk length, copies, depth and budget, and margin 0, under which
    :func:`gate_table` of ``rec.gates`` gates as they do."""
    return BParams(
        alpha=rec.walks.alpha, walk_len=rec.walks.walk_len, depth=len(rec.gates),
        margin=0.0, mis_budget=rec.budget,
    )


def edge_id(g: Graph, u: int, v: int):
    """Edge id for the pair (u, v), or None when absent."""
    for e in g.adjacency[u]:
        a, b, _ = g.edges[e]
        if a == v or b == v:
            return e
    return None


def matching_size_expectation_exact(g: Graph) -> float:
    """E[mu(G_p)] by exhaustive realization enumeration."""
    total = 0.0
    for mask, pr in enumerate_realizations(g):
        if pr > 0.0:
            total += pr * matching_number(g, mask)
    return total


def restrict(real: int, edge_mask: int) -> int:
    return real & edge_mask


def violates_vertex_caps(f, tol: float = 1e-9) -> list:
    return [v for v in range(f.graph.n) if vertex_load(f, v) > 1.0 + tol]


def degree_in_profile(p, v: int) -> int:
    """Number of copies whose matching covers ``v``."""
    g = p.graph
    count = 0
    for _, matching in p.pairs:
        if any(e in matching for e in g.incident(v)):
            count += 1
    return count


# -- the package's unsaturation table before the gates became one
# open-vertex bitmask per level; the references below read it


@dataclass(frozen=True)
class UnsaturationTable:
    """Per-vertex match marginals: the targets ``a_prob``, and in
    ``b_rows[l]`` the recursive matching's marginals at level l (row 0
    is all zeros).  Level r gates its walks on row r-1, so a depth-d
    recursion reads rows 0..d-1, which is all a built table holds."""

    a_prob: tuple
    b_rows: tuple

    def unsaturated(self, v: int, level: int, margin: float) -> bool:
        if not 0 <= level < len(self.b_rows):
            raise ValueError(f"no marginals for level {level}")
        return self.b_rows[level][v] < self.a_prob[v] - margin

    @classmethod
    def always_unsaturated(cls, n: int, levels: int) -> "UnsaturationTable":
        """Synthetic table: target 1, recursive marginal 0 at all levels.
        Every vertex passes any margin below 1."""
        row = (0.0,) * n
        return cls((1.0,) * n, tuple(row for _ in range(levels + 1)))


def never_unsaturated(n: int, levels: int) -> UnsaturationTable:
    """Synthetic table in which no vertex passes any margin."""
    row = (0.0,) * n
    return UnsaturationTable((0.0,) * n, tuple(row for _ in range(levels + 1)))


def table_gates(table: UnsaturationTable, margin: float) -> tuple:
    """The package's gates for a reference table: one open-vertex mask
    per row."""
    return gate_masks(table.a_prob, table.b_rows, margin)


def gate_table(gates: Sequence[int], n: int) -> UnsaturationTable:
    """A reference table for the package's gates: target 1, and marginal
    0 at an open vertex and 1 at a shut one.  Under any margin below 1
    its rows gate exactly as ``gates`` do."""
    rows = tuple(tuple(0.0 if gate >> v & 1 else 1.0 for v in range(n)) for gate in gates)
    return UnsaturationTable((1.0,) * n, rows)


def enumerate_hyperwalks_containing(g: Graph, site: Site, walk_len: int, alpha: int) -> tuple:
    """Hyperwalks through a vertex or edge site, in canonical order."""
    index = WalkIndex(g, walk_len, alpha)
    if site.kind == "vertex":
        ids = index.walks_through_vertex(site.id)
    else:
        ids = index.walks_through_edge(site.id)
    return tuple(hyperwalk_of(index, i) for i in ids)


def out_query_ceiling(g: Graph, walks: WalkIndex, params, level: int) -> int:
    """Deterministic upper bound on distinct probed edges per root query.

    Union-bounds the recursion: each matching node touches its edge,
    recurses one level down, and resolves one MIS query per containing
    walk, where every expansion probes the walk, its neighbors (for
    ranks), and the validity neighborhood across copies.
    """
    all_w = walks.all_walks()
    total = len(all_w)
    if total == 0:
        return 1
    wmax = max((len(walks.walks_through_edge(e)) for e in range(g.m)), default=0)
    nmax = max((len(walks.neighbors(w)) for w in all_w), default=0)
    budget = params.mis_budget if params.mis_budget is not None else total
    expansions = min(budget, total)
    L = params.walk_len
    dv = max_degree_of(g, range(g.m))
    bound = 1
    for _ in range(level):
        per_validity = (L + 1) * dv * (1 + (params.alpha + 1) * bound)
        per_expansion = L + nmax * L + per_validity
        bound = 1 + bound + wmax * expansions * per_expansion
    return bound


@dataclass(frozen=True)
class CorrelationEstimate:
    """delta(u, v): how often two roots' out-query sets intersect."""

    pair: tuple
    delta: float
    trials: int

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.delta * (1.0 - self.delta), 0.0) / self.trials)


def estimate_delta(lca, g: Graph, pairs, trials: int, ctx, vertex_granular: bool = False) -> dict:
    """Monte Carlo delta for each root pair under fresh shared tapes.

    With ``vertex_granular`` set, edge-kind out-query sets are compared
    through their vertex footprints instead of raw sites.
    """
    pairs = [tuple(p) for p in pairs]
    roots = sorted({r for p in pairs for r in p})
    hits = {p: 0 for p in pairs}
    for t in range(trials):
        sub = ctx.child("delta", t)
        sets = {}
        for root in roots:
            _, trace = run_lca(lca, g, root, TapeTable(sub, g))
            sets[root] = (
                trace.vertex_footprint(g) if vertex_granular else trace.out_queries
            )
        for p in pairs:
            if not sets[p[0]].isdisjoint(sets[p[1]]):
                hits[p] += 1
    return {p: CorrelationEstimate(p, hits[p] / trials, trials) for p in pairs}


# -- reference checkers and wrappers moved out of the package ---------------
#
# Each has no caller in the package or the bench: checkers that tests
# compare the package against, properties the tests check about it (the
# correlated-probe bound over a ledger), and thin wrappers over one
# production route that the tests spell by name.


def is_matching(g: Graph, edge_ids: Iterable[int]) -> bool:
    seen = set()
    for e in edge_ids:
        u, v = g.endpoints(e)
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def vertex_load(f, v: int) -> float:
    """Total weight of a fractional matching on the edges at ``v``."""
    total = 0.0
    for e in f.graph.incident(v):
        total += f.values.get(e, 0.0)
    return total


def q_load(q: QProfile, g: Graph, v: int, within: Optional[frozenset] = None) -> float:
    """Sum of q over the edges at ``v``, optionally only those in ``within``."""
    total = 0.0
    for e in g.incident(v):
        if within is None or e in within:
            total += q.q[e]
    return total


def vertex_rank(ctx: SeedContext, v: int) -> tuple:
    """Total rank order: tape-drawn float with id tie-breaking."""
    return (site_tape(ctx, Site("vertex", v)).uniform("rank"), v)


def gmis_member(g: Graph, ranks: dict, v: int) -> bool:
    """Reference greedy-MIS membership under explicit ranks.

    ``ranks[v]`` must be totally ordered (use (float, id) tuples).
    """

    def lower(u: int) -> list:
        return sorted(
            (w for w in g.neighbors(u) if ranks[w] < ranks[u]),
            key=lambda w: ranks[w],
        )

    return greedy_member(v, lower, None)[0]


def tmis_query(g: Graph, ctx: SeedContext, v: int, budget: Optional[int] = None):
    """One instrumented membership query; returns (TmisOutcome, ProbeTrace)."""
    return run_lca(TruncatedGreedyMis(budget), g, Site("vertex", v), TapeTable(ctx, g))


def tmis_set(g: Graph, ctx: SeedContext, budget: Optional[int] = None) -> frozenset:
    """All members under shared tapes.

    With no budget the answers are plain greedy MIS, a pure function of
    the ranks.  With a budget each root is queried independently to keep
    the per-root truncation semantics honest.
    """
    if budget is None:
        ranks = {v: vertex_rank(ctx, v) for v in range(g.n)}
        return frozenset(v for v in range(g.n) if gmis_member(g, ranks, v))
    return frozenset(v for v in range(g.n) if tmis_query(g, ctx, v, budget)[0].member)


def sweep_ledger(lca, g: Graph, ctx: SeedContext) -> QueryLedger:
    """One sweep: query every site of the LCA's kind as a root under the
    tapes of ``ctx`` itself (``gather_ledger`` sweeps under
    ``ctx.child("sweep", t)``)."""
    return _ledger_sweep(_empty_ledger(lca, g), lca, g, ctx)


CORRELATED_SLACK = 3.0


@dataclass(frozen=True)
class CorrelatedBoundReport:
    """max_v E[psi(v)] against the product of the largest mean q+ and q-."""

    lhs: float
    lhs_stderr: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= CORRELATED_SLACK * self.rhs + 3.0 * self.lhs_stderr


def max_mean(ledger: QueryLedger, stat: str) -> tuple:
    """(mean, site): the largest mean of ``stat`` ("qplus", "qminus" or
    "psi") over the ledger's sweeps, at the largest site on a tie."""
    rows = getattr(ledger, f"{stat}_rows")
    return max((sum(row[s] for row in rows) / len(rows), s) for s in ledger.sites)


def check_correlated_bound(ledger: QueryLedger) -> CorrelatedBoundReport:
    """Compare the worst mean correlated-set size to mean-q+ * mean-q-.

    Needs a ledger of at least 30 sweeps for the error term to mean
    anything; flags violations beyond ``CORRELATED_SLACK`` times the
    product plus three standard errors of the worst mean.
    """
    k = len(ledger.psi_rows)
    if k < 2:
        raise ValueError("need at least two sweeps")
    lhs, site = max_mean(ledger, "psi")
    var = sum((row[site] - lhs) ** 2 for row in ledger.psi_rows) / (k - 1)
    return CorrelatedBoundReport(
        lhs=lhs,
        lhs_stderr=math.sqrt(var / k),
        rhs=max_mean(ledger, "qplus")[0] * max_mean(ledger, "qminus")[0],
    )


def budget_for_degree(max_degree: int, eps: float, c: float = 1.0) -> int:
    """Quadratic-in-degree budget: ceil(c * Delta^2 / eps)."""
    return max(1, math.ceil(c * max_degree * max_degree / eps))


def bparams_from_eps(eps: float, conflict_degree: Optional[int] = None) -> BParams:
    """The paper's asymptotic regime: alpha = 1/eps^7 - 1 copies, walks
    of length 2/eps, depth 1/eps^9, margin 2 eps^2, and a cubic budget
    in the conflict degree when one is supplied."""
    budget = None
    if conflict_degree is not None:
        budget = max(1, math.ceil(conflict_degree**3 / eps))
    return BParams(
        alpha=max(0, math.ceil(1.0 / eps**7) - 1),
        walk_len=math.ceil(2.0 / eps),
        depth=math.ceil(1.0 / eps**9),
        margin=2.0 * eps * eps,
        mis_budget=budget,
    )


def shallow_bparams(eps: float) -> BParams:
    """The depth-1 recursion without fresh copies that ``prepare_pipeline``
    used when given no ``bparams``."""
    return BParams(alpha=0, walk_len=2, depth=1, margin=2.0 * eps * eps, mis_budget=None)


def estimate_ratio(
    g: Graph,
    H: Iterable[int],
    samples: int,
    ctx: Optional[SeedContext] = None,
    exact: Optional[bool] = None,
) -> RatioEstimate:
    """The ratio estimate of one sparsifier: a sweep over ``[H]``."""
    return ratio_sweep(g, [H], samples, ctx=ctx, exact=exact)[0]


def flagged(report) -> tuple:
    """The claim checks of a report that carry a flag."""
    return tuple(c for c in report.checks if c.flag)


def enumerate_hyperwalks(g: Graph, walk_len: int, alpha: int) -> tuple:
    """Every hyperwalk of length at most ``walk_len``, in canonical order."""
    index = WalkIndex(g, walk_len, alpha)
    return tuple(hyperwalk_of(index, i) for i in index.all_walks())


def matching_via_queries(lca: BMatchingLca, ctx: SeedContext) -> frozenset:
    """Edge set assembled from one instrumented query per edge."""
    g = lca.g
    return frozenset(e for e in range(g.m) if run_lca(lca, g, Site("edge", e), TapeTable(ctx, g))[0])


def validate_profile(p: Profile) -> None:
    """Raises unless every matching is a matching within its realization."""
    for i, (real, matching) in enumerate(p.pairs):
        for e in matching:
            if not real.has(e):
                raise ValueError(f"copy {i}: edge {e} not realized")
        if not is_matching(p.graph, matching):
            raise ValueError(f"copy {i}: edges collide at a vertex")


def is_augmenting(
    p: Profile,
    w: Hyperwalk,
    table: UnsaturationTable,
    level: int,
    margin: float,
) -> bool:
    """Validity of ``w`` against a materialized profile.

    ``level`` is the recursion level of the profile's matchings; the
    endpoint gate reads that row of the table.
    """
    g = p.graph
    vseq = walk_vertices(g, w.edges)
    return _augmenting_core(
        g,
        w,
        vseq,
        p.alpha,
        member_fn=lambda i, e: e in p.matching(i),
        realized_fn=lambda i, e: p.realization(i).has(e),
        unsat_fn=lambda v: table.unsaturated(v, level, margin),
    )


@contextmanager
def validating_profiles():
    """Within the block, every ``hyperwalk._select_walks`` call first runs
    :func:`validate_profile` on the copies handed to it; the block gets a
    tally whose ``profiles`` counts them.

    Under ``b_generic`` this validates every recursion output but the
    root's: each copy's matching is the output of a recursion one level
    down.  The walks a selection chooses are vertex-disjoint, so a valid
    state after all of them implies a valid state after each.
    """
    select = hyperwalk._select_walks
    tally = SimpleNamespace(profiles=0)

    def checked(reals, matches, rec, *args):
        validate_profile(mask_profile(rec.walks.g, reals, matches))
        tally.profiles += 1
        return select(reals, matches, rec, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperwalk, "_select_walks", checked)
        yield tally


# -- earlier implementations, kept as differential oracles ---------------------
#
# _augmenting_core before walks were interned ids: the query route's
# validity predicate on a Hyperwalk, reading its additions and removals
# as (edge, copy) sets.


def _augmenting_core(
    g: Graph,
    w: Hyperwalk,
    vseq: tuple,
    alpha: int,
    member_fn: Callable,
    realized_fn: Callable,
    unsat_fn: Callable,
) -> bool:
    """Validity predicate of the query route.

    ``member_fn(i, e)`` and ``realized_fn(i, e)`` answer for copy i at
    the previous level; ``unsat_fn(v)`` is the endpoint gate.  The query
    route passes accessors that probe as they answer, so the order of
    calls here fixes the order of its probes.  ``b_generic`` decides the
    same predicate on bitmasks (:func:`_valid_walks`), and a
    differential test keeps the two equal.
    """
    if any(s > alpha for s in w.indices):
        raise ValueError("copy index out of range")
    v0, vk = vseq[0], vseq[-1]
    if v0 == vk:
        return False
    if not unsat_fn(v0) or not unsat_fn(vk):
        return False
    adds = w.additions()
    removals = w.removals()
    for e, s in sorted(adds):
        if not realized_fn(s, e):
            return False
    touched = sorted({s for s in w.indices})
    endpoints = (v0, vk)
    for u in sorted(set(vseq)):
        delta = 0
        for i in touched:
            before = False
            after_count = 0
            for e in g.incident(u):
                in_before = member_fn(i, e)
                if in_before:
                    before = True
                in_after = (in_before and (e, i) not in removals) or (e, i) in adds
                if in_after:
                    after_count += 1
            if after_count > 1:
                return False
            delta += (1 if after_count > 0 else 0) - (1 if before else 0)
        required = 1 if u in endpoints else 0
        if delta != required:
            return False
    return True


#
# estimate_q before the component memo: one matcher run per mask, over
# every edge of the mask.


def estimate_q_v0(
    g: Graph,
    samples: int = 10_000,
    ctx: Optional[SeedContext] = None,
    exact: Optional[bool] = None,
) -> QProfile:
    exact, worlds = weighted_realizations(g, samples, ctx, exact, "--q-samples")
    q = [0.0] * g.m
    for mask, weight in worlds:
        if weight <= 0.0:
            continue
        for e in maximum_matching(g, mask):
            q[e] += weight
    runs = 1 if exact else samples
    return QProfile(tuple(x / runs for x in q), exact)


#
# The delta table and build_x before the weights were fixed ahead of the
# trials: the table was a record with a symmetric lookup, and build_x
# re-derived each non-crucial weight and both of its trial-independent
# guards in every trial, from a per-vertex free-probability tuple.


class DeltaTable(NamedTuple):
    """Estimated query-footprint collision probabilities per vertex pair."""

    values: dict

    def get(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        if key not in self.values:
            raise KeyError(f"no delta estimate for vertex pair {key}")
        return self.values[key]


def build_x_v0(
    g: Graph,
    q: QProfile,
    f,
    m_c: frozenset,
    H: frozenset,
    realization: int,
    free_prob: tuple,
    delta: DeltaTable,
    eps: float,
    p_min: float,
    delta_exponent: int,
) -> dict:
    threshold = (eps * p_min) ** delta_exponent
    eps_sq = eps * eps
    mc_cover = matched_vertices(g, m_c)
    crucial = q.crucial
    noncrucial = q.noncrucial
    x = {}
    for e in range(g.m):
        if e in crucial:
            x[e] = 1.0 if (e in m_c and e in H and (realization >> e) & 1) else 0.0
            continue
        if e not in noncrucial:
            x[e] = 0.0
            continue
        fe = f.get(e)
        if fe == 0.0:
            x[e] = 0.0
            continue
        u, v = g.endpoints(e)
        d = delta.get(u, v)
        pf_u = free_prob[u]
        pf_v = free_prob[v]
        if (
            d > threshold
            or pf_u < eps_sq
            or pf_v < eps_sq
            or not (realization >> e) & 1
            or u in mc_cover
            or v in mc_cover
        ):
            x[e] = 0.0
        else:
            x[e] = fe / (g.probability(e) * pf_u * pf_v)
    return x


#
# build_delta_table before query replay: every query ran its engine, and
# an exact pipeline's queries shared only a tape table, of the table's own
# algorithm seed ctx.child("alg") rather than the trials'.


def build_delta_table_v0(
    g: Graph,
    crucial: CrucialSetup,
    pairs: Iterable[tuple],
    trials: int,
    ctx: SeedContext,
    exact: bool = False,
) -> DeltaTable:
    wanted = sorted({(u, v) if u < v else (v, u) for (u, v) in pairs})
    if not wanted:
        return DeltaTable({})
    if trials < 1:
        raise ValueError("trials must be positive")
    sub = crucial.rec.walks.g
    involved = sorted({w for pair in wanted for w in pair})
    hits = {pair: 0 for pair in wanted}
    tapes = None
    for t in range(trials):
        real = sample_realization(sub, ctx.child("real"), t)
        alg_ctx = ctx.child("alg") if exact else ctx.child("alg", t)
        if tapes is None or not exact:
            tapes = TapeTable(alg_ctx, sub)
        lca = BMatchingLca(crucial.rec, real)
        footprints = {}
        for w in involved:
            fp = {w}
            for e in sub.incident(w):
                _, trace = run_lca(lca, sub, Site("edge", e), tapes)
                fp.update(trace.vertex_footprint(sub))
            footprints[w] = fp
        for u, v in wanted:
            if footprints[u] & footprints[v]:
                hits[(u, v)] += 1
    return DeltaTable({pair: hits[pair] / trials for pair in wanted})


#
# ratio_sweep and build_match_prob_table before they shared
# graph.weighted_realizations: each resolved exact mode and ran its own
# exact and sampled loops; the exact table read its own algorithm seed
# ctx.child("alg") rather than the trials'.


def ratio_sweep_v0(
    g: Graph,
    sparsifiers: Sequence[Iterable[int]],
    samples: int,
    ctx: Optional[SeedContext] = None,
    exact: Optional[bool] = None,
) -> list:
    masks = [edge_mask(H) for H in sparsifiers]
    if exact is None:
        exact = g.m <= ENUM_CAP
    if exact:
        den = 0.0
        nums = [0.0] * len(masks)
        for mask, prob in enumerate_realizations(g):
            den += prob * matching_number(g, active=mask)
            for k, h_mask in enumerate(masks):
                nums[k] += prob * matching_number(g, active=mask & h_mask)
        return [
            RatioEstimate(num / den if den > 0 else 1.0, 0.0, True)
            for num in nums
        ]
    if samples < 1:
        raise ValueError("samples must be positive")
    if ctx is None:
        raise ValueError("sampled mode needs a seed context")
    dens = []
    num_cols = [[] for _ in masks]
    for t in range(samples):
        real = sample_realization(g, ctx, t)
        dens.append(matching_number(g, active=real))
        for k, h_mask in enumerate(masks):
            num_cols[k].append(matching_number(g, active=real & h_mask))
    total_d = float(sum(dens))
    out = []
    for nums in num_cols:
        if total_d == 0:
            out.append(RatioEstimate(1.0, 0.0, False))
            continue
        total_n = float(sum(nums))
        ratio = total_n / total_d
        loo = []
        for i in range(samples):
            d = total_d - dens[i]
            loo.append((total_n - nums[i]) / d if d > 0 else 1.0)
        mean_loo = sum(loo) / samples
        var = sum((r - mean_loo) ** 2 for r in loo) * (samples - 1) / samples
        out.append(RatioEstimate(ratio, math.sqrt(var), False))
    return out


def build_match_prob_table_v0(
    g: Graph,
    crucial: CrucialSetup,
    trials: int,
    ctx: SeedContext,
    exact: Optional[bool] = None,
) -> tuple:
    rec = crucial.rec
    sub = rec.walks.g
    if exact is None:
        exact = sub.m <= ENUM_CAP
    if exact:
        alg_ctx = ctx.child("alg")
        worlds = (
            (Realization(sub, mask), prob, alg_ctx) for mask, prob in enumerate_realizations(sub)
        )
    elif trials < 1:
        raise ValueError("trials must be positive")
    else:
        worlds = (
            (Realization(sub, sample_realization(sub, ctx.child("real"), t)), 1,
             ctx.child("alg", t))
            for t in range(trials)
        )
    covered = [0.0] * g.n
    for real, weight, alg_ctx in worlds:
        table = gate_table(rec.gates, sub.n)
        matched = b_generic_v0(
            sub, real, recursion_params(rec), alg_ctx, table=table, walks=rec.walks
        )
        for v in matched_vertices(sub, matched):
            covered[v] += weight
    runs = 1 if exact else trials
    return tuple(1.0 - c / runs for c in covered)


#
# enumerate_realizations before the prefix-product table: one product of
# m factors per mask.


def enumerate_realizations_v0(g: Graph):
    m = g.m
    probs = [g.edges[e][2] for e in range(m)]
    for mask in range(1 << m):
        pr = 1.0
        for e in range(m):
            pr *= probs[e] if (mask >> e) & 1 else 1.0 - probs[e]
        yield Realization(g, mask), pr


#
# b_generic before the calls under one seed shared a store: every call
# derived each edge tape once per lineage that read it, ranked walks
# afresh, and recomputed every fresh-copy subtree.


def _prf_realization_v0(g: Graph, ctx: SeedContext, lineage: tuple) -> Realization:
    present = (
        e for e in range(g.m)
        if _copy_realized(site_tape(ctx, Site("edge", e)), lineage, g.probability(e))
    )
    return Realization(g, edge_mask(present))


def _select_walks_v0(
    profile: Profile,
    walks: WalkIndex,
    table: UnsaturationTable,
    params: BParams,
    ctx: SeedContext,
    lineage: tuple,
    level: int,
    guard,
) -> list:
    """Greedy MIS of augmenting hyperwalks by rank, with each member's
    query re-run under the per-root expansion budget."""
    valid_memo = {}

    def member(i: int, e: int) -> bool:
        return e in profile.matching(i)

    def realized(i: int, e: int) -> bool:
        return profile.realization(i).has(e)

    def unsat(v: int) -> bool:
        return table.unsaturated(v, level - 1, params.margin)

    def valid(w: int) -> bool:
        if w not in valid_memo:
            guard.tick()
            valid_memo[w] = _augmenting_core(
                profile.graph, hyperwalk_of(walks, w), walks.records[w].vseq, profile.alpha,
                member, realized, unsat,
            )
        return valid_memo[w]

    rank_memo = {}

    def rank(w: int) -> tuple:
        if w not in rank_memo:
            walk = hyperwalk_of(walks, w)
            tape = site_tape(ctx, Site("edge", walk.edges[0]))
            rank_memo[w] = _walk_rank(tape, lineage, level, walk)
        return rank_memo[w]

    order = sorted(
        ((rank(w), w) for w in walks.all_walks() if valid(w)), key=lambda t: t[0]
    )
    members = []
    covered = set()
    for _, w in order:
        vs = walks.records[w].vseq
        if all(v not in covered for v in vs):
            members.append(w)
            covered.update(vs)
    if params.mis_budget is None:
        return members
    lower = _walk_lower(valid, rank, walks.neighbors)
    kept = []
    for w in members:
        ok, truncated, calls = greedy_member(w, lower, params.mis_budget)
        guard.tick(calls)
        assert ok or truncated, "sweep member must resolve positively when untruncated"
        if ok:
            kept.append(w)
    return kept


def b_generic_v0(
    g: Graph,
    realization: Realization,
    params: BParams,
    ctx: SeedContext,
    level: Optional[int] = None,
    table: Optional[UnsaturationTable] = None,
    walks: Optional[WalkIndex] = None,
) -> frozenset:
    """Recursive matching of ``realization`` at the given level.

    Copy 0 of each node inherits the parent's realization; copies 1..alpha
    at level r under lineage path sigma are drawn from the PRF namespace
    (sigma, r, i).  The returned edge set is a matching within the input
    realization and is reproducible from (ctx, realization).
    """
    if level is None:
        level = params.depth
    if table is None:
        table = UnsaturationTable.always_unsaturated(g.n, max(1, level))
    if walks is None:
        walks = WalkIndex(g, params.walk_len, params.alpha)
    if walks.alpha != params.alpha or walks.walk_len != params.walk_len:
        raise ValueError("walk index does not match params")
    guard = _Guard()

    def recurse(lineage: tuple, real: Realization, lvl: int) -> frozenset:
        guard.tick()
        if lvl == 0:
            return frozenset()
        pairs = []
        for i in range(params.alpha + 1):
            if i == 0:
                sub_lineage, gi = lineage, real
            else:
                sub_lineage = lineage + (lvl, i)
                gi = _prf_realization_v0(g, ctx, sub_lineage)
            pairs.append((gi, recurse(sub_lineage, gi, lvl - 1)))
        profile = Profile(tuple(pairs))
        chosen = _select_walks_v0(profile, walks, table, params, ctx, lineage, lvl, guard)
        for w in sorted((hyperwalk_of(walks, i) for i in chosen), key=lambda x: x.sort_key):
            profile = apply_hyperwalk(profile, w)
        return profile.matching(0)

    return recurse((), realization, level)


#
# _select_walks before the walk table: each walk's validity went through
# _augmenting_core with per-edge member and realized calls on the
# profile's sets.


def _select_walks_v1(
    profile: Profile,
    walks: WalkIndex,
    table: UnsaturationTable,
    params: BParams,
    level: int,
    rank,
    guard,
) -> list:
    """Greedy MIS of augmenting hyperwalks by rank, with each member's
    query re-run under the per-root expansion budget."""
    valid_memo = {}

    def member(i: int, e: int) -> bool:
        return e in profile.matching(i)

    def realized(i: int, e: int) -> bool:
        return profile.realization(i).has(e)

    def unsat(v: int) -> bool:
        return table.unsaturated(v, level - 1, params.margin)

    def valid(w: int) -> bool:
        if w not in valid_memo:
            guard.tick()
            valid_memo[w] = _augmenting_core(
                profile.graph, hyperwalk_of(walks, w), walks.records[w].vseq, profile.alpha,
                member, realized, unsat,
            )
        return valid_memo[w]

    order = sorted(
        ((rank(w), w) for w in walks.all_walks() if valid(w)), key=lambda t: t[0]
    )
    members = []
    covered = set()
    for _, w in order:
        vs = walks.records[w].vseq
        if all(v not in covered for v in vs):
            members.append(w)
            covered.update(vs)
    if params.mis_budget is None:
        return members
    lower = _walk_lower(valid, rank, walks.neighbors)
    kept = []
    for w in members:
        ok, truncated, calls = greedy_member(w, lower, params.mis_budget)
        guard.tick(calls)
        assert ok or truncated, "sweep member must resolve positively when untruncated"
        if ok:
            kept.append(w)
    return kept


#
# QueryLedger.add_sweep before the in-query index, with ``self`` the
# ledger: q- from a second pass over the out-sets, psi from one
# isdisjoint test per pair of sites.


def add_sweep_pairwise(self, out_sets: dict) -> None:
    qplus = {s: len(out_sets[s]) for s in self.sites}
    qminus = {s: 0 for s in self.sites}
    for s in self.sites:
        for w in out_sets[s]:
            qminus[w] += 1
    psi = {}
    for s in self.sites:
        mine = out_sets[s]
        psi[s] = sum(1 for u in self.sites if not mine.isdisjoint(out_sets[u]))
    self.qplus_rows.append(qplus)
    self.qminus_rows.append(qminus)
    self.psi_rows.append(psi)


#
# The oracle before sites were built once per sweep: every probe and
# every peek ran the full admission check and then looked its site up in
# the tape table.  The LCAs now name sites by plain (kind, id)
# pairs, so both references below turn each into a Site on entry.


class LcaOracleV1(LcaOracle):
    def _adjacent_to_probed(self, site: Site) -> bool:
        if site.kind == "vertex":
            return site.id in self._near
        u, v = self.graph.endpoints(site.id)
        return u in self._touched or v in self._touched

    def _admit(self, site: Site) -> None:
        if site.kind not in ("vertex", "edge"):
            raise ValueError(f"unknown site kind {site.kind!r}")
        if site == self.root or site in self._probed:
            return
        if not self._adjacent_to_probed(site):
            raise NaturalityViolation(
                f"{site} is not adjacent to the probed region of {self.root}"
            )

    def probe(self, site) -> _Tape:
        site = Site(*site)
        self._admit(site)
        if site not in self._probed:
            self._probed[site] = None
            for v in site.vertices(self.graph):
                if v not in self._touched:
                    self._touched[v] = None
                    self._near.add(v)
                    self._near.update(self.graph.neighbors(v))
        return self.tapes[site]

    def peek(self, site) -> _Tape:
        site = Site(*site)
        self._admit(site)
        return self.tapes[site]


#
# The LCA runtime before the tape table and prefix-encoded contexts:
# every probe and every peek derived the site's tape afresh, encoding
# the whole namespace path.


def site_tape_v0(ctx: SeedContext, site: Site) -> SeedContext:
    return SeedContext(ctx.seed, ctx.path + ("tape", site.kind, site.id))


class LcaOracleV0(LcaOracleV1):
    """The oracle before the tape table: a fresh tape per read, and a
    peeked vertex's neighbors scanned against the touched set."""

    def _adjacent_to_probed(self, site: Site) -> bool:
        if site.kind == "vertex":
            if site.id in self._touched:
                return True
            return any(u in self._touched for u in self.graph.neighbors(site.id))
        u, v = self.graph.endpoints(site.id)
        return u in self._touched or v in self._touched

    def probe(self, site) -> SeedContext:
        site = Site(*site)
        self._admit(site)
        if site not in self._probed:
            self._probed[site] = None
            self._touched.update(dict.fromkeys(site.vertices(self.graph)))
        return site_tape_v0(self.tapes.ctx, site)

    def peek(self, site) -> SeedContext:
        site = Site(*site)
        self._admit(site)
        return site_tape_v0(self.tapes.ctx, site)


def run_lca_v0(lca, g: Graph, ctx: SeedContext, root: Site):
    if root.kind != lca.site_kind:
        raise ValueError(f"{lca} expects {lca.site_kind} roots, got {root.kind}")
    oracle = LcaOracleV0(g, root, TapeTable(ctx, g))
    out = lca.run(oracle, root)
    return out, oracle.trace()


def gather_ledger_v0(lca, g: Graph, ctx: SeedContext, trials: int) -> QueryLedger:
    kind = lca.site_kind
    count = g.n if kind == "vertex" else g.m
    ledger = QueryLedger(kind, tuple(Site(kind, i) for i in range(count)))
    for t in range(trials):
        sub = ctx.child("sweep", t)
        ledger.add_sweep({r: run_lca_v0(lca, g, sub, r)[1].out_queries for r in ledger.sites})
    return ledger


#
# Before the MIS engine was merged, vertex MIS (TruncatedGreedyMis.run)
# and walk MIS (_mis_root_query) each had their own recursion.  Both are
# kept here verbatim.  The walk version counted the refused expansion:
# a truncated query reported budget + 1 calls and charged them to the
# node guard.


class _Exhausted(Exception):
    pass


class TruncatedGreedyMisV0:
    """``TruncatedGreedyMis`` with its original recursion."""

    site_kind = "vertex"

    def __init__(self, budget=None) -> None:
        self.budget = budget

    def run(self, oracle, root: Site) -> TmisOutcome:
        g = oracle.graph
        memo = {}
        calls = 0
        limit = self.budget

        def member(v: int) -> bool:
            nonlocal calls
            if v in memo:
                return memo[v]
            if limit is not None and calls >= limit:
                # the threshold is spent; the call that would exceed it
                # never runs, so reported counts stay <= threshold
                raise _Exhausted
            calls += 1
            rank_v = oracle.probe(Site("vertex", v)).uniform("rank"), v
            below = []
            for w in g.neighbors(v):
                rank_w = oracle.peek(Site("vertex", w)).uniform("rank"), w
                if rank_w < rank_v:
                    below.append((rank_w, w))
            below.sort()
            out = True
            for _, w in below:
                if member(w):
                    out = False
                    break
            memo[v] = out
            return out

        try:
            result = member(root.id)
        except _Exhausted:
            oracle.annotate("calls", calls)
            oracle.annotate("truncated", True)
            return TmisOutcome(False, calls, True)
        oracle.annotate("calls", calls)
        oracle.annotate("truncated", False)
        return TmisOutcome(result, calls, False)


class _MisExhausted(Exception):
    pass


def _mis_root_query(root, rank_fn, valid_fn, neighbors_fn, budget):
    """Resolve one membership query in the conflict graph of hyperwalks.

    Members are walks that are valid and have no lower-rank member
    neighbor.  The recursion counts distinct expansions; exceeding the
    budget aborts the whole query with a negative answer.  Returns
    (member, truncated, calls).
    """
    memo = {}
    calls = 0

    def member(w) -> bool:
        nonlocal calls
        if w in memo:
            return memo[w]
        calls += 1
        if budget is not None and calls > budget:
            raise _MisExhausted
        if not valid_fn(w):
            memo[w] = False
            return False
        rank_w = rank_fn(w)
        below = sorted(
            ((rank_fn(x), x) for x in neighbors_fn(w)), key=lambda t: t[0]
        )
        out = True
        for rank_x, x in below:
            if rank_x >= rank_w:
                break
            if member(x):
                out = False
                break
        memo[w] = out
        return out

    try:
        return member(root), False, calls
    except _MisExhausted:
        return False, True, calls


class _EngineV0(_Engine):
    """The query engine with walk-MIS resolved by ``_mis_root_query``;
    every root query's (walk, member, truncated, calls) goes to
    ``lca.mis_log``."""

    def is_in_mis(self, lineage: tuple, w, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._mis:
            return self._mis[key]
        self.ensure_walk(w)
        if not self.is_valid(lineage, w, level):
            self._mis[key] = False
            return False

        def rank(x) -> tuple:
            rkey = (lineage, level, x)
            if rkey not in self._ranks:
                self._ranks[rkey] = self.walk_rank(lineage, level, x)
            return self._ranks[rkey]

        def valid(x) -> bool:
            return self.is_valid(lineage, x, level)

        def neighbors(x) -> tuple:
            for y in self.lca.rec.walks.neighbors(x):
                self.ensure_walk(y)
            return self.lca.rec.walks.neighbors(x)

        ok, truncated, calls = _mis_root_query(
            w, rank, valid, neighbors, self.lca.rec.budget
        )
        self.lca.mis_log.append((w, ok, truncated, calls))
        self.guard.tick(calls)
        self._mis[key] = ok
        return ok


class BMatchingLcaV0(BMatchingLca):
    """``BMatchingLca`` answering through :class:`_EngineV0`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mis_log = []

    def run(self, oracle, root: Site) -> bool:
        engine = _EngineV0(self, oracle)
        out = engine.is_in_matching((), root.id, len(self.rec.gates))
        oracle.annotate("nodes", engine.guard.nodes)
        return out


#
# _augmenting_core and _Engine.is_valid before both routes shared one
# predicate: the query route checked a Walk record with per-edge
# member and realized accessors of its own.  The record's vertices are
# now (u, incidence, required) triples, so the vertex loop unpacks u
# from them instead of zipping the sorted walk vertices in.


def _augmenting_core_v1(
    g: Graph, w, member_fn: Callable, realized_fn: Callable, unsat_fn: Callable
) -> bool:
    """Validity predicate of the query route, on walk record ``w``.

    ``member_fn(i, e)`` and ``realized_fn(i, e)`` answer for copy i at
    the previous level; ``unsat_fn(v)`` is the endpoint gate.  The query
    route passes accessors that probe as they answer, so the order of
    calls here fixes the order of its probes: the additions by edge id,
    then per walk vertex in vertex order, per copy, every incident edge
    in adjacency order.
    """
    if not w.ends:
        return False
    v0, vk = w.vseq[0], w.vseq[-1]
    if not unsat_fn(v0) or not unsat_fn(vk):
        return False
    for e, s in sorted(zip(w.edges[0::2], w.indices[0::2])):
        if not realized_fn(s, e):
            return False
    for u, inc, required in w.vertices:
        delta = 0
        for i, add, rem in w.copies:
            before = 0
            for e in g.incident(u):
                if member_fn(i, e):
                    before |= 1 << e
            x = ((before & ~rem) | add) & inc
            if x & (x - 1):
                return False
            delta += (x != 0) - (before != 0)
        if delta != required:
            return False
    return True


class _EngineV1(_Engine):
    """The query engine with walk validity decided by
    :func:`_augmenting_core_v1`."""

    def is_valid(self, lineage: tuple, w: int, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._valid:
            return self._valid[key]
        self.guard.tick()
        self.ensure_walk(w)
        table = self.lca.table
        margin = self.lca.params.margin

        def sub_lineage(i: int) -> tuple:
            return lineage if i == 0 else lineage + (level, i)

        def member(i: int, e: int) -> bool:
            return self.is_in_matching(sub_lineage(i), e, level - 1)

        def realized(i: int, e: int) -> bool:
            return self.realized(sub_lineage(i), e)

        result = _augmenting_core_v1(
            self.lca.g,
            self._records[w],
            member_fn=member,
            realized_fn=realized,
            unsat_fn=lambda v: table.unsaturated(v, level - 1, margin),
        )
        self._valid[key] = result
        return result


class BMatchingLcaV1(BMatchingLca):
    """``BMatchingLca`` answering through :class:`_EngineV1`, which reads
    its own ``table`` and ``params``; the package's constructor gets the
    recursion of that table's gates of levels 0..depth-1."""

    def __init__(self, g: Graph, params: BParams, root_realization: int) -> None:
        table = UnsaturationTable.always_unsaturated(g.n, max(1, params.depth))
        self.table = table
        self.params = params
        gates = table_gates(table, params.margin)[: params.depth]
        walks = WalkIndex(g, params.walk_len, params.alpha)
        super().__init__(Recursion(walks, gates, params.mis_budget), root_realization)

    def run(self, oracle, root: Site) -> bool:
        engine = _EngineV1(self, oracle)
        out = engine.is_in_matching((), root.id, len(self.rec.gates))
        oracle.annotate("nodes", engine.guard.nodes)
        return out


# _Matcher before its search state was allocated once per matcher: each
# search allocated n-sized parent/base/used arrays, and each blossom
# allocated and scanned an n-sized mark array.


def _active_ids(g: Graph, active) -> list:
    """The edge ids of ``active``: an iterable of edge ids, a bitmask, or
    None for all edges."""
    if active is None:
        return list(range(g.m))
    if isinstance(active, int):
        return mask_edges(active)
    return sorted(active)


class MatcherV0:
    """One matching computation; holds the BFS state arrays."""

    def __init__(self, g: Graph, active) -> None:
        n = g.n
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.eid = {}
        for e in _active_ids(g, active):
            u, v, _ = g.edges[e]
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.eid[u, v] = e
            self.eid[v, u] = e
        self.match = [-1] * n

    def _find_path(self, root: int) -> int:
        n, adj, match = self.n, self.adj, self.match
        self.parent = p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = self._lca(base, p, v, to)
                    blossom = [False] * n
                    self._mark_path(base, p, blossom, v, cur, to)
                    self._mark_path(base, p, blossom, to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    def _lca(self, base, p, a, b):
        marked = set()
        v = a
        while True:
            v = base[v]
            marked.add(v)
            if self.match[v] == -1:
                break
            v = p[self.match[v]]
        v = b
        while True:
            v = base[v]
            if v in marked:
                return v
            v = p[self.match[v]]

    def _mark_path(self, base, p, blossom, v, b, child):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[self.match[v]]] = True
            p[v] = child
            child = self.match[v]
            v = p[self.match[v]]

    def _augment(self, finish: int) -> None:
        v = finish
        while v != -1:
            pv = self.parent[v]
            ppv = self.match[pv]
            self.match[v] = pv
            self.match[pv] = v
            v = ppv

    def run(self, greedy_seed: bool = False) -> None:
        if greedy_seed:
            # Size-only fast path: start from a maximal matching so few
            # augmentation phases remain.  Do not use where the edge
            # set itself matters.
            match = self.match
            for (u, v), _ in sorted(self.eid.items(), key=lambda kv: kv[1]):
                if u < v and match[u] == -1 and match[v] == -1:
                    match[u] = v
                    match[v] = u
        for v in range(self.n):
            if self.match[v] == -1 and self.adj[v]:
                finish = self._find_path(v)
                if finish != -1:
                    self._augment(finish)

    def edge_set(self) -> frozenset:
        out = set()
        for v, w in enumerate(self.match):
            if w > v:
                out.add(self.eid[v, w])
        return frozenset(out)

    def size(self) -> int:
        return sum(1 for v, w in enumerate(self.match) if w > v)


def maximum_matching_v0(g: Graph, active=None) -> frozenset:
    """Deterministic maximum matching, returned as a set of edge ids.

    ``active`` restricts the edge set: an iterable of edge ids, a
    bitmask, or None for all edges.
    """
    m = MatcherV0(g, active)
    m.run()
    return m.edge_set()


def matching_number_v0(g: Graph, active=None) -> int:
    """Size of a maximum matching (value only, greedy-seeded search)."""
    m = MatcherV0(g, active)
    m.run(greedy_seed=True)
    return m.size()


# _Matcher before a blossom kept its bases' member lists: each blossom
# marked its bases, then relabeled by scanning every vertex of the search
# tree, so a search with many blossoms cost tree x blossoms.


class MatcherV1(_Matcher):
    """The matcher whose blossom relabel scans the whole search tree."""

    def _contract(self, q, v, to) -> None:
        base, used = self.base, self.used
        cur = self._lca(v, to)
        marks = []
        self._mark_path(marks, v, cur, to)
        self._mark_path(marks, to, cur, v)
        blossom = set(marks)
        fresh = []
        for i in self.tree:
            if base[i] in blossom:
                base[i] = cur
                if not used[i]:
                    fresh.append(i)
        # The queue order decides the output: enqueue by increasing id.
        fresh.sort()
        for i in fresh:
            used[i] = True
        q.extend(fresh)


def maximum_matching_v1(g: Graph, active: int) -> frozenset:
    m = MatcherV1(g, active)
    m.run()
    return m.edge_set()


def matching_number_v1(g: Graph, active: int) -> int:
    m = MatcherV1(g, active)
    m.run(greedy_seed=True)
    return m.size()
