"""Profiles, augmenting hyperwalks, and the recursive matching procedure.

A profile pairs each of alpha+1 realizations with a matching of it.
A hyperwalk is a walk on the base graph whose j-th edge carries a copy
index s_j; applying it to a profile adds odd-position edges to, and
removes even-position edges from, the matching of their copy.  A walk
is augmenting when the application yields a valid profile again, its
two endpoints each gain one unit of profile degree, every other walk
vertex keeps its degree, and both endpoints are unsaturated.

``b_generic`` computes the recursive matching: at level r it builds the
profile from level r-1 matchings (copy 0 inherits the input realization,
copies 1..alpha draw fresh ones from the PRF), selects a greedy maximal
independent set of augmenting hyperwalks by rank, and returns copy 0's
updated matching; its calls under one algorithm seed share a
:class:`SeedMemo` of what that seed alone fixes.  ``BMatchingLca``
answers single-edge membership queries for the same function by local
exploration; with identical seeds the two routes agree edge for edge,
which the test suite checks exhaustively on small instances.  Under a
``SeedMemo`` a repeated query (same realization, root and depth) is
replayed: its recorded probes go through the oracle again and its
recorded answer and node count are returned.

The two routes decide walk validity in two forms.  ``b_generic`` holds
every copy's realization and matching, so it reads each walk's row of
:meth:`WalkIndex.walk_table` and checks it with integer operations on
edge bitmasks.  The query route learns each membership and realization
bit by probing, in order, so it runs :func:`_augmenting_core` with
per-edge accessors.  A differential test keeps the two forms equal.

Rank-greedy MIS membership over the walk conflict graph runs on
:func:`stochmatch.mis.greedy_member`, the same engine as vertex MIS,
with the same budget rule: ``mis_budget`` caps the distinct expansions
of one root query, the expansion that would exceed it never runs, and a
query that runs out reports non-membership after exactly ``mis_budget``
expansions, which is also what it charges to the node guard.  Positive
answers always come from completed computations, so the selected walk
set stays independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .graph import Graph, Realization, SeedContext, edge_mask, sample_realization
from .lca import Site, _Tape, table_tape
from .matching import matched_vertices
from .mis import greedy_member

WALK_CEILING_DEFAULT = 100_000
NODE_CEILING_DEFAULT = 2_000_000
# deepest recursion either route runs; each level costs a few Python
# frames, and this keeps both routes inside the interpreter's default
# limit of 1,000 frames
DEPTH_LIMIT = 500


class EnumerationTooLarge(RuntimeError):
    """A hyperwalk enumeration would exceed its configured ceiling."""


class ResourceGuard(RuntimeError):
    """A recursive computation exceeded its configured node ceiling."""


@dataclass(frozen=True)
class BParams:
    """Knobs of the recursive matching procedure.

    The paper's asymptotic regime, alpha = 1/eps^7 - 1, walk_len = 2/eps,
    depth = 1/eps^9 and margin = 2 eps^2, lies far beyond enumeration
    reach, so callers pass desk-scale values directly.

    alpha      fresh realizations per level (copy 0 inherits its input)
    walk_len   maximum hyperwalk length
    depth      recursion depth r
    eps        accuracy parameter
    margin     unsaturation slack subtracted from the target marginals
    mis_budget distinct expansions allowed per MIS root query (None: off)
    """

    alpha: int
    walk_len: int
    depth: int
    eps: float
    margin: float
    mis_budget: Optional[int] = None
    walk_ceiling: int = WALK_CEILING_DEFAULT
    node_ceiling: int = NODE_CEILING_DEFAULT

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.walk_len < 1:
            raise ValueError("walk_len must be positive")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.margin < 0.0:
            raise ValueError("margin must be nonnegative")
        if self.mis_budget is not None and self.mis_budget < 1:
            raise ValueError("mis_budget must be positive when set")


# ---------------------------------------------------------------------------
# hyperwalks


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


def _walks_from(g: Graph, start: int, maxlen: int, banned: tuple = ()):
    """All directed edge-distinct walks leaving ``start``, including the
    trivial length-0 walk."""
    first = ((start,), ())
    out = [first]
    stack = [first]
    while stack:
        vseq, eseq = stack.pop()
        if len(eseq) >= maxlen:
            continue
        v = vseq[-1]
        for e in g.incident(v):
            if e in eseq or e in banned:
                continue
            a, b, _ = g.edges[e]
            item = (vseq + (b if a == v else a,), eseq + (e,))
            out.append(item)
            stack.append(item)
    return out


def _directed_walks_touching(g: Graph, v: int, maxlen: int) -> set:
    """Directed walks of length 1..maxlen visiting vertex ``v``."""
    found = set()
    for back_v, back_e in _walks_from(g, v, maxlen):
        rem = maxlen - len(back_e)
        for fwd_v, fwd_e in _walks_from(g, v, rem, banned=back_e):
            if not back_e and not fwd_e:
                continue
            vseq = tuple(reversed(back_v)) + fwd_v[1:]
            eseq = tuple(reversed(back_e)) + fwd_e
            found.add((vseq, eseq))
    return found


class WalkIndex:
    """Lazy registry of all hyperwalks of bounded length on one graph.

    Provides containment lookups (walks through a vertex or an edge),
    conflict adjacency (walks sharing a vertex), and vertex sequences.
    Enumerations beyond ``ceiling`` hyperwalks raise
    :class:`EnumerationTooLarge`.
    """

    def __init__(self, g: Graph, walk_len: int, alpha: int, ceiling: int = WALK_CEILING_DEFAULT) -> None:
        if walk_len < 1:
            raise ValueError("walk_len must be positive")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.g = g
        self.walk_len = walk_len
        self.alpha = alpha
        self.ceiling = ceiling
        self._by_vertex = {}
        self._by_edge = {}
        self._neighbors = {}
        self._vseqs = {}
        self._all = None
        self._table = None

    def _check_ceiling(self, count: int, limit: int) -> None:
        if self.ceiling and count > limit:
            raise EnumerationTooLarge(
                f"more than {self.ceiling} hyperwalks at length {self.walk_len}"
            )

    def _expand(self, directed: set) -> tuple:
        walks = set()
        reps = self.alpha + 1
        for _, eseq in directed:
            span = len(eseq)
            self._check_ceiling(len(walks) + reps**span, self.ceiling * 2)
            for idx in itertools.product(range(reps), repeat=span):
                walks.add(Hyperwalk.make(eseq, idx))
        self._check_ceiling(len(walks), self.ceiling)
        return tuple(sorted(walks, key=lambda w: w.sort_key))

    def walks_through_vertex(self, v: int) -> tuple:
        if v not in self._by_vertex:
            directed = _directed_walks_touching(self.g, v, self.walk_len)
            self._by_vertex[v] = self._expand(directed)
        return self._by_vertex[v]

    def walks_through_edge(self, e: int) -> tuple:
        if e not in self._by_edge:
            u = self.g.endpoints(e)[0]
            self._by_edge[e] = tuple(
                w for w in self.walks_through_vertex(u) if e in w.edges
            )
        return self._by_edge[e]

    def all_walks(self) -> tuple:
        if self._all is None:
            walks = set()
            for v in range(self.g.n):
                walks.update(self.walks_through_vertex(v))
                self._check_ceiling(len(walks), self.ceiling)
            self._all = tuple(sorted(walks, key=lambda w: w.sort_key))
        return self._all

    def walk_table(self) -> tuple:
        """One row per walk of :meth:`all_walks`, in that order, holding
        what the walk-validity check reads as edge and vertex bitmasks:
        ``(walk, ends, top, copies, vertices)``.  ``ends`` has the bits
        of the two endpoints, or is 0 for a closed walk; ``top`` is the
        largest copy index; ``copies`` holds ``(i, additions, removals)``
        per copy the walk touches; ``vertices`` holds ``(incidence,
        required degree change)`` per distinct walk vertex, the change
        being 1 at an endpoint and 0 elsewhere."""
        if self._table is None:
            incidence = [edge_mask(self.g.incident(v)) for v in range(self.g.n)]
            rows = []
            for w in self.all_walks():
                vseq = self.vertices_of(w)
                v0, vk = vseq[0], vseq[-1]
                adds, removals = w.additions(), w.removals()
                copies = tuple(
                    (
                        i,
                        edge_mask(e for e, s in adds if s == i),
                        edge_mask(e for e, s in removals if s == i),
                    )
                    for i in sorted(set(w.indices))
                )
                vertices = tuple(
                    (incidence[u], 1 if u in (v0, vk) else 0) for u in sorted(set(vseq))
                )
                ends = 0 if v0 == vk else (1 << v0) | (1 << vk)
                rows.append((w, ends, max(w.indices), copies, vertices))
            self._table = tuple(rows)
        return self._table

    def vertices_of(self, w: Hyperwalk) -> tuple:
        if w not in self._vseqs:
            self._vseqs[w] = walk_vertices(self.g, w.edges)
        return self._vseqs[w]

    def neighbors(self, w: Hyperwalk) -> tuple:
        """Hyperwalks sharing at least one vertex with ``w``, excluding it."""
        if w not in self._neighbors:
            seen = set()
            for v in sorted(set(self.vertices_of(w))):
                seen.update(self.walks_through_vertex(v))
            seen.discard(w)
            self._neighbors[w] = tuple(sorted(seen, key=lambda x: x.sort_key))
        return self._neighbors[w]


# ---------------------------------------------------------------------------
# profiles


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


@dataclass(frozen=True)
class UnsaturationTable:
    """Per-vertex match marginals: the targets ``a_prob`` and one row of
    recursive-matching marginals per level (row 0 is all zeros)."""

    a_prob: tuple
    b_rows: tuple
    samples: int

    def unsaturated(self, v: int, level: int, margin: float) -> bool:
        if not 0 <= level < len(self.b_rows):
            raise ValueError(f"no marginals for level {level}")
        return self.b_rows[level][v] < self.a_prob[v] - margin

    @classmethod
    def always_unsaturated(cls, n: int, levels: int) -> "UnsaturationTable":
        """Synthetic table: target 1, recursive marginal 0 at all levels.
        Every vertex passes any margin below 1."""
        row = (0.0,) * n
        return cls((1.0,) * n, tuple(row for _ in range(levels + 1)), 0)


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


# ---------------------------------------------------------------------------
# tape formulas and the walk conflict graph, shared by both routes


def _copy_realized(tape: SeedContext | _Tape, lineage: tuple, p: float) -> bool:
    """Whether an edge with probability ``p`` and tape ``tape`` is present
    in the fresh copy drawn under ``lineage``."""
    return tape.uniform("copy", *lineage) < p


def _walk_rank(tape: SeedContext | _Tape, lineage: tuple, level: int, w: Hyperwalk) -> tuple:
    """MIS rank of ``w``, read off the tape of its first edge."""
    u = tape.uniform("misrank", *lineage, level, len(w.edges), *w.edges, *w.indices)
    return (u,) + w.sort_key


def _walk_lower(valid: Callable, rank: Callable, neighbors: Callable) -> Callable:
    """The expansion step handed to :func:`greedy_member`: None for an
    invalid walk, else its lower-rank conflict neighbors in rank order."""

    def lower(w: Hyperwalk) -> Optional[list]:
        if not valid(w):
            return None
        rank_w = rank(w)
        below = sorted(((rank(x), x) for x in neighbors(w)), key=lambda t: t[0])
        return [x for rank_x, x in below if rank_x < rank_w]

    return lower


# ---------------------------------------------------------------------------
# generic (materialized) route


class _Guard:
    def __init__(self, ceiling: int) -> None:
        self.ceiling = ceiling
        self.nodes = 0

    def tick(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.ceiling and self.nodes > self.ceiling:
            raise ResourceGuard(f"computation exceeded {self.ceiling} nodes")


def _check_depth(depth: int) -> None:
    if depth > DEPTH_LIMIT:
        raise ResourceGuard(f"--depth {depth} exceeds the recursion limit of {DEPTH_LIMIT} levels")


class SeedMemo:
    """What one algorithm seed fixes for ``b_generic`` and ``BMatchingLca``,
    shared by their calls.

    Under one scope (g, ctx, table, walks, and the alpha, margin and
    mis_budget of params) each edge tape, each walk rank and each fresh
    copy (index i >= 1) with the matching of its subtree are functions
    of the seed alone.  A fresh subtree never reads the input
    realization, and its lineage names its level.  Copy-0 profiles and
    walk validity read the input, so they stay per call.  So is a whole
    query (realization mask, root edge, depth): its answer, its ordered
    probes and its guard nodes.  The first call binds the memo to its
    scope, and a call under another scope raises.  A subtree or query
    entry keeps the guard nodes its computation ticked, and a hit ticks
    them again, so the node ceiling trips at the same count as without
    the memo.  The values die with the memo; its owner drops it when its
    loop ends.
    """

    def __init__(self) -> None:
        self.scope = None
        self.tapes = {}  # a tape table under the scope's ctx: Site -> _Tape
        self.ranks = {}  # (lineage, level, walk) -> rank
        self.copies = {}  # lineage -> (realization, subtree matching, guard nodes)
        self.queries = {}  # (mask, root edge, depth) -> (answer, probed sites, guard nodes)

    def bind(self, scope: tuple) -> None:
        if self.scope is None:
            self.scope = scope
        elif self.scope != scope:
            raise ValueError("memo belongs to another algorithm seed or setup")


def _scope(g: Graph, ctx: SeedContext, table, walks, params: BParams) -> tuple:
    """What a :class:`SeedMemo`'s values are functions of."""
    return (g, ctx, table, walks, params.alpha, params.margin, params.mis_budget)


def _augments(copies: tuple, vertices: tuple, reals: list, matches: list) -> bool:
    """A walk-table row's check past its endpoint gates, on bitmasks.

    ``reals[i]`` and ``matches[i]`` are copy i's realization and
    matching masks.  Each addition must be realized in its copy.  At
    each walk vertex and copy, ``x`` is the vertex's matched edges after
    the application; ``x & (x - 1)`` is nonzero when two are left, and
    the vertex's degree change over the copies must equal its required
    one.  This decides as :func:`_augmenting_core` does.
    """
    changed = []
    for i, add, rem in copies:
        if add & ~reals[i]:
            return False
        before = matches[i]
        changed.append((before, (before & ~rem) | add))
    for inc, required in vertices:
        delta = 0
        for before, after in changed:
            x = after & inc
            if x & (x - 1):
                return False
            delta += (x != 0) - (before & inc != 0)
        if delta != required:
            return False
    return True


def _valid_walks(
    rows: tuple, reals: list, matches: list, alpha: int, gates: Callable, tick: Callable
) -> list:
    """The walks of ``rows`` (a :meth:`WalkIndex.walk_table`) that augment
    the profile with realization masks ``reals`` and matching masks
    ``matches``, in row order.

    Every row ticks once.  ``gates()`` returns the bitmask of unsaturated
    vertices; it is called once, at the first walk with two distinct
    endpoints, which is where a per-walk check first reads a gate.
    """
    out = []
    unsat = None
    for w, ends, top, copies, vertices in rows:
        tick()
        if top > alpha:
            raise ValueError("copy index out of range")
        if not ends:
            continue
        if unsat is None:
            unsat = gates()
        if unsat & ends == ends and _augments(copies, vertices, reals, matches):
            out.append(w)
    return out


def _select_walks(
    profile: Profile,
    walks: WalkIndex,
    table: UnsaturationTable,
    params: BParams,
    level: int,
    rank: Callable,
    guard: _Guard,
) -> list:
    """Greedy MIS of augmenting hyperwalks by rank, with each member's
    query re-run under the per-root expansion budget."""
    g = profile.graph

    def gates() -> int:
        return sum(
            1 << v for v in range(g.n) if table.unsaturated(v, level - 1, params.margin)
        )

    valid = _valid_walks(
        walks.walk_table(),
        [real.present for real, _ in profile.pairs],
        [edge_mask(matching) for _, matching in profile.pairs],
        profile.alpha,
        gates,
        guard.tick,
    )
    order = sorted(((rank(w), w) for w in valid), key=lambda t: t[0])
    members = []
    covered = set()
    for _, w in order:
        vs = walks.vertices_of(w)
        if all(v not in covered for v in vs):
            members.append(w)
            covered.update(vs)
    if params.mis_budget is None:
        return members
    lower = _walk_lower(frozenset(valid).__contains__, rank, walks.neighbors)
    kept = []
    for w in members:
        ok, truncated, calls = greedy_member(w, lower, params.mis_budget)
        guard.tick(calls)
        if not (ok or truncated):
            raise RuntimeError(f"sweep member {w} resolved negatively without truncation")
        if ok:
            kept.append(w)
    return kept


def b_generic(
    g: Graph,
    realization: Realization,
    params: BParams,
    ctx: SeedContext,
    level: Optional[int] = None,
    table: Optional[UnsaturationTable] = None,
    walks: Optional[WalkIndex] = None,
    memo: Optional[SeedMemo] = None,
) -> frozenset:
    """Recursive matching of ``realization`` at the given level.

    Copy 0 of each node inherits the parent's realization; copies 1..alpha
    at level r under lineage path sigma are drawn from the PRF namespace
    (sigma, r, i).  The returned edge set is a matching within the input
    realization and is reproducible from (ctx, realization).  ``memo``
    is shared by calls under one scope (see :class:`SeedMemo`); without
    it the call keeps its own.
    """
    if level is None:
        level = params.depth
    _check_depth(level)
    if table is None:
        table = UnsaturationTable.always_unsaturated(g.n, max(1, level))
    if walks is None:
        walks = WalkIndex(g, params.walk_len, params.alpha, params.walk_ceiling)
    if walks.alpha != params.alpha or walks.walk_len != params.walk_len:
        raise ValueError("walk index does not match params")
    if memo is None:
        memo = SeedMemo()
    memo.bind(_scope(g, ctx, table, walks, params))
    tapes, ranks, copies = memo.tapes, memo.ranks, memo.copies
    guard = _Guard(params.node_ceiling)

    def tape(e: int) -> _Tape:
        return table_tape(tapes, ctx, Site.edge(e))

    def recurse(lineage: tuple, real: Realization, lvl: int) -> frozenset:
        guard.tick()
        if lvl == 0:
            return frozenset()
        pairs = [(real, recurse(lineage, real, lvl - 1))]
        for i in range(1, params.alpha + 1):
            sub_lineage = lineage + (lvl, i)
            hit = copies.get(sub_lineage)
            if hit is None:
                start = guard.nodes
                gi = Realization(g, edge_mask(
                    e for e in range(g.m)
                    if _copy_realized(tape(e), sub_lineage, g.probability(e))
                ))
                matching = recurse(sub_lineage, gi, lvl - 1)
                hit = copies[sub_lineage] = (gi, matching, guard.nodes - start)
            else:
                guard.tick(hit[2])
            pairs.append(hit[:2])
        profile = Profile(tuple(pairs))

        def rank(w: Hyperwalk) -> tuple:
            key = (lineage, lvl, w)
            r = ranks.get(key)
            if r is None:
                r = ranks[key] = _walk_rank(tape(w.edges[0]), lineage, lvl, w)
            return r

        chosen = _select_walks(profile, walks, table, params, lvl, rank, guard)
        for w in sorted(chosen, key=lambda x: x.sort_key):
            profile = apply_hyperwalk(profile, w)
        return profile.matching(0)

    return recurse((), realization, level)


def build_unsaturation_table(
    g: Graph,
    params: BParams,
    level: int,
    samples: int,
    ctx: SeedContext,
    a_prob: Iterable[float],
    walks: Optional[WalkIndex] = None,
) -> UnsaturationTable:
    """Monte Carlo match marginals of the recursive matching, per level.

    Row l is estimated by running level-l computations on ``samples``
    fresh realizations; rows are built bottom-up since level l consults
    row l-1 for its endpoint gates.  ``a_prob`` supplies the target
    marginals (for a matched-realization target these are the per-vertex
    q loads, which the caller knows from its q profile).
    """
    a_prob = tuple(a_prob)
    if len(a_prob) != g.n:
        raise ValueError("a_prob must have one entry per vertex")
    if samples < 1:
        raise ValueError("samples must be positive")
    if walks is None:
        walks = WalkIndex(g, params.walk_len, params.alpha, params.walk_ceiling)
    rows = [(0.0,) * g.n]
    for lvl in range(1, level + 1):
        partial = UnsaturationTable(a_prob, tuple(rows), samples)
        hits = [0] * g.n
        for s in range(samples):
            sub = ctx.child("unsat", lvl, s)
            real = sample_realization(g, sub.child("input"), 0)
            matched = b_generic(g, real, params, sub.child("alg"), lvl, partial, walks)
            for v in matched_vertices(g, matched):
                hits[v] += 1
        rows.append(tuple(h / samples for h in hits))
    return UnsaturationTable(a_prob, tuple(rows), samples)


# ---------------------------------------------------------------------------
# local-computation route


class _Engine:
    """Memoized recursion behind one instrumented root query.

    Tapes are read through ``oracle``, which records the probed region:
    every edge whose realization or matching status is consulted gets
    probed, walks are probed in a connected order, and ranks are read
    off the first walk edge's tape.
    """

    def __init__(self, lca: "BMatchingLca", oracle) -> None:
        self.lca = lca
        self.oracle = oracle
        self._probed = oracle.probed
        self._touched = oracle.touched
        self.guard = _Guard(lca.params.node_ceiling)
        self._match = {}
        self._mis = {}
        self._valid = {}
        self._ranks = {}

    def touch_edge(self, e: int) -> None:
        # a plain (kind, id) tuple matches the oracle's Site keys, and
        # skipping known edges spares probe's naturality check
        if ("edge", e) not in self._probed:
            self.oracle.probe(Site.edge(e))

    def ensure_walk(self, w: Hyperwalk) -> None:
        edges = w.edges
        probed, touched = self._probed, self._touched
        for e in edges:
            if ("edge", e) not in probed:
                break
        else:
            return
        anchor = None
        for j, e in enumerate(edges):
            u, v = self.lca.g.endpoints(e)
            if ("edge", e) in probed or u in touched or v in touched:
                anchor = j
                break
        if anchor is None:
            anchor = 0  # let the runtime flag the violation on probe
        for j in range(anchor, -1, -1):
            self.touch_edge(edges[j])
        for j in range(anchor + 1, len(edges)):
            self.touch_edge(edges[j])

    def realized(self, lineage: tuple, e: int) -> bool:
        self.touch_edge(e)
        if not lineage:
            return self.lca.root_realization.has(e)
        tape = self.oracle.peek(Site.edge(e))
        return _copy_realized(tape, lineage, self.lca.g.probability(e))

    def walk_rank(self, lineage: tuple, level: int, w: Hyperwalk) -> tuple:
        self.ensure_walk(w)
        return _walk_rank(self.oracle.peek(Site.edge(w.edges[0])), lineage, level, w)

    def is_in_matching(self, lineage: tuple, e: int, level: int) -> bool:
        key = (lineage, e, level)
        if key in self._match:
            return self._match[key]
        self.guard.tick()
        self.touch_edge(e)
        if level == 0:
            self._match[key] = False
            return False
        result = self.is_in_matching(lineage, e, level - 1)
        for w in self.lca.walks.walks_through_edge(e):
            # only copy-0 entries at e can change this answer
            removed = (e, 0) in w.removals()
            added = (e, 0) in w.additions()
            if not (removed or added):
                continue
            if self.is_in_mis(lineage, w, level):
                result = not removed
        self._match[key] = result
        return result

    def is_in_mis(self, lineage: tuple, w: Hyperwalk, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._mis:
            return self._mis[key]
        self.ensure_walk(w)
        if not self.is_valid(lineage, w, level):
            # invalid walks are non-members and, with budgets >= 1, their
            # root queries can never truncate; skip the expansion
            self._mis[key] = False
            return False

        def rank(x: Hyperwalk) -> tuple:
            rkey = (lineage, level, x)
            if rkey not in self._ranks:
                self._ranks[rkey] = self.walk_rank(lineage, level, x)
            return self._ranks[rkey]

        def valid(x: Hyperwalk) -> bool:
            return self.is_valid(lineage, x, level)

        def neighbors(x: Hyperwalk) -> tuple:
            for y in self.lca.walks.neighbors(x):
                self.ensure_walk(y)
            return self.lca.walks.neighbors(x)

        lower = _walk_lower(valid, rank, neighbors)
        ok, _, calls = greedy_member(w, lower, self.lca.params.mis_budget)
        self.guard.tick(calls)
        self._mis[key] = ok
        return ok

    def is_valid(self, lineage: tuple, w: Hyperwalk, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._valid:
            return self._valid[key]
        self.guard.tick()
        self.ensure_walk(w)
        g = self.lca.g
        vseq = self.lca.walks.vertices_of(w)
        table = self.lca.table
        margin = self.lca.params.margin

        def sub_lineage(i: int) -> tuple:
            return lineage if i == 0 else lineage + (level, i)

        def member(i: int, e: int) -> bool:
            return self.is_in_matching(sub_lineage(i), e, level - 1)

        def realized(i: int, e: int) -> bool:
            return self.realized(sub_lineage(i), e)

        result = _augmenting_core(
            g,
            w,
            vseq,
            self.lca.params.alpha,
            member_fn=member,
            realized_fn=realized,
            unsat_fn=lambda v: table.unsaturated(v, level - 1, margin),
        )
        self._valid[key] = result
        return result


class BMatchingLca:
    """Edge-membership queries against the recursive matching.

    ``run`` (through :func:`stochmatch.lca.run_lca`) answers one root
    query with full probe instrumentation and fresh memos; it is the
    only query route.  With a ``memo`` shared by queries under one
    algorithm seed, a repeated query replays its recorded probes through
    the oracle, so naturality is checked again, and returns its recorded
    answer and node count (see :class:`SeedMemo`).
    """

    site_kind = "edge"

    def __init__(
        self,
        g: Graph,
        params: BParams,
        root_realization: Realization,
        table: Optional[UnsaturationTable] = None,
        walks: Optional[WalkIndex] = None,
        memo: Optional[SeedMemo] = None,
    ) -> None:
        if root_realization.graph is not g:
            raise ValueError("realization belongs to a different graph")
        _check_depth(params.depth)
        self.g = g
        self.params = params
        self.root_realization = root_realization
        self.table = table if table is not None else UnsaturationTable.always_unsaturated(
            g.n, max(1, params.depth)
        )
        self.walks = walks if walks is not None else WalkIndex(
            g, params.walk_len, params.alpha, params.walk_ceiling
        )
        if self.walks.alpha != params.alpha or self.walks.walk_len != params.walk_len:
            raise ValueError("walk index does not match params")
        self.memo = memo

    def run(self, oracle, root: Site) -> bool:
        memo, params = self.memo, self.params
        if memo is not None:
            memo.bind(_scope(self.g, oracle.ctx, self.table, self.walks, params))
            key = (self.root_realization.present, root.id, params.depth)
            hit = memo.queries.get(key)
            if hit is not None:
                out, probed, nodes = hit
                for site in probed:
                    oracle.probe(site)
                _Guard(params.node_ceiling).tick(nodes)
                oracle.annotate("nodes", nodes)
                return out
        engine = _Engine(self, oracle)
        out = engine.is_in_matching((), root.id, params.depth)
        oracle.annotate("nodes", engine.guard.nodes)
        if memo is not None:
            memo.queries[key] = (out, tuple(oracle.probed), engine.guard.nodes)
        return out

