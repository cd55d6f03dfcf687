"""Augmenting hyperwalks and the recursive matching procedure.

The recursion holds alpha+1 copies, each a realization with a matching
of it, both as int edge masks (bit e set for edge e).  A hyperwalk is a
walk on the base graph whose j-th edge carries a copy index s_j;
applying it adds odd-position edges to, and removes even-position edges
from, the matching of their copy.  A walk is augmenting when after the
application every copy's matching is again a matching inside its
realization, its two endpoints each gain one unit of degree summed over
the copies, every other walk vertex keeps its degree, and both
endpoints are open at the level below.  A vertex is open at level l
when it is unsaturated there: its level-l match marginal lies below its
target minus the margin.  So each level's gate is a vertex set, held as
one bitmask per level (:func:`gate_masks`), and level r reads
``gates[r - 1]``.  Both routes take one :class:`Recursion`: the walk
index, whose graph and copies it is, the gates, whose count is the
depth, and the MIS budget, so no two of their inputs can disagree.

``b_generic`` computes the recursive matching: at level r it builds the
copies from level r-1 matchings (copy 0 inherits the input realization,
copies 1..alpha draw fresh ones from the PRF), selects a greedy maximal
independent set of augmenting hyperwalks by rank, applies them to the
matching masks, and returns copy 0's matching.  ``BMatchingLca``
answers single-edge membership queries for the same function by local
exploration; with identical seeds the two routes agree edge for edge,
which the test suite checks exhaustively on small instances.

Both routes read the algorithm seed's tapes through the caller's
:class:`~stochmatch.lca.TapeTable`, the one store of what the seed
fixes: besides the tapes and their values, its ``derived`` dict holds
each fresh copy's subtree for ``b_generic`` and each query's answer,
probes and node count for the query route, keyed by the
:class:`Recursion` and the other inputs besides the seed and the graph.
A repeated query is replayed: its recorded probes go through the oracle
again and its recorded answer and node count are returned.

Both routes name a walk by the int id that :class:`WalkIndex` gave it
when it first enumerated it, and read one record per id (a
:class:`Walk`): its edges and copy indices, vertex sequence, sort key,
and the bitmasks that decide its validity.  Ranks, memos and conflict
lists all key on ids.  Both routes decide validity with one predicate,
:func:`_augments`, on that record; they differ only in how it reads the
copies.  ``b_generic`` holds every copy's realization and matching
masks and answers with integer operations on them; the query route
learns each membership and realization bit by probing, so the order in
which the predicate reads fixes the order of its probes.  The gates are
not probed, so reading them first moves no probe.

Rank-greedy MIS membership over the walk conflict graph runs on
:func:`stochmatch.mis.greedy_member`, the same engine as vertex MIS,
with the same budget rule: the budget caps the distinct expansions of
one root query, the expansion that would exceed it never runs, and a
query that runs out reports non-membership after exactly that many
expansions, which is also what it charges to the node guard.  Positive
answers always come from completed computations, so the selected walk
set stays independent.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graph import Graph, ResourceGuard, SeedContext, edge_mask, mask_edges, sample_realization
from .lca import Site, TapeTable, _Tape
from .matching import matched_vertices
from .mis import greedy_member

# most hyperwalks one WalkIndex enumerates
WALK_CEILING = 100_000
# most guard nodes one b_generic call or root query ticks
NODE_CEILING = 2_000_000
# deepest recursion either route runs; each level costs a few Python
# frames, and this keeps both routes inside the interpreter's default
# limit of 1,000 frames
DEPTH_LIMIT = 500


class BParams(NamedTuple):
    """Knobs of the recursive matching procedure.

    The paper's asymptotic regime, alpha = 1/eps^7 - 1, walk_len = 2/eps,
    depth = 1/eps^9 and margin = 2 eps^2, lies far beyond enumeration
    reach, so callers pass desk-scale values directly.

    alpha      fresh realizations per level (copy 0 inherits its input)
    walk_len   maximum hyperwalk length
    depth      recursion depth r
    margin     unsaturation slack subtracted from the target marginals
    mis_budget distinct expansions allowed per MIS root query (None: off)

    The record does not check its values: each knob's range is checked
    once, where it enters, by ``cli.ExperimentConfig``.  The work limits
    ``WALK_CEILING``, ``NODE_CEILING`` and ``DEPTH_LIMIT`` are module
    constants.
    """

    alpha: int
    walk_len: int
    depth: int
    margin: float
    mis_budget: Optional[int]


# ---------------------------------------------------------------------------
# hyperwalks


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


class Walk(NamedTuple):
    """The record of one interned hyperwalk.

    ``edges`` is the edge walk and ``indices`` its copy index per
    position; odd positions (1-based) are additions, even positions
    removals.  ``vseq`` is the vertex sequence v_0..v_k (a single edge's
    in the orientation its enumeration met first), and ``sort_key`` is
    (length, edges, indices).  The rest is what the validity check
    reads as bitmasks: ``ends`` has the bits of the two endpoints, or is
    0 for a closed walk; ``copies`` holds ``(i, additions, removals)``
    edge masks per copy the walk touches, in copy order; ``vertices``
    holds ``(u, incidence, required degree change)`` per distinct walk
    vertex u, in vertex order, the incidence being the mask of u's edges
    and the change 1 at an endpoint and 0 elsewhere.
    """

    edges: tuple
    indices: tuple
    vseq: tuple
    sort_key: tuple
    ends: int
    copies: tuple
    vertices: tuple


class WalkIndex:
    """Lazy registry of all hyperwalks of bounded length on one graph,
    each interned as an int id.

    A hyperwalk's edges are distinct and consecutive edges share an
    endpoint.  A walk of odd length acts identically to its reversal, so
    those pairs are kept in one canonical orientation, the smaller of
    (edges, indices) and its reverse; even-length walks change meaning
    under reversal and keep their direction.

    Enumeration stays local: the walks through a vertex are enumerated
    on first request, and a walk gets the next id the first time one of
    them finds it.  ``records[i]`` is walk i's :class:`Walk`, and every
    lookup (walks through a vertex or an edge, all walks, conflict
    neighbors) returns ids in ``sort_key`` order, so no order depends on
    the ids.  Enumerations beyond ``WALK_CEILING`` hyperwalks raise
    :class:`ResourceGuard`.
    """

    def __init__(self, g: Graph, walk_len: int, alpha: int) -> None:
        self.g = g
        self.walk_len = walk_len
        self.alpha = alpha
        self.records = []  # id -> Walk
        self._ids = {}  # (edges, indices) -> id
        self._incidence = [edge_mask(g.incident(v)) for v in range(g.n)]
        self._by_vertex = {}
        self._by_edge = {}
        self._neighbors = {}  # id -> ids
        self._all = None

    def _check_ceiling(self, count: int, limit: int) -> None:
        if count > limit:
            raise ResourceGuard(f"more than {WALK_CEILING} hyperwalks at length {self.walk_len}")

    def _intern(self, edges: tuple, indices: tuple, vseq: tuple) -> int:
        i = self._ids.get((edges, indices))
        if i is None:
            i = self._ids[edges, indices] = len(self.records)
            adds = tuple(zip(edges[0::2], indices[0::2]))
            removals = tuple(zip(edges[1::2], indices[1::2]))
            copies = tuple(
                (
                    c,
                    edge_mask(e for e, s in adds if s == c),
                    edge_mask(e for e, s in removals if s == c),
                )
                for c in sorted(set(indices))
            )
            v0, vk = vseq[0], vseq[-1]
            vertices = tuple(
                (u, self._incidence[u], 1 if u in (v0, vk) else 0) for u in sorted(set(vseq))
            )
            ends = 0 if v0 == vk else (1 << v0) | (1 << vk)
            key = (len(edges), edges, indices)
            self.records.append(Walk(edges, indices, vseq, key, ends, copies, vertices))
        return i

    def _sorted(self, ids: Iterable[int]) -> tuple:
        return tuple(sorted(ids, key=lambda i: self.records[i].sort_key))

    def _expand(self, directed: set) -> tuple:
        found = {}  # canonical (edges, indices) -> vertex sequence
        reps = self.alpha + 1
        for vseq, eseq in directed:
            span = len(eseq)
            self._check_ceiling(len(found) + reps**span, WALK_CEILING * 2)
            for idx in itertools.product(range(reps), repeat=span):
                if span % 2 == 1 and (eseq[::-1], idx[::-1]) < (eseq, idx):
                    found.setdefault((eseq[::-1], idx[::-1]), vseq[::-1])
                else:
                    found.setdefault((eseq, idx), vseq)
        self._check_ceiling(len(found), WALK_CEILING)
        order = sorted(found, key=lambda k: (len(k[0]),) + k)
        return tuple(self._intern(*k, found[k]) for k in order)

    def walks_through_vertex(self, v: int) -> tuple:
        if v not in self._by_vertex:
            directed = _directed_walks_touching(self.g, v, self.walk_len)
            self._by_vertex[v] = self._expand(directed)
        return self._by_vertex[v]

    def walks_through_edge(self, e: int) -> tuple:
        if e not in self._by_edge:
            u = self.g.endpoints(e)[0]
            self._by_edge[e] = tuple(
                i for i in self.walks_through_vertex(u) if e in self.records[i].edges
            )
        return self._by_edge[e]

    def all_walks(self) -> tuple:
        if self._all is None:
            ids = set()
            for v in range(self.g.n):
                ids.update(self.walks_through_vertex(v))
                self._check_ceiling(len(ids), WALK_CEILING)
            self._all = self._sorted(ids)
        return self._all

    def neighbors(self, i: int) -> tuple:
        """Ids of the hyperwalks sharing at least one vertex with walk
        ``i``, excluding it."""
        if i not in self._neighbors:
            seen = set()
            for v in sorted(set(self.records[i].vseq)):
                seen.update(self.walks_through_vertex(v))
            seen.discard(i)
            self._neighbors[i] = self._sorted(seen)
        return self._neighbors[i]


def gate_masks(a_prob: Sequence[float], rows: Iterable[Sequence[float]], margin: float) -> tuple:
    """One open-vertex bitmask per row of marginals: bit v of entry l is
    set when vertex v is unsaturated at level l, ``rows[l][v] < a_prob[v]
    - margin``, its level-l match marginal below its target minus the
    margin."""
    return tuple(
        edge_mask(v for v, b in enumerate(row) if b < a_prob[v] - margin) for row in rows
    )


def open_gates(n: int, levels: int, margin: float) -> tuple:
    """The gates of ``levels`` levels without a table: targets 1 and
    marginals 0, so every vertex is open under a margin below 1 and every
    gate is shut under a margin of 1 or more.  A depth past
    ``DEPTH_LIMIT`` is refused before any gate is built."""
    check_depth(levels)
    return gate_masks((1.0,) * n, ((0.0,) * n,) * levels, margin)


class Recursion(NamedTuple):
    """The inputs of a recursive matching besides the seed and the input
    realization: the walk index ``walks`` (its graph ``walks.g``, and
    ``walks.alpha + 1`` copies per node), the open-vertex mask of each
    level 0..depth-1 in ``gates`` (so the depth is ``len(gates)``), and
    the distinct expansions ``budget`` allowed per MIS root query (None:
    off).  What a tape table stores for a recursion is keyed by it."""

    walks: WalkIndex
    gates: tuple
    budget: Optional[int]


# ---------------------------------------------------------------------------
# tape formulas and the walk conflict graph, shared by both routes


def _copy_realized(tape: SeedContext | _Tape, lineage: tuple, p: float) -> bool:
    """Whether an edge with probability ``p`` and tape ``tape`` is present
    in the fresh copy drawn under ``lineage``."""
    return tape.uniform("copy", *lineage) < p


def _walk_rank(tape: SeedContext | _Tape, lineage: tuple, level: int, w: Walk) -> tuple:
    """MIS rank of the walk with record ``w``, read off the tape of its
    first edge; its sort key breaks ties."""
    u = tape.uniform("misrank", *lineage, level, len(w.edges), *w.edges, *w.indices)
    return (u,) + w.sort_key


def _walk_lower(valid: Callable, rank: Callable, neighbors: Callable) -> Callable:
    """The expansion step handed to :func:`greedy_member`: None for an
    invalid walk, else its lower-rank conflict neighbors in rank order.
    Every neighbor's rank is read, in neighbor order, before the
    lower-rank ones are sorted."""

    def lower(w: int) -> Optional[list]:
        if not valid(w):
            return None
        rank_w = rank(w)
        return sorted([x for x in neighbors(w) if rank(x) < rank_w], key=rank)

    return lower


# ---------------------------------------------------------------------------
# generic (materialized) route


class _Guard:
    def __init__(self) -> None:
        self.nodes = 0

    def tick(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > NODE_CEILING:
            raise ResourceGuard(f"computation exceeded {NODE_CEILING} nodes")


def check_depth(depth: int) -> None:
    """The one depth limit: ``cli.ExperimentConfig`` calls it before a
    graph loads, and both routes and the gate builders keep it as their
    backstop."""
    if depth > DEPTH_LIMIT:
        raise ResourceGuard(f"--depth {depth} exceeds the recursion limit of {DEPTH_LIMIT} levels")


def _augments(w: Walk, gate: int, realized: Callable, before: Callable) -> bool:
    """Whether walk record ``w`` augments the copies: the one validity
    predicate of both routes.

    The walk must be open, with both endpoints in the open-vertex mask
    ``gate``.  ``realized(i, add)`` says whether copy i realizes every
    edge of the mask ``add``, and ``before(i, u, inc)`` is copy i's
    matched edges at walk vertex u, whose incident edges are the mask
    ``inc``.  Each copy's additions must be realized.  At each walk
    vertex and copy, ``x`` is the vertex's matched edges after the
    application; ``x & (x - 1)`` is nonzero when two are left, and the
    vertex's degree change over the copies must equal its required one.

    ``b_generic`` answers both from whole masks.  The query route's
    accessors probe as they answer, so the order of the ``before`` calls
    is its probe order: walk vertices in ascending order, then copies in
    ascending order, and the accessor reads each vertex's incident edges
    in adjacency order.  Its ``realized`` reads no new site, since every
    edge of the walk is probed before the check.
    """
    if not (w.ends and gate & w.ends == w.ends):
        return False
    for i, add, _ in w.copies:
        if not realized(i, add):
            return False
    for u, inc, required in w.vertices:
        delta = 0
        for i, add, rem in w.copies:
            b = before(i, u, inc)
            x = ((b & ~rem) | add) & inc
            if x & (x - 1):
                return False
            delta += (x != 0) - (b != 0)
        if delta != required:
            return False
    return True


def _valid_walks(walks: WalkIndex, reals: list, matches: list, gate: int, tick: Callable) -> list:
    """The ids of :meth:`WalkIndex.all_walks` whose walks augment the
    copies with realization masks ``reals`` and matching masks
    ``matches`` past the open-vertex mask ``gate``, in that order.  Every
    walk ticks once."""

    def realized(i: int, add: int) -> bool:
        return not add & ~reals[i]

    def before(i: int, u: int, inc: int) -> int:
        return matches[i] & inc

    records = walks.records
    out = []
    for w in walks.all_walks():
        tick()
        if _augments(records[w], gate, realized, before):
            out.append(w)
    return out


def _select_walks(
    reals: list, matches: list, rec: Recursion, gate: int, rank: Callable, guard: _Guard
) -> list:
    """Greedy MIS by rank of the walks of ``rec.walks`` that augment the
    copies with realization masks ``reals`` and matching masks
    ``matches`` past the open-vertex mask ``gate``, with each member's
    query re-run under ``rec.budget``.  Returns the members' ids in rank
    order."""
    walks = rec.walks
    valid = _valid_walks(walks, reals, matches, gate, guard.tick)
    members = []
    covered = set()
    for w in sorted(valid, key=rank):
        vs = walks.records[w].vseq
        if covered.isdisjoint(vs):
            members.append(w)
            covered.update(vs)
    if rec.budget is None:
        return members
    lower = _walk_lower(set(valid).__contains__, rank, walks.neighbors)
    kept = []
    for w in members:
        ok, truncated, calls = greedy_member(w, lower, rec.budget)
        guard.tick(calls)
        if not (ok or truncated):
            member = walks.records[w]
            raise RuntimeError(
                f"sweep member with edges {member.edges} and copies {member.indices} "
                "resolved negatively without truncation"
            )
        if ok:
            kept.append(w)
    return kept


def b_generic(rec: Recursion, realization: int, tapes: TapeTable) -> frozenset:
    """Recursive matching of depth ``len(rec.gates)`` of the realization
    with edge mask ``realization`` on ``rec.walks.g``, level r admitting
    walks past ``rec.gates[r - 1]``, under the algorithm seed
    ``tapes.ctx``.

    Each recursion node holds one realization mask and one matching mask
    per copy.  Copy 0 inherits the parent's realization; copies 1..alpha
    at level r under lineage path sigma are drawn from the PRF namespace
    (sigma, r, i).  Only copy 0's matching leaves a node, so each chosen
    walk applies just its copy-0 moves, ``match = (match | additions) &
    ~removals``; the chosen walks are vertex-disjoint, so their order
    does not matter.  The returned edge set is a matching within the
    input realization and is reproducible from (ctx, realization).

    ``tapes`` is the caller's tape table of the seed on the recursion's
    graph, shared by the calls under that seed.  A fresh copy never
    reads the input realization and its lineage names its level, so its
    realization, the matching of its subtree and the guard nodes that
    subtree ticked are stored on the table under ``("copy", rec,
    lineage)``.  A hit ticks those nodes again, so the node ceiling trips
    at the same count as on a fresh table.
    """
    walks, gates, _ = rec
    g = walks.g
    check_depth(len(gates))
    if tapes.graph is not g:
        raise ValueError("tape table belongs to another graph")
    derived = tapes.derived
    records = walks.records
    guard = _Guard()

    def recurse(lineage: tuple, real: int, lvl: int) -> int:
        guard.tick()
        if lvl == 0:
            return 0
        reals = [real]
        matches = [recurse(lineage, real, lvl - 1)]
        for i in range(1, walks.alpha + 1):
            sub_lineage = lineage + (lvl, i)
            key = ("copy", rec, sub_lineage)
            hit = derived.get(key)
            if hit is None:
                start = guard.nodes
                gi = edge_mask(
                    e for e in range(g.m)
                    if _copy_realized(tapes["edge", e], sub_lineage, g.probability(e))
                )
                matching = recurse(sub_lineage, gi, lvl - 1)
                hit = derived[key] = (gi, matching, guard.nodes - start)
            else:
                guard.tick(hit[2])
            reals.append(hit[0])
            matches.append(hit[1])

        def rank(w: int) -> tuple:
            walk = records[w]
            return _walk_rank(tapes["edge", walk.edges[0]], lineage, lvl, walk)

        match = matches[0]
        for w in _select_walks(reals, matches, rec, gates[lvl - 1], rank, guard):
            i, add, rem = records[w].copies[0]
            if i == 0:
                match = (match | add) & ~rem
        return match

    out = recurse((), realization, len(gates))
    # recurse refers to itself; breaking that cycle frees the walk index
    # and the table's views now rather than at the next cyclic collection
    del recurse
    return frozenset(mask_edges(out))


def build_unsaturation_table(
    params: BParams,
    samples: int,
    ctx: SeedContext,
    a_prob: Iterable[float],
    walks: WalkIndex,
) -> tuple:
    """The gates of levels 0..depth-1 for ``params.depth``, the levels a
    recursion of that depth reads, from Monte Carlo match marginals of
    the recursive matching on ``walks.g`` (see :func:`gate_masks`).  A
    depth past ``DEPTH_LIMIT`` is refused before anything is sampled.

    The level-0 marginals are all zeros, and those of level l >= 1 are
    estimated by running the level-l recursion ``Recursion(walks,
    gates of levels 0..l-1, params.mis_budget)`` on ``samples`` fresh
    realizations, bottom-up.  ``a_prob`` supplies the target marginals
    (for a matched-realization target these are the per-vertex q loads,
    which the caller knows from its q profile).
    """
    check_depth(params.depth)
    g = walks.g
    a_prob = tuple(a_prob)
    if len(a_prob) != g.n:
        raise ValueError("a_prob must have one entry per vertex")
    if samples < 1:
        raise ValueError("samples must be positive")
    rows = [(0.0,) * g.n]
    for lvl in range(1, params.depth):
        rec = Recursion(walks, gate_masks(a_prob, rows, params.margin), params.mis_budget)
        hits = [0] * g.n
        for s in range(samples):
            sub = ctx.child("unsat", lvl, s)
            real = sample_realization(g, sub.child("input"), 0)
            matched = b_generic(rec, real, TapeTable(sub.child("alg"), g))
            for v in matched_vertices(g, matched):
                hits[v] += 1
        rows.append(tuple(h / samples for h in hits))
    return gate_masks(a_prob, rows[: params.depth], params.margin)


# ---------------------------------------------------------------------------
# local-computation route


class _Engine:
    """Memoized recursion behind one instrumented root query.

    Tapes are read through ``oracle``, which records the probed region:
    every edge whose realization or matching status is consulted gets
    probed, walks are probed in a connected order, and ranks are read
    off the first walk edge's tape.  Walks are ids of ``lca.rec.walks``.
    """

    def __init__(self, lca: "BMatchingLca", oracle) -> None:
        self.lca = lca
        self.oracle = oracle
        self._probed = oracle.probed
        self._touched = oracle.touched
        self._walks = lca.rec.walks
        self._records = self._walks.records
        self.guard = _Guard()
        self._match = {}
        self._mis = {}
        self._valid = {}
        self._ranks = {}  # (lineage, level) -> {walk: rank}
        self._ensured = set()  # walks whose edges are all probed

    def touch_edge(self, e: int) -> None:
        # a (kind, id) pair matches the oracle's Site keys; skipping known
        # edges here spares the call to probe
        if ("edge", e) not in self._probed:
            self.oracle.probe(("edge", e))

    def ensure_walk(self, w: int) -> None:
        if w in self._ensured:
            return
        edges = self._records[w].edges
        probed, touched = self._probed, self._touched
        anchor = 0  # without an anchor, the runtime flags the violation on probe
        for j, e in enumerate(edges):
            u, v = self.lca.g.endpoints(e)
            if ("edge", e) in probed or u in touched or v in touched:
                anchor = j
                break
        for j in range(anchor, -1, -1):
            self.touch_edge(edges[j])
        for j in range(anchor + 1, len(edges)):
            self.touch_edge(edges[j])
        self._ensured.add(w)

    def realized(self, lineage: tuple, e: int) -> bool:
        self.touch_edge(e)
        if not lineage:
            return (self.lca.root_realization >> e) & 1 == 1
        tape = self.oracle.peek(("edge", e))
        return _copy_realized(tape, lineage, self.lca.g.probability(e))

    def walk_rank(self, lineage: tuple, level: int, w: int) -> tuple:
        self.ensure_walk(w)
        rec = self._records[w]
        return _walk_rank(self.oracle.peek(("edge", rec.edges[0])), lineage, level, rec)

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
        bit = 1 << e
        for w in self._walks.walks_through_edge(e):
            # only copy-0 moves at e can change this answer
            i, add, rem = self._records[w].copies[0]
            if i != 0 or not (add | rem) & bit:
                continue
            if self.is_in_mis(lineage, w, level):
                result = not rem & bit
        self._match[key] = result
        return result

    def is_in_mis(self, lineage: tuple, w: int, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._mis:
            return self._mis[key]
        self.ensure_walk(w)
        if not self.is_valid(lineage, w, level):
            # invalid walks are non-members and, with budgets >= 1, their
            # root queries can never truncate; skip the expansion
            self._mis[key] = False
            return False

        ranks = self._ranks.setdefault((lineage, level), {})

        def rank(x: int) -> tuple:
            r = ranks.get(x)
            if r is None:
                r = ranks[x] = self.walk_rank(lineage, level, x)
            return r

        def valid(x: int) -> bool:
            return self.is_valid(lineage, x, level)

        def neighbors(x: int) -> tuple:
            out = self._walks.neighbors(x)
            for y in out:
                self.ensure_walk(y)
            return out

        lower = _walk_lower(valid, rank, neighbors)
        ok, _, calls = greedy_member(w, lower, self.lca.rec.budget)
        self.guard.tick(calls)
        self._mis[key] = ok
        return ok

    def is_valid(self, lineage: tuple, w: int, level: int) -> bool:
        key = (lineage, w, level)
        if key in self._valid:
            return self._valid[key]
        self.guard.tick()
        self.ensure_walk(w)
        g = self.lca.g

        def sub_lineage(i: int) -> tuple:
            return lineage if i == 0 else lineage + (level, i)

        def realized(i: int, add: int) -> bool:
            return all(self.realized(sub_lineage(i), e) for e in mask_edges(add))

        def before(i: int, u: int, inc: int) -> int:
            b = 0
            for e in g.incident(u):
                if self.is_in_matching(sub_lineage(i), e, level - 1):
                    b |= 1 << e
            return b

        result = _augments(self._records[w], self.lca.rec.gates[level - 1], realized, before)
        self._valid[key] = result
        return result


class BMatchingLca:
    """Edge-membership queries against the recursive matching ``rec``
    (see :func:`b_generic`) of the realization with edge mask
    ``root_realization`` on the graph ``g``, which is ``rec.walks.g``.

    ``run`` (through :func:`stochmatch.lca.run_lca`) answers one root
    query with full probe instrumentation and fresh memos; it is the
    only query route, and it refuses an oracle of another graph.  A
    query's answer, its ordered probes and its guard nodes are functions
    of the algorithm seed and its other inputs, so they are stored on
    the oracle's tape table under ``("query", rec, root_realization,
    root)``.  A repeated query under that table replays its recorded
    probes through the oracle, so naturality is checked again, and
    returns its recorded answer and node count.
    """

    site_kind = "edge"

    def __init__(self, rec: Recursion, root_realization: int) -> None:
        g = rec.walks.g
        if not 0 <= root_realization < 1 << g.m:
            raise ValueError(f"realization mask outside the {g.m} edges of the graph")
        check_depth(len(rec.gates))
        self.rec = rec
        self.g = g
        self.root_realization = root_realization

    def run(self, oracle, root: Site) -> bool:
        if oracle.graph is not self.g:
            raise ValueError("oracle belongs to another graph")
        derived = oracle.tapes.derived
        key = ("query", self.rec, self.root_realization, root.id)
        hit = derived.get(key)
        if hit is not None:
            out, probed, nodes = hit
            for site in probed:
                oracle.probe(site)
            _Guard().tick(nodes)
            oracle.annotate("nodes", nodes)
            return out
        engine = _Engine(self, oracle)
        out = engine.is_in_matching((), root.id, len(self.rec.gates))
        oracle.annotate("nodes", engine.guard.nodes)
        derived[key] = (out, tuple(oracle.probed), engine.guard.nodes)
        return out
