"""Deterministic maximum matching and fractional-matching utilities.

``maximum_matching`` is an augmenting-path search with blossom
contraction on general graphs.  It processes free vertices in
increasing id order and scans neighbors in adjacency order, so the
returned edge set (not just its size) is a fixed deterministic function
of the input; per-edge match frequencies measured elsewhere depend on
this choice and stay reproducible under it.  A matcher call reads only
the active edges it is given.  The search state is allocated once per
call and each search resets only the entries it touched, so a search
costs the tree it explores, not n, and a blossom costs the vertices it
relabels, not the tree.

A maximum matching of a realized mask is the union of the maximum
matchings of the mask's connected components, each computed alone.
This holds edge for edge, not just in size: the matcher visits free
vertices in increasing id order, a search from v explores only v's
component, and each component's adjacency lists are the global lists
restricted to that component, so every search of the whole mask runs
as it would on the component alone.  An exact enumeration meets the
same component in many masks, and a :class:`ComponentMemo` computes
each component's matching once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, ResourceGuard, mask_edges

BLOSSOM_SET_CAP = 15
BLOSSOM_TOL = 1e-9
# most component matchings a ComponentMemo keeps; once it is full, later
# masks take the plain matcher.  verify-exact's 14-edge graph needs 2,151.
COMPONENT_MEMO_CAP = 1 << 14


def _corrupt(where: str) -> RuntimeError:
    return RuntimeError(f"matcher search state is inconsistent: {where} passed n + 1 steps")


class _Matcher:
    """One matching computation over the active edges of a graph.

    Set-up reads only the active edge ids.  The search state
    (``parent``, ``base``, ``used``) is allocated once, here.  Each
    search records the vertices it labels in ``tree`` and afterwards
    resets only those entries.  ``members`` lists, for each base of a
    contracted blossom, the vertices whose base it is, so a blossom
    relabels the members of the bases it absorbs rather than scanning
    the tree.  A correct search enqueues each vertex at most once, and
    every walk up the tree (a climb, a blossom path, an augmentation)
    visits each vertex at most once, so each of these loops runs at most
    n + 1 turns (``steps``); one that would run more raises instead of
    looping on a fault in the per-search state.
    """

    def __init__(self, g: Graph, active) -> None:
        self.n = n = g.n
        self.edges = edges = g.edges
        self.ids = mask_edges(active)
        self.adj = adj = [[] for _ in range(n)]
        for e in self.ids:
            u, v, _ = edges[e]
            adj[u].append(v)
            adj[v].append(u)
        self.match = [-1] * n
        self.parent = [-1] * n
        self.base = list(range(n))
        self.used = [False] * n
        self.tree = []
        self.members = {}
        # a bound on every loop of a search: see the class docstring
        self.steps = range(n + 1)

    def _find_path(self, root: int) -> int:
        adj, match, p, base, used = self.adj, self.match, self.parent, self.base, self.used
        tree = self.tree
        used[root] = True
        tree.append(root)
        q = deque([root])
        for _ in self.steps:
            if not q:
                return -1
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    self._contract(q, v, to)
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    tree.append(match[to])
                    q.append(match[to])
        raise _corrupt("the search queue")

    def _contract(self, q, v, to) -> None:
        base, used, members = self.base, self.used, self.members
        cur = self._lca(v, to)
        marks = []
        self._mark_path(marks, v, cur, to)
        self._mark_path(marks, to, cur, v)
        group = members.setdefault(cur, [cur])
        fresh = []
        for b in marks:
            if base[b] == cur:  # cur itself, or a base already absorbed
                continue
            absorbed = members.pop(b, None) or [b]
            for i in absorbed:
                base[i] = cur
                if not used[i]:
                    fresh.append(i)
            group += absorbed
        # The queue order decides the output: enqueue by increasing id.
        fresh.sort()
        for i in fresh:
            used[i] = True
        q.extend(fresh)

    def _lca(self, a, b):
        base, p, match = self.base, self.parent, self.match
        steps = self.steps
        v = base[a]
        marked = {v}
        for _ in steps:
            if match[v] == -1:
                break
            v = base[p[match[v]]]
            marked.add(v)
        else:
            raise _corrupt("a climb to the root")
        v = base[b]
        for _ in steps:
            if v in marked:
                return v
            v = base[p[match[v]]]
        raise _corrupt("a climb to the common base")

    def _mark_path(self, marks, v, b, child):
        base, p, match = self.base, self.parent, self.match
        for _ in self.steps:
            if base[v] == b:
                return
            marks.append(base[v])
            marks.append(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]
        raise _corrupt("a blossom path")

    def _reset(self) -> None:
        p, base, used = self.parent, self.base, self.used
        for v in self.tree:
            p[v] = -1
            base[v] = v
            used[v] = False
        self.tree.clear()
        self.members.clear()

    def run(self, greedy_seed: bool = False) -> None:
        match, adj, p, steps = self.match, self.adj, self.parent, self.steps
        if greedy_seed:
            # Size-only fast path: start from a maximal matching so few
            # augmentation phases remain.  Do not use where the edge
            # set itself matters.
            for u, v, _ in map(self.edges.__getitem__, self.ids):
                if match[u] == -1 and match[v] == -1:
                    match[u] = v
                    match[v] = u
        for v in range(self.n):
            if match[v] == -1 and adj[v]:
                u = self._find_path(v)
                for _ in steps:  # augment along the path found, if any
                    if u == -1:
                        break
                    pu = p[u]
                    ppu = match[pu]
                    match[u], match[pu] = pu, u
                    u = ppu
                else:
                    raise _corrupt("an augmenting path")
                self._reset()

    def edge_set(self) -> frozenset:
        # The graph is simple, so the matched pairs are the matched active
        # edges.  A frozenset copied from a set is sized to fit, half the
        # size of one grown from an iterator, and build_H keeps R of them.
        match, edges = self.match, self.edges
        return frozenset({e for e in self.ids if match[edges[e][0]] == edges[e][1]})

    def size(self) -> int:
        return (self.n - self.match.count(-1)) // 2


def _join(parts: list, vertices: int, edges: int) -> list:
    """The partition ``parts`` of (vertex mask, edge mask) pairs with the
    pair (vertices, edges) added and merged with every part it meets."""
    out = []
    for pv, pe in parts:
        if pv & vertices:
            vertices |= pv
            edges |= pe
        else:
            out.append((pv, pe))
    out.append((vertices, edges))
    return out


class ComponentMemo:
    """Matchings of connected components, shared by the
    ``maximum_matching`` calls of one enumeration over one graph.

    A mask's components come from two cached partitions, one of its
    low-half edge ids and one of its high-half ids, merged where they
    share a vertex.  Each component's matching is keyed by the
    component's edge mask, which fixes it (see the module docstring).
    The memo keeps at most ``COMPONENT_MEMO_CAP`` matchings and dies
    with its owner.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.low = (1 << (g.m // 2)) - 1
        self.ends = [(1 << u) | (1 << v) for u, v, _ in g.edges]
        # low-half and high-half masks share no key but 0, the empty partition
        self.parts = {}  # half mask -> [(vertex mask, edge mask)]
        self.matchings = {}  # component edge mask -> frozenset of edge ids

    def _partition(self, half: int) -> list:
        parts = self.parts.get(half)
        if parts is None:
            parts = []
            for e in mask_edges(half):
                parts = _join(parts, self.ends[e], 1 << e)
            self.parts[half] = parts
        return parts

    def _matching(self, mask: int) -> frozenset:
        low = mask & self.low
        parts = self._partition(low)
        for vertices, edges in self._partition(mask ^ low):
            parts = _join(parts, vertices, edges)
        matchings = self.matchings
        found = []
        for _, edges in parts:
            hit = matchings.get(edges)
            if hit is None:
                m = _Matcher(self.g, edges)
                m.run()
                hit = m.edge_set()
                if len(matchings) < COMPONENT_MEMO_CAP:
                    matchings[edges] = hit
            found.append(hit)
        return found[0] if len(found) == 1 else frozenset().union(*found)


def maximum_matching(g: Graph, active: int, memo: Optional[ComponentMemo] = None) -> frozenset:
    """Deterministic maximum matching of the edges in the bitmask
    ``active``, returned as a set of edge ids.  With a ``memo`` of ``g``,
    the mask is matched per connected component, and each component's
    matching is computed once per memo; the edge set is the same.
    """
    if memo is not None:
        if memo.g is not g or not isinstance(active, int):
            raise ValueError("a component memo takes bitmasks of its own graph")
        if len(memo.matchings) < COMPONENT_MEMO_CAP:
            return memo._matching(active)
    m = _Matcher(g, active)
    m.run()
    return m.edge_set()


def matching_number(g: Graph, active: int) -> int:
    """Size of a maximum matching (value only, greedy-seeded search)."""
    m = _Matcher(g, active)
    m.run(greedy_seed=True)
    return m.size()


def matched_vertices(g: Graph, edge_ids: Iterable[int]) -> frozenset:
    return frozenset({x for e in edge_ids for x in g.endpoints(e)})


@dataclass(frozen=True)
class FractionalMatching:
    """Nonnegative edge weights; zero entries are dropped from ``values``."""

    graph: Graph
    values: dict

    @classmethod
    def build(cls, g: Graph, values: dict) -> "FractionalMatching":
        kept = {}
        for e, x in values.items():
            if x < 0.0:
                raise ValueError(f"negative weight {x} on edge {e}")
            if x > 0.0:
                kept[int(e)] = float(x)
        return cls(g, kept)

    @property
    def support(self) -> frozenset:
        return frozenset(self.values)

    def get(self, e: int) -> float:
        return self.values.get(e, 0.0)


def fractional_size(f: FractionalMatching) -> float:
    return sum(f.values.values())


def vertex_loads(g: Graph, pairs: Iterable[tuple]) -> list:
    """Per-vertex sums of (edge, value) pairs, credited to both endpoints
    in the order the pairs come."""
    loads = [0.0] * g.n
    for e, val in pairs:
        u, v = g.endpoints(e)
        loads[u] += val
        loads[v] += val
    return loads


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of an odd-set sweep: ``sets_checked`` connected odd
    vertex sets S with 3 <= |S| <= floor(1/eps) were checked against
    sum(f inside S) <= |S|//2, and ``violations`` holds each
    (S, mass, bound) that broke it."""

    sets_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected_odd_sets(adj: dict, vertices: list, kmax: int):
    # Wernicke-style extension: each connected set is produced exactly
    # once, anchored at its minimum vertex.
    for anchor in vertices:
        root_ext = [u for u in adj[anchor] if u > anchor]
        stack = [((anchor,), root_ext, frozenset((anchor,)) | frozenset(root_ext))]
        while stack:
            S, ext, seen = stack.pop()
            if len(S) % 2 == 1:
                yield S
            if len(S) >= kmax:
                continue
            for i, w in enumerate(ext):
                grown = [u for u in adj[w] if u > anchor and u not in seen]
                stack.append(
                    (
                        tuple(sorted(S + (w,))),
                        ext[i + 1 :] + grown,
                        seen | frozenset(grown),
                    )
                )


def check_blossom(f: FractionalMatching, eps: float) -> CertificateReport:
    """Sweep the odd-set inequalities for |S| <= floor(1/eps).

    Only sets connected in the support of ``f`` are enumerated: a
    disconnected violator must contain a connected odd component that
    already violates, so the verdict is unchanged.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    kmax = int(1.0 / eps)
    if kmax > BLOSSOM_SET_CAP:
        raise ResourceGuard(f"odd-set size cap {kmax} exceeds {BLOSSOM_SET_CAP}")
    g = f.graph
    adj = {}
    for e in f.support:
        u, v = g.endpoints(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    adj = {v: sorted(ns) for v, ns in adj.items()}
    vertices = sorted(adj)
    checked = 0
    violations = []
    for S in _connected_odd_sets(adj, vertices, kmax):
        if len(S) < 3:
            continue
        checked += 1
        inside = set(S)
        mass = 0.0
        for u in S:
            for e in g.incident(u):
                x = f.values.get(e, 0.0)
                if x > 0.0:
                    a, b = g.endpoints(e)
                    if a in inside and b in inside and u == min(a, b):
                        mass += x
        bound = len(S) // 2
        if mass > bound + BLOSSOM_TOL:
            violations.append((S, mass, bound))
    violations.sort()
    return CertificateReport(checked, tuple(violations))
