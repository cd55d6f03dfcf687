"""Deterministic maximum matching and fractional-matching utilities.

``maximum_matching`` is an augmenting-path search with blossom
contraction on general graphs.  It processes free vertices in
increasing id order and scans neighbors in adjacency order, so the
returned edge set (not just its size) is a fixed deterministic function
of the input; per-edge match frequencies measured elsewhere depend on
this choice and stay reproducible under it.  The search state is
allocated once per matcher and each search resets only the entries it
touched, so a search costs the tree it explores, not n.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, mask_edges

BLOSSOM_SET_CAP = 15


class CapExceeded(ValueError):
    """Raised when an odd-set sweep would enumerate too many sets."""


def _active_ids(g: Graph, active) -> list:
    if active is None:
        return list(range(g.m))
    if isinstance(active, int):
        return mask_edges(active)
    return sorted(active)


class _Matcher:
    """One matching computation over the active edges of a graph.

    The search state (``parent``, ``base``, ``used`` and the blossom
    marks) is allocated once, here.  Each search records the vertices
    it labels in ``tree`` and afterwards resets only those entries, and
    a blossom relabels only tree vertices, so a search costs the tree
    it explores rather than n.
    """

    def __init__(self, g: Graph, active) -> None:
        n = g.n
        self.n = n
        self.edges = g.edges
        self.ids = _active_ids(g, active)
        self.adj = [[] for _ in range(n)]
        self.eid = {}
        for e in self.ids:
            u, v, _ = g.edges[e]
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.eid[u, v] = e
            self.eid[v, u] = e
        self.match = [-1] * n
        self.parent = [-1] * n
        self.base = list(range(n))
        self.used = [False] * n
        self.blossom = [False] * n
        self.tree = []

    def _find_path(self, root: int) -> int:
        adj, match, p, base, used = self.adj, self.match, self.parent, self.base, self.used
        tree = self.tree
        used[root] = True
        tree.append(root)
        q = deque([root])
        while q:
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
        return -1

    def _contract(self, q, v, to) -> None:
        base, used, blossom = self.base, self.used, self.blossom
        cur = self._lca(v, to)
        marks = []
        self._mark_path(marks, v, cur, to)
        self._mark_path(marks, to, cur, v)
        fresh = []
        for i in self.tree:
            if blossom[base[i]]:
                base[i] = cur
                if not used[i]:
                    fresh.append(i)
        for b in marks:
            blossom[b] = False
        # The queue order decides the output: enqueue by increasing id.
        fresh.sort()
        for i in fresh:
            used[i] = True
        q.extend(fresh)

    def _lca(self, a, b):
        base, p, match = self.base, self.parent, self.match
        marked = set()
        v = a
        while True:
            v = base[v]
            marked.add(v)
            if match[v] == -1:
                break
            v = p[match[v]]
        v = b
        while True:
            v = base[v]
            if v in marked:
                return v
            v = p[match[v]]

    def _mark_path(self, marks, v, b, child):
        base, p, match, blossom = self.base, self.parent, self.match, self.blossom
        while base[v] != b:
            marks.append(base[v])
            marks.append(base[match[v]])
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def _augment(self, finish: int) -> None:
        v = finish
        while v != -1:
            pv = self.parent[v]
            ppv = self.match[pv]
            self.match[v] = pv
            self.match[pv] = v
            v = ppv

    def _reset(self) -> None:
        p, base, used = self.parent, self.base, self.used
        for v in self.tree:
            p[v] = -1
            base[v] = v
            used[v] = False
        self.tree.clear()

    def run(self, greedy_seed: bool = False) -> None:
        match = self.match
        if greedy_seed:
            # Size-only fast path: start from a maximal matching so few
            # augmentation phases remain.  Do not use where the edge
            # set itself matters.
            for e in self.ids:
                u, v, _ = self.edges[e]
                if match[u] == -1 and match[v] == -1:
                    match[u] = v
                    match[v] = u
        for v in range(self.n):
            if match[v] == -1 and self.adj[v]:
                finish = self._find_path(v)
                if finish != -1:
                    self._augment(finish)
                self._reset()

    def edge_set(self) -> frozenset:
        out = set()
        for v, w in enumerate(self.match):
            if w > v:
                out.add(self.eid[v, w])
        return frozenset(out)

    def size(self) -> int:
        return sum(1 for v, w in enumerate(self.match) if w > v)


def maximum_matching(g: Graph, active=None) -> frozenset:
    """Deterministic maximum matching, returned as a set of edge ids.

    ``active`` restricts the edge set: an iterable of edge ids, a
    bitmask, or None for all edges.
    """
    m = _Matcher(g, active)
    m.run()
    return m.edge_set()


def matching_number(g: Graph, active=None) -> int:
    """Size of a maximum matching (value only, greedy-seeded search)."""
    m = _Matcher(g, active)
    m.run(greedy_seed=True)
    return m.size()


def matched_vertices(g: Graph, edge_ids: Iterable[int]) -> frozenset:
    out = set()
    for e in edge_ids:
        u, v = g.endpoints(e)
        out.add(u)
        out.add(v)
    return frozenset(out)


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
    """Outcome of an odd-set sweep: every connected odd vertex set S
    with |S| <= size_cap was checked against sum(f inside S) <= |S|//2."""

    eps: float
    size_cap: int
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


def check_blossom(f: FractionalMatching, eps: float, tol: float = 1e-9) -> CertificateReport:
    """Sweep the odd-set inequalities for |S| <= floor(1/eps).

    Only sets connected in the support of ``f`` are enumerated: a
    disconnected violator must contain a connected odd component that
    already violates, so the verdict is unchanged.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    kmax = int(1.0 / eps)
    if kmax > BLOSSOM_SET_CAP:
        raise CapExceeded(f"odd-set size cap {kmax} exceeds {BLOSSOM_SET_CAP}")
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
        if mass > bound + tol:
            violations.append((S, mass, bound))
    violations.sort()
    return CertificateReport(eps, kmax, checked, tuple(violations))
