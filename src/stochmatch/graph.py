"""Stochastic graphs, seeded randomness, and realization handling.

A stochastic graph is a simple undirected graph whose edges carry
independent existence probabilities.  A realization keeps each edge
independently with its probability and is an int edge mask, bit e set
when edge e is present; everything downstream (matchings, sparsifiers,
local algorithms) consumes realizations produced here.

All randomness flows through :class:`SeedContext`, a keyed PRF over
hierarchical namespace paths.  Distinct paths yield independent streams
and the same path always reproduces the same value, so random tapes can
be revealed lazily and in any order without coordination.  Contexts are
prefix-encoded: each keeps the encoding of its path, and a child encodes
only the labels it appends.
"""

from __future__ import annotations

import hashlib
import struct
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional

ENUM_CAP = 24
# enumerate_realizations tabulates the prefix products of this many edges
LOW_EDGES = 10
# largest vertex count a graph file may declare or imply; bench inputs stop at 4,000
MAX_VERTICES = 1_000_000

_U64 = (1 << 64) - 1
_FLOAT_DENOM = float(1 << 53)
# a tagged int label's encoding, and a digest's first 8 bytes as an int
_INT_LABEL = struct.Struct("<cQ").pack
_RAW64 = struct.Struct("<Q").unpack_from
# binary digits <-> 0/1 bytes, for the edge-mask codec
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class GraphFormatError(ValueError):
    """Raised for malformed graph text input."""


class ResourceGuard(RuntimeError):
    """Raised when a run would exceed one of the package's work limits:
    the enumeration cap, the sparsifier's edge draws, the odd-set size
    cap, the hyperwalk and node ceilings, or the recursion depth."""


def _encode_labels(labels: tuple) -> bytes:
    # Length-prefixed, type-tagged encoding: no two distinct label tuples
    # may serialize to the same byte string.
    parts = []
    for part in labels:
        if isinstance(part, bool):
            raise TypeError(f"ambiguous namespace label: {part!r}")
        if isinstance(part, str):
            raw = part.encode()
            parts.append(b"s" + len(raw).to_bytes(4, "little") + raw)
        elif isinstance(part, int):
            parts.append(_INT_LABEL(b"i", part & _U64))
        else:
            raise TypeError(f"unsupported namespace label: {part!r}")
    return b"".join(parts)


class SeedContext:
    """Keyed PRF addressed by (master seed, namespace path).

    ``child(*labels)`` derives a sub-context with an extended path;
    ``uniform(*labels)`` evaluates the PRF at the current path plus the
    given labels and maps the digest to a float in [0, 1).  Labels may
    be strings or integers.  A context keeps its path's encoding; since
    encodings concatenate, ``child`` passes it on extended by the new
    labels alone.  Equality, hash and repr cover ``seed`` and ``path``.
    """

    __slots__ = ("seed", "path", "_encoded", "_key")

    def __init__(self, seed: int, path: tuple = (), _encoded_path: Optional[bytes] = None) -> None:
        self.seed = seed
        self.path = path
        self.__post_init__(_encoded_path)

    def __post_init__(self, _encoded_path: Optional[bytes]) -> None:
        # a method of its own: bench/tracer.py counts derivations by wrapping it
        if _encoded_path is None:
            _encoded_path = _encode_labels(self.path)
        self._encoded = _encoded_path
        seed_key = (self.seed & _U64).to_bytes(8, "little")
        self._key = hashlib.blake2b(_encoded_path, digest_size=32, key=seed_key).digest()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.seed, self.path) == (other.seed, other.path)

    def __hash__(self) -> int:
        return hash((self.seed, self.path))

    def __repr__(self) -> str:
        return f"SeedContext(seed={self.seed!r}, path={self.path!r})"

    def child(self, *labels) -> "SeedContext":
        return SeedContext(self.seed, self.path + labels, self._encoded + _encode_labels(labels))

    def digest(self, *labels) -> bytes:
        return hashlib.blake2b(_encode_labels(labels), digest_size=16, key=self._key).digest()

    def uniform(self, *labels) -> float:
        return (_RAW64(self.digest(*labels))[0] >> 11) / _FLOAT_DENOM


class Graph:
    """Simple undirected graph with per-edge existence probabilities.

    Edges are ``(u, v, p)`` triples with ``u < v`` and ``0 < p <= 1``,
    addressed by their index.  ``adjacency[v]`` lists the incident edge
    ids of ``v`` in increasing order; that order is the tie-breaking
    order used by every deterministic algorithm in the package.
    Equality and hash cover ``n`` and ``edges``, which fix ``adjacency``.
    """

    # __dict__ holds the cached_property below
    __slots__ = ("n", "edges", "adjacency", "__dict__")

    def __init__(self, n: int, edges: tuple, adjacency: tuple) -> None:
        self.n = n
        self.edges = edges
        self.adjacency = adjacency

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r}, adjacency={self.adjacency!r})"

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple]) -> "Graph":
        normalized = []
        seen = set()
        for u, v, p in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0.0 < p <= 1.0:
                raise ValueError(f"edge probability {p} outside (0, 1]")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            normalized.append((key[0], key[1], float(p)))
        adjacency = [[] for _ in range(n)]
        for e, (u, v, _) in enumerate(normalized):
            adjacency[u].append(e)
            adjacency[v].append(e)
        return cls(n, tuple(normalized), tuple(tuple(a) for a in adjacency))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple:
        u, v, _ = self.edges[e]
        return u, v

    def probability(self, e: int) -> float:
        return self.edges[e][2]

    def incident(self, v: int) -> tuple:
        return self.adjacency[v]

    @cached_property
    def _neighbors(self) -> tuple:
        # built on first use, since only the LCA routes walk neighbors
        edges = self.edges
        return tuple(
            tuple(b if a == v else a for a, b, _ in map(edges.__getitem__, incident))
            for v, incident in enumerate(self.adjacency)
        )

    def neighbors(self, v: int) -> tuple:
        """The other endpoints of ``v``'s incident edges, in ``adjacency`` order."""
        return self._neighbors[v]


def sample_realization(g: Graph, ctx: SeedContext, trial: int) -> int:
    """Sample a realization in O(m) as its edge mask: edge e is present
    when ``ctx.child("realize", trial).uniform(e) < p_e``, which this must
    stay in lockstep with.  The present ids are collected, then masked
    once."""
    sub = ctx.child("realize", trial)
    # hash.copy() skips the per-call key schedule.  uniform is
    # (raw >> 11) / 2**53, and scaling by a power of two is exact, so the
    # integer compared with p * 2**53 decides exactly as uniform < p.
    copy = hashlib.blake2b(digest_size=16, key=sub._key).copy
    present = []
    for e, (_, _, p) in enumerate(g.edges):
        h = copy()
        h.update(_INT_LABEL(b"i", e))
        if (_RAW64(h.digest())[0] >> 11) < p * _FLOAT_DENOM:
            present.append(e)
    return edge_mask(present)


def enumerate_realizations(g: Graph):
    """Yield (edge mask, probability) for every edge subset.

    Probabilities sum to 1 exactly up to float error.  Refuses graphs
    with more than ``ENUM_CAP`` edges.
    """
    m = g.m
    if m > ENUM_CAP:
        raise ResourceGuard(f"{m} edges exceeds enumeration cap {ENUM_CAP}")
    factors = [(1.0 - p, p) for _, _, p in g.edges]
    # Products of the low edges' factors, one per low mask, built in the
    # same left-to-right order as the per-mask product; the high factors
    # then multiply in that order too, so every probability keeps its bits.
    low = min(m, LOW_EDGES)
    prefix = [1.0]
    for absent, present in factors[:low]:
        prefix = [pr * absent for pr in prefix] + [pr * present for pr in prefix]
    high = factors[low:]
    for hi in range(1 << (m - low)):
        row = prefix
        for j, f in enumerate(high):
            factor = f[(hi >> j) & 1]
            row = [pr * factor for pr in row]
        base = hi << low
        for lo, pr in enumerate(row):
            yield base | lo, pr


def weighted_realizations(
    g: Graph, samples: int, ctx: Optional[SeedContext], exact: Optional[bool], flag: str
) -> tuple:
    """Resolves the mode of an expectation over G_p and returns
    ``(exact, worlds)``, where ``worlds`` yields (edge mask, weight).

    ``exact=None`` picks exact mode when m <= ``ENUM_CAP``.  Exact mode
    streams every edge subset with its probability; sampled mode yields
    trials 0..samples-1 drawn from ``ctx`` with weight 1, and refuses a
    count below 1 by naming ``flag``, the option that sets it.
    """
    if exact is None:
        exact = g.m <= ENUM_CAP
    if exact:
        return True, enumerate_realizations(g)
    if ctx is None:
        raise ValueError("sampled mode needs a seed context")
    if samples < 1:
        raise ValueError(f"samples must be positive; pass {flag} 1 or more")
    return False, ((sample_realization(g, ctx, t), 1) for t in range(samples))


def parse_graph_text(text: str) -> Graph:
    """Parse the edge-list format: one ``u v p`` line per edge.

    ``#`` starts a comment; an optional ``n <count>`` header pins the
    vertex count (otherwise it is 1 + the largest endpoint seen), which
    may not exceed ``MAX_VERTICES``.
    """
    n_declared = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if len(tokens) != 2 or n_declared is not None:
                raise GraphFormatError(f"line {lineno}: bad vertex-count header")
            try:
                n_declared = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex-count header") from None
            continue
        if len(tokens) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v p', got {raw!r}")
        try:
            u, v, p = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected 'u v p', got {raw!r}") from None
        triples.append((u, v, p))
    n = n_declared if n_declared is not None else 1 + max(
        (max(u, v) for u, v, _ in triples), default=-1
    )
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    try:
        return Graph.build(n, triples)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def write_graph_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    for u, v, p in g.edges:
        lines.append(f"{u} {v} {p:.17g}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def subgraph(g: Graph, edge_ids: Iterable[int]):
    """Dense re-indexed subgraph on the same vertex set.

    Returns ``(sub, from_sub)``: the kept edges get ids 0, 1, ... in
    increasing original order, and ``from_sub`` maps each subgraph id to
    its original edge id.
    """
    keep = sorted(set(edge_ids))
    return Graph.build(g.n, [g.edges[e] for e in keep]), tuple(keep)


def edge_mask(edge_ids: Iterable[int]) -> int:
    """Bitmask with bit e set for every listed edge id, built in one pass."""
    ids = list(edge_ids)
    if min(ids, default=0) < 0:
        raise ValueError("negative edge id")
    bits = bytearray(max(ids, default=0) + 1)
    for e in ids:
        bits[e] = 1
    return int(bits[::-1].translate(_BIT_DIGITS), 2)


def mask_edges(mask: int) -> list:
    """Edge ids of the set bits of ``mask``, in increasing order."""
    bits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return list(compress(range(len(bits)), bits))
