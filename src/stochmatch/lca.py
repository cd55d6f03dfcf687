"""Instrumented runtime for local computation algorithms.

An LCA answers a query at a root site (vertex or edge) by exploring a
small neighborhood of it.  The runtime mediates every exploration step:

* ``probe`` expands a site, revealing its random tape and recording it
  in the out-query set Q+.  A probe target must be the root or adjacent
  to an already probed site, so every prefix of the probe sequence
  induces a connected subgraph containing the root (naturality).
* ``peek`` reads the tape of a site adjacent to the probed set without
  expanding it.  Peeks orient local decisions (e.g. visiting neighbors
  in rank order) and are not ledgered.

The oracle is the one record of a query's probed region: it exposes
its probed sites and the vertices they touch read-only.  A vertex read
is admitted with one lookup in the set of touched vertices and their
neighbors, and a repeated probe with one lookup in the probed sites;
every other read runs the full site-kind and naturality check.

A site's tape is a fixed function of (ctx, site), and so is every value
read off it, so a tape is derived once into a :class:`TapeTable` keyed
by site and each of its values is hashed once and stored there.  The
table also builds the site's one :class:`Site`, kept on its tape, so
callers may name a site by the plain pair (kind, id) and a sweep builds
each Site once.  A tape also holds what an LCA derives from the tapes
alone on the table's graph, such as a vertex's lower-rank neighbors, so
a table is bound to one ctx and one graph.  A query reads its seed off
the table, and its oracle refuses a table of another graph.  What an
LCA derives from the tapes and other inputs, such as a b-matching
query's answer and probes, goes in the table's ``derived`` dict under a
key naming those inputs.  The table belongs to
the caller, which passes it to every query it runs: a sweep shares one
across its roots and drops it when the sweep ends.  Derivations, Sites,
the values read off each tape and what is derived from them are shared;
each query still checks naturality and records its own probes.

Sweeping all sites as roots yields, per site v, the out-query count
q+(v) = |Q+(v)|.  With in(w) the roots whose out-query sets hold w, the
in-query count is q-(v) = |in(v)| and the correlated count, the number
of roots whose out-query sets meet v's, is psi(v) = |U_{w in Q+(v)} in(w)|.
All three count probes only.  The b-matching LCA peeks only at sites it
has probed, so its Q+ is every site it reads; the tmis LCA also reads its
probed vertices' neighbors' ranks, outside Q+, but peeks at them only
the first time its sweep's table expands a vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, SeedContext


class NaturalityViolation(RuntimeError):
    """An LCA touched a site not adjacent to its probed region."""


class Site(NamedTuple):
    """A vertex or an edge by id; equal to the plain tuple (kind, id)."""

    kind: str  # "vertex" or "edge"
    id: int

    def vertices(self, g: Graph) -> tuple:
        """The vertices this site touches: itself, or an edge's endpoints."""
        return (self.id,) if self.kind == "vertex" else g.endpoints(self.id)


def site_tape(ctx: SeedContext, site: Site) -> SeedContext:
    """The PRF namespace holding this site's private random tape."""
    return ctx.child("tape", site.kind, site.id)


class _Tape:
    """A site's tape in a :class:`TapeTable`: ``site`` is the table's one
    Site for it, and ``uniform`` hashes each distinct label tuple once and
    then returns the stored value.  ``lower`` holds a vertex's expansion,
    the tuple of its lower-rank neighbors on the table's graph in rank
    order, once an LCA has computed it.  The values die with the table;
    long-lived contexts store none."""

    lower = None  # tuple once expanded

    def __init__(self, ctx: SeedContext, site: Site) -> None:
        self.site = site
        self._ctx = site_tape(ctx, site)
        self._values = {}  # labels -> float

    def uniform(self, *labels) -> float:
        value = self._values.get(labels)
        if value is None:
            value = self._values[labels] = self._ctx.uniform(*labels)
        return value


class TapeTable(dict):
    """The tapes of one ``ctx`` on one ``graph``, keyed by Site: looking
    up a site, a Site or a plain (kind, id) pair, builds its Site and tape
    on first use.  What a tape holds beyond its values is derived on
    ``graph``, so an oracle refuses a table of another graph; ``ctx`` is
    the seed of every query that reads the table.
    ``derived`` holds what an LCA computes from these tapes and inputs
    beyond (ctx, graph), under a key that names every such input."""

    def __init__(self, ctx: SeedContext, graph: Graph) -> None:
        super().__init__()
        self.ctx = ctx
        self.graph = graph
        self.derived = {}

    def __missing__(self, site) -> _Tape:
        site = Site(*site)
        tape = self[site] = _Tape(self.ctx, site)
        return tape


class ProbeTrace:
    """One query's probed sites, ``probed[0] == root``, in expansion order,
    and the LCA's annotations ``meta``, which equality and hash leave out."""

    __slots__ = ("root", "probed", "meta")

    def __init__(self, root: Site, probed: tuple, meta: dict) -> None:
        self.root = root
        self.probed = probed
        self.meta = meta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.probed) == (other.root, other.probed)

    def __hash__(self) -> int:
        return hash((self.root, self.probed))

    def __repr__(self) -> str:
        return f"ProbeTrace(root={self.root!r}, probed={self.probed!r}, meta={self.meta!r})"

    @property
    def out_queries(self) -> frozenset:
        return frozenset(self.probed)

    def vertex_footprint(self, g: Graph) -> frozenset:
        """Vertex-granular view: an edge probe touches both endpoints."""
        return frozenset(v for s in self.probed for v in s.vertices(g))


class LcaOracle:
    """Per-query mediator enforcing naturality; the one record of the
    query's probed sites and touched vertices, reading tapes from the
    caller's table ``tapes`` on ``g``, whose ``ctx`` is the query's seed.
    A vertex LCA's read set is ``_near``, the touched vertices and their
    neighbors, not its peek calls: a tmis answer depends on every tape in
    it, and an expansion stored by an earlier query of the sweep is read
    without peeks."""

    def __init__(self, g: Graph, root: Site, tapes: TapeTable) -> None:
        if tapes.graph is not g:
            raise ValueError("tape table belongs to another graph")
        self.graph = g
        self.tapes = tapes
        self.root = root
        self._probed = {}  # Site -> None, in expansion order
        self._touched = {}  # vertex -> None
        self._near = set()  # the touched vertices and their neighbors
        # read-only live views: the probed sites and the vertices they touch
        self.probed = self._probed.keys()
        self.touched = self._touched.keys()
        self._meta = {}
        self.probe(root)

    def _admit(self, site) -> None:
        kind, i = site
        if kind not in ("vertex", "edge"):
            raise ValueError(f"unknown site kind {kind!r}")
        if site == self.root or site in self._probed:
            return
        if kind == "vertex":
            adjacent = i in self._near
        else:
            u, v = self.graph.endpoints(i)
            adjacent = u in self._touched or v in self._touched
        if not adjacent:
            raise NaturalityViolation(
                f"{Site(*site)} is not adjacent to the probed region of {self.root}"
            )

    def probe(self, site) -> _Tape:
        """Expand ``site`` (a Site or a plain (kind, id) pair): ledger the
        table's Site for it and return its tape.  A site already probed
        is found with one lookup; any other runs the full check, so
        naturality holds on every call."""
        if site in self._probed:
            return self.tapes[site]
        self._admit(site)
        tape = self.tapes[site]
        site = tape.site
        self._probed[site] = None
        for v in site.vertices(self.graph):
            if v not in self._touched:
                self._touched[v] = None
                self._near.add(v)
                self._near.update(self.graph.neighbors(v))
        return tape

    def peek(self, site) -> _Tape:
        """Read the tape of ``site`` (a Site or a plain (kind, id) pair)
        without expanding it (not ledgered).  A vertex among the touched
        vertices and their neighbors is admitted with that one lookup; any
        other site runs the full check."""
        if site[0] != "vertex" or site[1] not in self._near:
            self._admit(site)
        return self.tapes[site]

    def annotate(self, key: str, value) -> None:
        self._meta[key] = value

    def trace(self) -> ProbeTrace:
        return ProbeTrace(self.root, tuple(self._probed), dict(self._meta))


def run_lca(lca, g: Graph, root: Site, tapes: TapeTable):
    """Run one rooted query; returns (output, ProbeTrace).

    ``tapes`` is the caller's tape table on ``g``, and its ``ctx`` is the
    query's seed.  The output is a pure function of (g, tapes.ctx, root):
    re-running with the same arguments reproduces both the answer and the
    trace.  The table is shared by the queries the caller runs under that
    seed; it holds their tapes and what the LCA derived from them, such
    as tmis expansions.
    """
    if root.kind != lca.site_kind:
        raise ValueError(f"{lca} expects {lca.site_kind} roots, got {root.kind}")
    oracle = LcaOracle(g, root, tapes)
    out = lca.run(oracle, root)
    return out, oracle.trace()


class QueryLedger:
    """Aggregated sweep statistics.

    One sweep queries every site in ``sites`` as a root under shared
    tapes and records each root's out-query set.  Rows are per-sweep
    dictionaries mapping site -> count, so a ledger is mutable and
    unhashable.
    """

    __slots__ = ("site_kind", "sites", "qplus_rows", "qminus_rows", "psi_rows")

    def __init__(self, site_kind: str, sites: tuple) -> None:
        self.site_kind = site_kind
        self.sites = sites
        self.qplus_rows = []
        self.qminus_rows = []
        self.psi_rows = []

    def _values(self) -> tuple:
        return (self.site_kind, self.sites, self.qplus_rows, self.qminus_rows, self.psi_rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"QueryLedger(site_kind={self.site_kind!r}, sites={self.sites!r}, "
            f"qplus_rows={self.qplus_rows!r}, qminus_rows={self.qminus_rows!r}, "
            f"psi_rows={self.psi_rows!r})"
        )

    def add_sweep(self, out_sets: dict) -> None:
        """Ledger one sweep from each root's out-query set.  q- and psi
        read the in-query index ``into[w]`` (the roots whose out-set
        holds w), at a cost of the sum of q+ * q- over the sweep."""
        into = {s: [] for s in self.sites}
        for s in self.sites:
            for w in out_sets[s]:
                into[w].append(s)
        self.qplus_rows.append({s: len(out_sets[s]) for s in self.sites})
        self.qminus_rows.append({s: len(into[s]) for s in self.sites})
        self.psi_rows.append(
            {s: len(set().union(*[into[w] for w in out_sets[s]])) for s in self.sites}
        )

    def _mean(self, rows: list, site: Site) -> float:
        return sum(row[site] for row in rows) / len(rows)

    def mean_qplus(self, site: Site) -> float:
        return self._mean(self.qplus_rows, site)

    def mean_qminus(self, site: Site) -> float:
        return self._mean(self.qminus_rows, site)

    def mean_psi(self, site: Site) -> float:
        return self._mean(self.psi_rows, site)


def _ledger_sweep(ledger: QueryLedger, lca, g: Graph, ctx: SeedContext) -> QueryLedger:
    """Query every site of ``ledger`` as a root and ledger the sweep.  The
    roots share one tape table, serving this ctx and g alone: each tape is
    derived, and each tape-derived expansion computed, once per sweep."""
    tapes = TapeTable(ctx, g)
    out_sets = {r: run_lca(lca, g, r, tapes)[1].out_queries for r in ledger.sites}
    del tapes  # freed before add_sweep builds its index, so the two never peak together
    ledger.add_sweep(out_sets)
    return ledger


def _empty_ledger(lca, g: Graph) -> QueryLedger:
    kind = lca.site_kind
    count = g.n if kind == "vertex" else g.m
    return QueryLedger(kind, tuple(Site(kind, i) for i in range(count)))


def gather_ledger(lca, g: Graph, ctx: SeedContext, trials: int) -> QueryLedger:
    """``trials`` independent sweeps under tapes (ctx, "sweep", t)."""
    ledger = _empty_ledger(lca, g)
    for t in range(trials):
        _ledger_sweep(ledger, lca, g, ctx.child("sweep", t))
    return ledger


def ledger_to_csv(ledger: QueryLedger) -> str:
    """CSV rows: site kind, site id, mean q+, mean q-, mean psi."""
    lines = ["kind,site,mean_qplus,mean_qminus,mean_psi"]
    for s in ledger.sites:
        lines.append(
            f"{s.kind},{s.id},{ledger.mean_qplus(s):.6f},"
            f"{ledger.mean_qminus(s):.6f},{ledger.mean_psi(s):.6f}"
        )
    return "\n".join(lines) + "\n"
