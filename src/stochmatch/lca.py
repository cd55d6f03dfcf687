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
its probed sites and the vertices they touch read-only.

A site's tape is a fixed function of (ctx, site), and so is every value
read off it, so a tape is derived once into a tape table keyed by site
and each of its values is hashed once and stored there.  A sweep shares
one table across its roots and drops it when the sweep ends; a lone
query keeps its own table.  Derivations and the values read off each
tape are shared; each query still checks naturality and records its own
probes.

Sweeping all sites as roots yields, per site v, the out-query count
q+(v) = |Q+(v)|.  With in(w) the roots whose out-query sets hold w, the
in-query count is q-(v) = |in(v)| and the correlated count, the number
of roots whose out-query sets meet v's, is psi(v) = |U_{w in Q+(v)} in(w)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .graph import Graph, SeedContext


class NaturalityViolation(RuntimeError):
    """An LCA touched a site not adjacent to its probed region."""


class Site(NamedTuple):
    """A vertex or an edge by id; equal to the plain tuple (kind, id)."""

    kind: str  # "vertex" or "edge"
    id: int

    @classmethod
    def vertex(cls, v: int) -> "Site":
        return cls("vertex", v)

    @classmethod
    def edge(cls, e: int) -> "Site":
        return cls("edge", e)

    def vertices(self, g: Graph) -> tuple:
        """The vertices this site touches: itself, or an edge's endpoints."""
        return (self.id,) if self.kind == "vertex" else g.endpoints(self.id)


def site_tape(ctx: SeedContext, site: Site) -> SeedContext:
    """The PRF namespace holding this site's private random tape."""
    return ctx.child("tape", site.kind, site.id)


class _Tape:
    """A site's tape in a tape table: ``uniform`` hashes each distinct
    label tuple once and then returns the stored value.  The values die
    with the table; long-lived contexts store none."""

    def __init__(self, ctx: SeedContext) -> None:
        self._ctx = ctx
        self._values = {}  # labels -> float

    def uniform(self, *labels) -> float:
        value = self._values.get(labels)
        if value is None:
            value = self._values[labels] = self._ctx.uniform(*labels)
        return value


def table_tape(tapes: dict, ctx: SeedContext, site: Site) -> _Tape:
    """``site``'s tape in the tape table ``tapes`` of ``ctx``, derived on
    first use."""
    tape = tapes.get(site)
    if tape is None:
        tape = tapes[site] = _Tape(site_tape(ctx, site))
    return tape


@dataclass(frozen=True)
class ProbeTrace:
    root: Site
    probed: tuple  # Sites in expansion order; probed[0] == root
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def out_queries(self) -> frozenset:
        return frozenset(self.probed)

    def vertex_footprint(self, g: Graph) -> frozenset:
        """Vertex-granular view: an edge probe touches both endpoints."""
        return frozenset(v for s in self.probed for v in s.vertices(g))


class LcaOracle:
    """Per-query mediator enforcing naturality; the one record of the
    query's probed sites and touched vertices."""

    def __init__(
        self, g: Graph, ctx: SeedContext, root: Site, tapes: Optional[dict] = None
    ) -> None:
        self.graph = g
        self.ctx = ctx
        self._tapes = {} if tapes is None else tapes  # Site -> _Tape under ctx
        self.root = root
        self._probed = {}  # Site -> None, in expansion order
        self._touched = {}  # vertex -> None
        self._near = set()  # the touched vertices and their neighbors
        # read-only live views: the probed sites and the vertices they touch
        self.probed = self._probed.keys()
        self.touched = self._touched.keys()
        self._meta = {}
        self.probe(root)

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

    def probe(self, site: Site) -> _Tape:
        """Expand ``site``: ledger it and return its tape from the table.
        Naturality is checked on every call, stored values or not."""
        self._admit(site)
        if site not in self._probed:
            self._probed[site] = None
            for v in site.vertices(self.graph):
                if v not in self._touched:
                    self._touched[v] = None
                    self._near.add(v)
                    self._near.update(self.graph.neighbors(v))
        return table_tape(self._tapes, self.ctx, site)

    def peek(self, site: Site) -> _Tape:
        """Read a tape from the table without expanding the site (not
        ledgered)."""
        self._admit(site)
        return table_tape(self._tapes, self.ctx, site)

    def annotate(self, key: str, value) -> None:
        self._meta[key] = value

    def trace(self) -> ProbeTrace:
        return ProbeTrace(self.root, tuple(self._probed), dict(self._meta))


def run_lca(lca, g: Graph, ctx: SeedContext, root: Site, tapes: Optional[dict] = None):
    """Run one rooted query; returns (output, ProbeTrace).

    The output is a pure function of (g, ctx, root): re-running with the
    same arguments reproduces both the answer and the trace.  ``tapes``
    is a tape table shared by queries under the same ``ctx``; without
    it the query derives its tapes into a table of its own.
    """
    if root.kind != lca.site_kind:
        raise ValueError(f"{lca} expects {lca.site_kind} roots, got {root.kind}")
    oracle = LcaOracle(g, ctx, root, tapes)
    out = lca.run(oracle, root)
    return out, oracle.trace()


@dataclass
class QueryLedger:
    """Aggregated sweep statistics.

    One sweep queries every site in ``sites`` as a root under shared
    tapes and records each root's out-query set.  Rows are per-sweep
    dictionaries mapping site -> count.
    """

    site_kind: str
    sites: tuple
    qplus_rows: list = field(default_factory=list)
    qminus_rows: list = field(default_factory=list)
    psi_rows: list = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.qplus_rows)

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

    def max_mean(self, stat: str) -> tuple:
        rows = getattr(self, f"{stat}_rows")
        best_site = max(self.sites, key=lambda s: (self._mean(rows, s), s))
        return self._mean(rows, best_site), best_site

    def stderr(self, stat: str, site: Site) -> float:
        rows = getattr(self, f"{stat}_rows")
        k = len(rows)
        if k < 2:
            return float("inf")
        mean = self._mean(rows, site)
        var = sum((row[site] - mean) ** 2 for row in rows) / (k - 1)
        return math.sqrt(var / k)


def _ledger_sweep(ledger: QueryLedger, lca, g: Graph, ctx: SeedContext) -> QueryLedger:
    tapes = {}  # this sweep's tape table
    out_sets = {r: run_lca(lca, g, ctx, r, tapes)[1].out_queries for r in ledger.sites}
    del tapes  # freed before add_sweep builds its index, so the two never peak together
    ledger.add_sweep(out_sets)
    return ledger


def _empty_ledger(lca, g: Graph) -> QueryLedger:
    kind = lca.site_kind
    count = g.n if kind == "vertex" else g.m
    return QueryLedger(kind, tuple(Site(kind, i) for i in range(count)))


def sweep_ledger(lca, g: Graph, ctx: SeedContext) -> QueryLedger:
    """One sweep: query every site of the LCA's kind as a root under the
    tapes of ``ctx``."""
    return _ledger_sweep(_empty_ledger(lca, g), lca, g, ctx)


def gather_ledger(lca, g: Graph, ctx: SeedContext, trials: int) -> QueryLedger:
    """``trials`` independent sweeps under tapes (ctx, "sweep", t)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    ledger = _empty_ledger(lca, g)
    for t in range(trials):
        _ledger_sweep(ledger, lca, g, ctx.child("sweep", t))
    return ledger


@dataclass(frozen=True)
class CorrelatedBoundReport:
    """max_v E[psi(v)] against the product of the largest mean q+ and q-."""

    lhs: float
    lhs_stderr: float
    rhs: float
    slack: float
    trials: int

    @property
    def ok(self) -> bool:
        return self.lhs <= self.slack * self.rhs + 3.0 * self.lhs_stderr


def check_correlated_bound(ledger: QueryLedger, slack: float = 3.0) -> CorrelatedBoundReport:
    """Compare the worst mean correlated-set size to mean-q+ * mean-q-.

    Needs a ledger of at least 30 sweeps for the error term to mean
    anything; flags violations beyond ``slack`` times the product plus
    three standard errors.
    """
    if ledger.trials < 2:
        raise ValueError("need at least two sweeps")
    lhs, lhs_site = ledger.max_mean("psi")
    qp, _ = ledger.max_mean("qplus")
    qm, _ = ledger.max_mean("qminus")
    return CorrelatedBoundReport(
        lhs=lhs,
        lhs_stderr=ledger.stderr("psi", lhs_site),
        rhs=qp * qm,
        slack=slack,
        trials=ledger.trials,
    )


def ledger_to_csv(ledger: QueryLedger) -> str:
    """CSV rows: site kind, site id, mean q+, mean q-, mean psi."""
    lines = ["kind,site,mean_qplus,mean_qminus,mean_psi"]
    for s in ledger.sites:
        lines.append(
            f"{s.kind},{s.id},{ledger.mean_qplus(s):.6f},"
            f"{ledger.mean_qminus(s):.6f},{ledger.mean_psi(s):.6f}"
        )
    return "\n".join(lines) + "\n"
