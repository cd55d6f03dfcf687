"""Greedy maximal independent set as a local computation.

Under a random rank per vertex, the greedy MIS contains v exactly when
no lower-rank neighbor of v is in it.  Membership is therefore locally
decidable: recursively resolve the lower-rank neighbors in increasing
rank order and stop at the first member found.

:func:`greedy_member` is the package's one engine for this recursion;
the hyperwalk MIS of :mod:`~stochmatch.hyperwalk` runs on it too.  A
budget caps the distinct expansions of one root query: the expansion
that would exceed it never runs, so a query reports at most ``budget``
calls, and one that runs out is truncated and answers not-in-set.  A
truncated answer can only remove members (breaking maximality a
little); it can never add one, because a positive answer requires the
recursion to have completed, in which case it equals the untruncated
greedy answer.  The surviving set is always independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Graph, SeedContext
from .lca import Site, run_lca, site_tape


@dataclass(frozen=True)
class TmisBudget:
    """Cap on distinct vertices a single root query may expand."""

    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be positive")

    @classmethod
    def for_degree(cls, max_degree: int, eps: float, c: float = 1.0) -> "TmisBudget":
        """Quadratic-in-degree budget: ceil(c * Delta^2 / eps)."""
        return cls(max(1, math.ceil(c * max_degree * max_degree / eps)))


@dataclass(frozen=True)
class TmisOutcome:
    member: bool
    calls: int
    truncated: bool


def vertex_rank(ctx: SeedContext, v: int) -> tuple:
    """Total rank order: tape-drawn float with id tie-breaking."""
    return (site_tape(ctx, Site.vertex(v)).uniform("rank"), v)


def greedy_member(
    root, lower: Callable, budget: Optional[int] = None, memo: Optional[dict] = None
) -> tuple:
    """Rank-greedy MIS membership of ``root``; returns (member, truncated, calls).

    ``lower(x)`` expands x: it returns x's lower-rank neighbors in
    increasing rank order, or None when x is not eligible (never a
    member).  ``calls`` counts expansions; once ``budget`` of them have
    run, the next is refused and the query ends truncated.  ``memo``
    holds settled answers and may be shared across unbudgeted roots.
    """
    memo = {} if memo is None else memo
    calls = 0

    def member(x):
        # True or False once settled; None when the budget ran out
        nonlocal calls
        if x in memo:
            return memo[x]
        if budget is not None and calls >= budget:
            return None
        calls += 1
        below = lower(x)
        out = below is not None
        for y in below or ():
            found = member(y)
            if found is None:
                return None
            if found:
                out = False
                break
        memo[x] = out
        return out

    out = member(root)
    # member refers to itself; breaking that cycle frees lower's state (for
    # an LCA, its oracle) now rather than at the next cyclic collection
    del member
    return out is True, out is None, calls


def gmis_member(g: Graph, ranks: dict, v: int, _memo: Optional[dict] = None) -> bool:
    """Reference greedy-MIS membership under explicit ranks.

    ``ranks[v]`` must be totally ordered (use (float, id) tuples).
    """

    def lower(u: int) -> list:
        return sorted(
            (w for w in g.neighbors(u) if ranks[w] < ranks[u]),
            key=lambda w: ranks[w],
        )

    return greedy_member(v, lower, memo=_memo)[0]


class TruncatedGreedyMis:
    """LCA protocol object for (possibly truncated) greedy MIS queries."""

    site_kind = "vertex"

    def __init__(self, budget: Optional[TmisBudget] = None) -> None:
        self.budget = budget

    def run(self, oracle, root: Site) -> TmisOutcome:
        g = oracle.graph
        limit = self.budget.threshold if self.budget is not None else None

        def lower(v: int) -> list:
            # expanding v probes it; neighbor ranks are only peeked at
            rank_v = oracle.probe(Site.vertex(v)).uniform("rank"), v
            below = []
            for w in g.neighbors(v):
                rank_w = oracle.peek(Site.vertex(w)).uniform("rank"), w
                if rank_w < rank_v:
                    below.append((rank_w, w))
            below.sort()
            return [w for _, w in below]

        member, truncated, calls = greedy_member(root.id, lower, limit)
        oracle.annotate("calls", calls)
        oracle.annotate("truncated", truncated)
        return TmisOutcome(member, calls, truncated)


def tmis_query(
    g: Graph, ctx: SeedContext, v: int, budget: Optional[TmisBudget] = None
):
    """One instrumented membership query; returns (TmisOutcome, ProbeTrace)."""
    return run_lca(TruncatedGreedyMis(budget), g, ctx, Site.vertex(v))


def tmis_member(
    g: Graph, ctx: SeedContext, v: int, budget: Optional[TmisBudget] = None
) -> bool:
    outcome, _ = tmis_query(g, ctx, v, budget)
    return outcome.member


def tmis_set(
    g: Graph, ctx: SeedContext, budget: Optional[TmisBudget] = None
) -> frozenset:
    """All members under shared tapes.

    With no budget the answers are plain greedy MIS, a pure function of
    the ranks, so a shared memo across roots is sound and fast.  With a
    budget each root is queried independently to keep the per-root
    truncation semantics honest.
    """
    if budget is None:
        ranks = {v: vertex_rank(ctx, v) for v in range(g.n)}
        memo: dict = {}
        return frozenset(v for v in range(g.n) if gmis_member(g, ranks, v, memo))
    return frozenset(v for v in range(g.n) if tmis_member(g, ctx, v, budget))
