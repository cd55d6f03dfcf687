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

A budget has one form, a positive int or None for no cap, and has no
default: the caller writes it where it is set,
``TruncatedGreedyMis(budget)`` for vertex MIS and ``BParams.mis_budget``
for the hyperwalk MIS.  Neither checks it: ``cli.ExperimentConfig``
refuses a budget below 1 once, where ``--budget`` enters.

A vertex's expansion, its lower-rank neighbors in rank order, depends on
the tapes and the graph alone, so :class:`TruncatedGreedyMis` stores it
on the vertex's tape and the roots of a sweep share it through their
tape table.  The budget still counts each query's own expansions: a
shared expansion costs its query one call and one probe, as a fresh one
does, so answers, traces and the q+/q-/psi ledger are unchanged.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .lca import Site


class TmisOutcome(NamedTuple):
    member: bool
    calls: int
    truncated: bool


def greedy_member(root, lower: Callable, budget: Optional[int]) -> tuple:
    """Rank-greedy MIS membership of ``root``; returns (member, truncated, calls).

    ``lower(x)`` expands x: it returns x's lower-rank neighbors in
    increasing rank order, or None when x is not eligible (never a
    member).  ``calls`` counts expansions; once ``budget`` of them have
    run, the next is refused and the query ends truncated (None: no cap).
    """
    memo = {}  # settled answers
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


class TruncatedGreedyMis:
    """LCA protocol object for (possibly truncated) greedy MIS queries;
    ``budget`` caps the distinct vertices one root query expands (None:
    off)."""

    site_kind = "vertex"

    def __init__(self, budget: Optional[int]) -> None:
        self.budget = budget

    def run(self, oracle, root: Site) -> TmisOutcome:
        g = oracle.graph

        def lower(v: int) -> tuple:
            # expanding v probes it; neighbor ranks are only peeked at, and
            # only the first time the sweep's table, bound to g, expands v.
            # Sites go by (kind, id) pairs, so a read builds no Site.
            tape = oracle.probe(("vertex", v))
            if tape.lower is not None:
                return tape.lower
            rank_v = tape.uniform("rank"), v
            below = []
            for w in g.neighbors(v):
                rank_w = oracle.peek(("vertex", w)).uniform("rank"), w
                if rank_w < rank_v:
                    below.append((rank_w, w))
            below.sort()
            below = tuple(w for _, w in below)
            tape.lower = below
            return below

        member, truncated, calls = greedy_member(root.id, lower, self.budget)
        oracle.annotate("calls", calls)
        oracle.annotate("truncated", truncated)
        return TmisOutcome(member, calls, truncated)

