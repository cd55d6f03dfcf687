"""Non-adaptive matching sparsifier.

The sparsifier takes R independent realizations of the stochastic
graph, computes a maximum matching of each with the fixed deterministic
matcher, and returns the union H of those matchings.  H has maximum
degree at most R, and the per-edge match frequencies q_e split the
edges into crucial (q_e >= tau_plus) and non-crucial (q_e <= tau_minus)
bands via a lightest-bucket threshold search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .graph import Graph, ResourceGuard, SeedContext
from .graph import sample_realization, weighted_realizations
from .matching import ComponentMemo, maximum_matching

Q_SAMPLES_DEFAULT = 10_000
THRESHOLD_EXPONENT = 3
# most edge draws (R * m) build_H starts; a derived R can reach 1e8
BUILD_DRAW_LIMIT = 1_000_000


@dataclass(frozen=True)
class SparsifierParams:
    """Construction knobs: R realizations under a master seed."""

    R: int
    eps: float
    seed: int

    def __post_init__(self) -> None:
        if self.R < 1:
            raise ValueError("R must be at least 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")


def build_H(g: Graph, params: SparsifierParams):
    """Union of matchings over R seeded realizations.

    Returns ``(H, matchings)`` with H a frozenset of edge ids and
    ``matchings`` the R per-realization matchings in order.  Realization
    i is drawn from stream (seed, "realize", i), so sparsifiers with the
    same seed and growing R are nested prefixes of one another.  Raises
    :class:`ResourceGuard` when R * m exceeds ``BUILD_DRAW_LIMIT``.
    """
    if params.R * g.m > BUILD_DRAW_LIMIT:
        raise ResourceGuard(
            f"R={params.R} realizations of m={g.m} edges exceed the "
            f"limit of {BUILD_DRAW_LIMIT} edge draws; pass --R or --thresholds "
            f"to choose a smaller R"
        )
    ctx = SeedContext(params.seed)
    matchings = []
    H = set()
    for i in range(params.R):
        real = sample_realization(g, ctx, i)
        M = maximum_matching(g, real)
        matchings.append(M)
        H.update(M)
    return frozenset(H), tuple(matchings)


@dataclass(frozen=True)
class QProfile:
    """Per-edge probabilities q_e of appearing in the matched realization.

    ``exact`` profiles come from full realization enumeration, the
    others from Monte Carlo trials.  Threshold fields stay None until a
    band has been selected.
    """

    q: tuple
    exact: bool
    tau_minus: Optional[float] = None
    tau_plus: Optional[float] = None

    @property
    def total(self) -> float:
        """|q|, which equals E[mu(G_p)] for exact profiles."""
        return sum(self.q)

    def with_thresholds(self, tau_minus: float, tau_plus: float) -> "QProfile":
        if not tau_minus < tau_plus:
            raise ValueError("tau_minus must be below tau_plus")
        return replace(self, tau_minus=tau_minus, tau_plus=tau_plus)

    def _require_thresholds(self) -> None:
        if self.tau_minus is None or self.tau_plus is None:
            raise ValueError("thresholds not set on this profile")

    @property
    def crucial(self) -> frozenset:
        self._require_thresholds()
        return frozenset(e for e, qe in enumerate(self.q) if qe >= self.tau_plus)

    @property
    def noncrucial(self) -> frozenset:
        self._require_thresholds()
        return frozenset(e for e, qe in enumerate(self.q) if qe <= self.tau_minus)


def estimate_q(
    g: Graph,
    samples: int = Q_SAMPLES_DEFAULT,
    ctx: Optional[SeedContext] = None,
    *,
    exact: Optional[bool],
) -> QProfile:
    """Per-edge match probabilities under the fixed matcher.

    Exact mode (auto-selected when the graph fits under the enumeration
    cap) sums over all realizations; otherwise ``samples`` seeded trials
    are drawn from ``ctx``.  An exact enumeration matches each connected
    component once, through one :class:`ComponentMemo`.
    """
    exact, worlds = weighted_realizations(g, samples, ctx, exact)
    memo = ComponentMemo(g) if exact else None
    q = [0.0] * g.m
    for mask, weight in worlds:
        if weight <= 0.0:
            continue
        for e in maximum_matching(g, mask, memo):
            q[e] += weight
    runs = 1 if exact else samples
    return QProfile(tuple(x / runs for x in q), exact)


def select_thresholds(q: QProfile, eps: float, p_min: float) -> tuple:
    """Lightest-bucket threshold pair (tau_minus, tau_plus).

    Buckets are (tau_i, tau_{i-1}] with tau_0 = (eps * p_min)^2 and
    tau_i = tau_{i-1}^THRESHOLD_EXPONENT, for i = 1..ceil(1/eps).  The
    bucket of least q-mass is dropped, so at most a 1/ceil(1/eps) fraction
    of the total q-mass falls between the returned thresholds.  Deep taus may
    underflow to 0.0, which leaves their buckets empty.  When the dropped
    bucket's upper tau has underflowed too (always so when (eps * p_min)^2
    does) there is no band to return, and this raises ValueError naming
    p_min.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < p_min <= 1.0:
        raise ValueError("p_min must lie in (0, 1]")
    buckets = max(1, math.ceil(1.0 / eps))
    taus = [(eps * p_min) ** 2]
    for _ in range(buckets):
        taus.append(taus[-1] ** THRESHOLD_EXPONENT)
    masses = [0.0] * buckets
    for qe in q.q:
        if qe <= 0.0:
            continue
        for i in range(1, buckets + 1):
            if taus[i] < qe <= taus[i - 1]:
                masses[i - 1] += qe
                break
    best = min(range(buckets), key=lambda i: (masses[i], i))
    if taus[best] == 0.0:
        raise ValueError(
            f"thresholds underflow to 0.0 at eps {eps} and smallest edge probability "
            f"{p_min!r}; pass --thresholds"
        )
    return taus[best + 1], taus[best]


def derive_R(tau_minus: float) -> int:
    """Smallest R with R >= 1/(2 tau_minus)."""
    if tau_minus <= 0.0:
        raise ValueError("tau_minus must be positive")
    return max(1, math.ceil(1.0 / (2.0 * tau_minus)))


def p_min_of(g: Graph) -> float:
    """Smallest edge probability (1.0 on an edgeless graph)."""
    return min((g.probability(e) for e in range(g.m)), default=1.0)


def resolve_R(
    g: Graph,
    eps: float,
    samples: int,
    ctx: SeedContext,
    exact: Optional[bool],
    thresholds: Optional[tuple],
    R: Optional[int] = None,
) -> tuple:
    """Estimates q, sets the given ``thresholds`` on it (or the ones
    :func:`select_thresholds` picks at the smallest edge probability),
    and derives R from tau_minus unless ``R`` is given; a tau_minus of
    0.0 derives none, so that case raises ValueError.  Returns
    ``(q, R)``; ``q.exact`` records the estimation mode."""
    q = estimate_q(g, samples=samples, ctx=ctx, exact=exact)
    p_min = p_min_of(g)
    if thresholds is None:
        thresholds = select_thresholds(q, eps, p_min)
    q = q.with_thresholds(*thresholds)
    if R is None:
        if q.tau_minus <= 0.0:
            raise ValueError(
                f"tau_minus is {q.tau_minus!r} at smallest edge probability {p_min!r}, "
                f"so no R derives from it; pass --R, or --thresholds with tau_minus > 0"
            )
        R = derive_R(q.tau_minus)
    return q, R


def max_degree_of(g: Graph, edge_ids: Iterable[int]) -> int:
    deg = [0] * g.n
    for e in edge_ids:
        u, v = g.endpoints(e)
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)
