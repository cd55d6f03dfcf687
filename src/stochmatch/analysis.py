"""Executable reconstruction of the approximation argument.

The chain goes: estimate per-edge match probabilities q, split edges
into crucial and non-crucial at selected thresholds, build the sparse
union H of R matchings, derive a fractional matching f on non-crucial
edges from the matching frequencies, run the recursive matching on the
crucial subgraph to get M_C, combine both into per-edge values x, and
round (1-eps) x into a fractional matching y that certifies the size of
the best matching inside H's realization.

Everything downstream of q is deterministic given the seed context, so
pipeline trials are reproducible and parallelizable.  The claim checks
in :func:`verify_claims` are reports with flags, not hard assertions:
the inequalities they measure hold asymptotically under parameter
regimes far beyond desk scale, and at bench parameters a miss is an
observation, not a bug.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Iterable, Optional, Sequence

from .graph import (
    Graph,
    Realization,
    SeedContext,
    edge_mask,
    sample_realization,
    subgraph,
    weighted_realizations,
)
from .hyperwalk import (
    BParams,
    SeedMemo,
    UnsaturationTable,
    WalkIndex,
    b_generic,
    BMatchingLca,
    build_unsaturation_table,
)
from .lca import Site, run_lca
from .matching import (
    CapExceeded,
    FractionalMatching,
    check_blossom,
    fractional_size,
    matched_vertices,
    matching_number,
    vertex_loads,
)
from .sparsifier import QProfile, SparsifierParams, build_H, p_min_of, resolve_R

DELTA_EXPONENT_DEFAULT = 15
MATCH_PROB_TRIALS_DEFAULT = 1000


class MissingTableEntry(KeyError):
    """A value-table lookup required by the x construction is absent."""


def match_targets_from_q(g: Graph, q: QProfile, within: Iterable[int]) -> tuple:
    """Per-vertex probability of being covered by the matched subset of
    ``within``.  Coverage events of distinct incident edges are disjoint
    (at most one incident edge is matched), so the vertex marginal is an
    exact sum of edge marginals."""
    return tuple(vertex_loads(g, ((e, q.q[e]) for e in set(within))))


# ---------------------------------------------------------------------------
# f from matching frequencies


def build_f(
    g: Graph,
    H: frozenset,
    matchings: tuple,
    q: QProfile,
    eps: float,
    R: int,
) -> FractionalMatching:
    """Fractional matching on non-crucial edges, in three stages:
    t_e is the fraction of the R matchings containing e; f'_e keeps t_e
    on non-crucial edges below the cap 1/sqrt(eps R); f_e = (1-eps) f'_e
    with every edge zeroed whose endpoint load (1-eps) f'_v exceeds the
    non-crucial q load q_v^N."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if R < 1 or len(matchings) != R:
        raise ValueError("matchings must be the R matchings that built H")
    noncrucial = q.noncrucial
    counts = {}
    for m in matchings:
        for e in m:
            counts[e] = counts.get(e, 0) + 1
    cap = 1.0 / math.sqrt(eps * R)
    fprime = {}
    for e, c in counts.items():
        t = c / R
        if e in noncrucial and t <= cap:
            fprime[e] = t
    loads = vertex_loads(g, fprime.items())
    qn = match_targets_from_q(g, q, noncrucial)
    scale = 1.0 - eps
    values = {}
    for e, val in fprime.items():
        u, v = g.endpoints(e)
        if scale * loads[u] > qn[u] or scale * loads[v] > qn[v]:
            continue
        values[e] = scale * val
    return FractionalMatching.build(g, values)


# ---------------------------------------------------------------------------
# the crucial-side matching M_C


@dataclass
class CrucialSetup:
    """Crucial subgraph with everything the recursive matching needs."""

    sub: Graph
    to_sub: tuple
    from_sub: tuple
    table: UnsaturationTable
    walks: WalkIndex
    bparams: BParams


def prepare_crucial(
    g: Graph,
    q: QProfile,
    bparams: BParams,
    table_samples: int,
    ctx: SeedContext,
) -> CrucialSetup:
    """Builds the crucial subgraph, its walk index, and the unsaturation
    table whose targets are the q loads restricted to crucial edges
    (the coverage marginals of MM restricted to C)."""
    crucial_ids = sorted(q.crucial)
    sub, to_sub, from_sub = subgraph(g, crucial_ids)
    walks = WalkIndex(sub, bparams.walk_len, bparams.alpha, bparams.walk_ceiling)
    a_prob = match_targets_from_q(g, q, crucial_ids)
    if sub.m == 0 or table_samples < 1 or bparams.depth == 0:
        table = UnsaturationTable.always_unsaturated(sub.n, max(1, bparams.depth))
    else:
        table = build_unsaturation_table(
            sub, bparams, bparams.depth, table_samples, ctx, a_prob, walks
        )
    return CrucialSetup(sub, to_sub, from_sub, table, walks, bparams)


def compute_MC(
    crucial: CrucialSetup,
    g_real: Realization,
    alg_ctx: SeedContext,
    memo: Optional[SeedMemo] = None,
) -> frozenset:
    """The recursive matching of the realized crucial subgraph, as
    full-graph edge ids.  Depends on the input realization only through
    the bits of crucial edges.  ``memo`` is shared by calls under one
    ``alg_ctx`` (see :class:`SeedMemo`)."""
    mask = edge_mask(
        sub_e for sub_e, full_e in enumerate(crucial.from_sub) if g_real.has(full_e)
    )
    c_p = Realization(crucial.sub, mask)
    matched = b_generic(
        crucial.sub,
        c_p,
        crucial.bparams,
        alg_ctx,
        table=crucial.table,
        walks=crucial.walks,
        memo=memo,
    )
    return frozenset(crucial.from_sub[e] for e in matched)


# ---------------------------------------------------------------------------
# probability tables


def alg_seed(ctx: SeedContext, exact: bool, trial: int) -> SeedContext:
    """The algorithm seed of a trial: exact-mode tables are conditioned on
    one seed, so every trial of an exact pipeline shares it."""
    return ctx.child("alg") if exact else ctx.child("alg", trial)


@dataclass(frozen=True)
class MatchProbTable:
    """Per-vertex Pr[v not covered by M_C]."""

    free_prob: tuple
    trials: int
    exact: bool


def build_match_prob_table(
    g: Graph,
    crucial: CrucialSetup,
    trials: int,
    ctx: SeedContext,
    exact: Optional[bool] = None,
) -> MatchProbTable:
    """Estimates Pr[v not in V(M_C)] over crucial realizations.

    Exact mode enumerates the crucial subgraph's realizations (the
    matching never reads anything else) against one fixed algorithm
    seed, so all of its calls share one :class:`SeedMemo`; Monte Carlo
    redraws both per trial.
    """
    sub = crucial.sub
    exact, worlds = weighted_realizations(sub, trials, ctx.child("real"), exact)
    memo = SeedMemo() if exact else None
    covered = [0.0] * g.n
    for t, (mask, weight) in enumerate(worlds):
        matched = b_generic(
            sub, Realization(sub, mask), crucial.bparams, alg_seed(ctx, exact, t),
            table=crucial.table, walks=crucial.walks, memo=memo,
        )
        for v in matched_vertices(sub, matched):
            covered[v] += weight
    runs = 1 if exact else trials
    return MatchProbTable(tuple(1.0 - c / runs for c in covered), 0 if exact else trials, exact)


@dataclass(frozen=True)
class DeltaTable:
    """Estimated query-footprint collision probabilities per vertex pair."""

    values: dict
    trials: int

    def get(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        if key not in self.values:
            raise MissingTableEntry(f"no delta estimate for vertex pair {key}")
        return self.values[key]


def build_delta_table(
    g: Graph,
    crucial: CrucialSetup,
    pairs: Iterable[tuple],
    trials: int,
    ctx: SeedContext,
    exact: bool = False,
) -> DeltaTable:
    """Pr[explored vertex sets of the two endpoints' coverage queries
    intersect], per requested vertex pair.

    A vertex's exploration is the union of instrumented membership
    queries over its incident crucial edges (plus the vertex itself).
    Each trial redraws the crucial realization; the algorithm seed
    follows :func:`alg_seed`, so it is fixed for ``exact`` pipelines,
    whose queries then share one :class:`SeedMemo`: one tape table, and
    a replay of each repeated (realization, root) query.
    """
    wanted = sorted({(u, v) if u < v else (v, u) for (u, v) in pairs})
    if not wanted:
        return DeltaTable({}, trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    sub = crucial.sub
    involved = sorted({w for pair in wanted for w in pair})
    hits = {pair: 0 for pair in wanted}
    memo = SeedMemo() if exact else None
    for t in range(trials):
        real = sample_realization(sub, ctx.child("real"), t)
        alg_ctx = alg_seed(ctx, exact, t)
        tapes = {} if memo is None else memo.tapes
        lca = BMatchingLca(
            sub, crucial.bparams, real, table=crucial.table, walks=crucial.walks, memo=memo
        )
        footprints = {}
        for w in involved:
            fp = {w}
            for e in sub.incident(w):
                _, trace = run_lca(lca, sub, alg_ctx, Site.edge(e), tapes)
                fp.update(trace.vertex_footprint(sub))
            footprints[w] = fp
        for u, v in wanted:
            if footprints[u] & footprints[v]:
                hits[(u, v)] += 1
    return DeltaTable({pair: hits[pair] / trials for pair in wanted}, trials)


# ---------------------------------------------------------------------------
# x and its rounding


def build_x(
    g: Graph,
    q: QProfile,
    f: FractionalMatching,
    m_c: frozenset,
    H: frozenset,
    realization: Realization,
    match_prob: MatchProbTable,
    delta: DeltaTable,
    eps: float,
    p_min: float,
    delta_exponent: int = DELTA_EXPONENT_DEFAULT,
) -> dict:
    """Per-edge values x.

    Crucial edges get 1 exactly when matched by M_C and present in the
    realized sparsifier.  A non-crucial edge gets
    f_e / (p_e Pr[u free] Pr[v free]) unless a guard zeroes it: footprint
    collision probability above (eps p_min)^exponent, either free
    probability below eps^2, the edge unrealized, or an endpoint covered
    by M_C.  Edges in neither class (the middle q band) get 0.

    Guards consult the delta table only on the support of f; an absent
    entry there raises MissingTableEntry.
    """
    threshold = (eps * p_min) ** delta_exponent
    eps_sq = eps * eps
    mc_cover = matched_vertices(g, m_c)
    crucial = q.crucial
    noncrucial = q.noncrucial
    x = {}
    for e in range(g.m):
        if e in crucial:
            x[e] = 1.0 if (e in m_c and e in H and realization.has(e)) else 0.0
            continue
        if e not in noncrucial:
            x[e] = 0.0
            continue
        fe = f.get(e)
        if fe == 0.0:
            x[e] = 0.0
            continue
        u, v = g.endpoints(e)
        d = delta.get(u, v)
        pf_u = match_prob.free_prob[u]
        pf_v = match_prob.free_prob[v]
        if (
            d > threshold
            or pf_u < eps_sq
            or pf_v < eps_sq
            or not realization.has(e)
            or u in mc_cover
            or v in mc_cover
        ):
            x[e] = 0.0
        else:
            x[e] = fe / (g.probability(e) * pf_u * pf_v)
    return x


def scale_values(x: dict, factor: float) -> dict:
    return {e: factor * val for e, val in x.items()}


def round_x(x: dict, eps: float, g: Graph) -> FractionalMatching:
    """y_e = x_e / (1 + eps) where both endpoint loads x_v stay at or
    below 1 + eps, and 0 on every edge of an overloaded vertex.  The
    result is always a fractional matching."""
    loads = vertex_loads(g, x.items())
    limit = 1.0 + eps
    values = {}
    for e, val in x.items():
        u, v = g.endpoints(e)
        if val > 0.0 and loads[u] <= limit and loads[v] <= limit:
            values[e] = val / (1.0 + eps)
    return FractionalMatching.build(g, values)


# ---------------------------------------------------------------------------
# ratio estimation


@dataclass(frozen=True)
class RatioEstimate:
    ratio: float
    stderr: float
    numerator: float
    denominator: float
    samples: int
    exact: bool


def ratio_sweep(
    g: Graph,
    sparsifiers: Sequence[Iterable[int]],
    samples: int,
    ctx: Optional[SeedContext] = None,
    exact: Optional[bool] = None,
) -> list:
    """Paired ratio estimates E[mu(H cap G_p)] / E[mu(G_p)], one per
    sparsifier H, with a jackknife stderr for each ratio.

    Each realization (and its denominator matching) is computed once and
    reused for every candidate edge set, so the k-th entry is what a
    sweep over ``[sparsifiers[k]]`` alone returns under the same context.
    Pairing makes differences between entries directly comparable.  In
    exact mode the expectations are computed exactly and the stderr is
    0.  An identically empty denominator reports ratio 1 (nothing to
    approximate)."""
    masks = [edge_mask(H) for H in sparsifiers]
    exact, worlds = weighted_realizations(g, samples, ctx, exact)
    den = 0.0
    nums = [0.0] * len(masks)
    per_trial = []  # sampled mode only: (mu, [mu within each H]) for the jackknife
    for mask, weight in worlds:
        d = matching_number(g, active=mask)
        ns = [matching_number(g, active=mask & h_mask) for h_mask in masks]
        den += weight * d
        for k, n in enumerate(ns):
            nums[k] += weight * n
        if not exact:
            per_trial.append((d, ns))
    runs = 1 if exact else samples
    out = []
    for k, num in enumerate(nums):
        stderr = 0.0
        if not exact and den > 0:
            loo = [(num - ns[k]) / (den - d) if den - d > 0 else 1.0 for d, ns in per_trial]
            mean_loo = sum(loo) / samples
            var = sum((r - mean_loo) ** 2 for r in loo) * (samples - 1) / samples
            stderr = math.sqrt(var)
        out.append(
            RatioEstimate(
                num / den if den > 0 else 1.0,
                stderr,
                num / runs,
                den / runs,
                0 if exact else samples,
                exact,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class PipelineSetup:
    """Everything fixed across pipeline trials: the instance, q with its
    thresholds, the sparsifier output, f, the crucial-side machinery,
    and the probability tables."""

    g: Graph
    eps: float
    R: int
    q: QProfile
    H: frozenset
    matchings: tuple
    f: FractionalMatching
    crucial: CrucialSetup
    match_prob: MatchProbTable
    delta: DeltaTable
    p_min: float
    delta_exponent: int
    ctx: SeedContext
    exact: bool

    def realization(self, trial: int) -> Realization:
        return sample_realization(self.g, self.ctx.child("run"), trial)

    def alg_ctx(self, trial: int) -> SeedContext:
        return alg_seed(self.ctx, self.exact, trial)


@dataclass
class PipelineRun:
    """One trial: a realization and everything derived from it."""

    setup: PipelineSetup
    trial: int
    realization: Realization
    m_c: frozenset
    x: dict
    y: FractionalMatching

    @property
    def x_total(self) -> float:
        return sum(self.x.values())

    def x_loads(self) -> tuple:
        return tuple(vertex_loads(self.setup.g, self.x.items()))

    @property
    def y_total(self) -> float:
        return fractional_size(self.y)


def prepare_pipeline(
    g: Graph,
    eps: float,
    seed: int,
    R: Optional[int] = None,
    bparams: Optional[BParams] = None,
    q_samples: int = 10_000,
    table_samples: int = 200,
    match_prob_trials: int = MATCH_PROB_TRIALS_DEFAULT,
    delta_trials: int = 200,
    exact: Optional[bool] = None,
    delta_exponent: int = DELTA_EXPONENT_DEFAULT,
    thresholds: Optional[tuple] = None,
) -> PipelineSetup:
    """Builds a reusable pipeline: q and thresholds, H and f, the
    crucial-side recursion setup, and the probability tables.

    ``thresholds`` overrides the automatic bucket selection (handy for
    forcing a split with genuine mass on both sides at desk scale).
    ``bparams`` defaults to a shallow recursion (see :class:`BParams`
    for the paper's asymptotic regime).
    """
    ctx = SeedContext(seed)
    q, R = resolve_R(g, eps, q_samples, ctx.child("q"), exact, thresholds, R)
    exact = q.exact
    sparams = SparsifierParams(R=R, eps=eps, seed=seed)
    H, matchings = build_H(g, sparams)
    if bparams is None:
        bparams = BParams(
            alpha=0, walk_len=2, depth=1, eps=eps, margin=2.0 * eps * eps,
            mis_budget=None,
        )
    crucial = prepare_crucial(g, q, bparams, table_samples, ctx.child("table"))
    f = build_f(g, H, matchings, q, eps, R)
    match_prob = build_match_prob_table(
        g, crucial, match_prob_trials, ctx.child("mprob"), exact=exact
    )
    pairs = [g.endpoints(e) for e in sorted(f.support)]
    delta = build_delta_table(
        g, crucial, pairs, delta_trials, ctx.child("delta"), exact=exact
    )
    return PipelineSetup(
        g=g,
        eps=eps,
        R=R,
        q=q,
        H=H,
        matchings=matchings,
        f=f,
        crucial=crucial,
        match_prob=match_prob,
        delta=delta,
        p_min=p_min_of(g),
        delta_exponent=delta_exponent,
        ctx=ctx,
        exact=exact,
    )


def run_pipeline(setup: PipelineSetup, trial: int, memo: Optional[SeedMemo] = None) -> PipelineRun:
    """One trial; ``memo`` is shared by trials under one algorithm seed."""
    real = setup.realization(trial)
    m_c = compute_MC(setup.crucial, real, setup.alg_ctx(trial), memo)
    x = build_x(
        setup.g,
        setup.q,
        setup.f,
        m_c,
        setup.H,
        real,
        setup.match_prob,
        setup.delta,
        setup.eps,
        setup.p_min,
        setup.delta_exponent,
    )
    scaled = scale_values(x, 1.0 - setup.eps)
    y = round_x(scaled, setup.eps, setup.g)
    return PipelineRun(setup, trial, real, m_c, x, y)


# ---------------------------------------------------------------------------
# claim verification


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    kind: str  # "upper" or "lower": which side the bound constrains
    bound: float
    empirical: float
    stderr: float
    flag: bool  # True when the empirical value breaks the bound by > 3 sigma
    note: str = ""


@dataclass(frozen=True)
class ClaimReport:
    checks: tuple
    trials: int
    eps: float

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "eps": self.eps,
            "claims": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _mean_stderr(values: list) -> tuple:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _freq_stderr(count: int, n: int) -> tuple:
    freq = count / n
    return freq, math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _trial_stats(setup: PipelineSetup, trial: int, memo: Optional[SeedMemo]) -> tuple:
    run = run_pipeline(setup, trial, memo)
    scaled_total = (1.0 - setup.eps) * run.x_total
    try:
        blossom_ok = check_blossom(run.y, setup.eps).ok
        blossom_known = True
    except CapExceeded:
        blossom_ok = True
        blossom_known = False
    return (run.x_loads(), run.x_total, scaled_total, run.y_total, blossom_ok, blossom_known)


def _trial_block(setup: PipelineSetup, trials: range) -> list:
    """Stats of consecutive trials.  An exact pipeline's trials share one
    algorithm seed and so one memo; sampled trials keep their own."""
    memo = SeedMemo() if setup.exact else None
    return [_trial_stats(setup, t, memo) for t in trials]


def verify_claims(setup: PipelineSetup, trials: int, workers: int = 1) -> ClaimReport:
    """Runs the pipeline ``trials`` times and scores the inequalities:
    per-vertex E[x_v] <= 1 + eps, the x_v tail bound, the |x| lower
    bound against opt, the rounding loss of y, and per-run blossom
    feasibility of y on small odd sets.  Flags mark breaks beyond three
    standard errors."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers > 1:
        # imported here: the pool machinery is a large share of start-up
        from concurrent.futures import ProcessPoolExecutor

        # one block of consecutive trials per worker, each with its own memo;
        # a forked pool starts every worker at the first submit
        workers = min(workers, trials)
        cuts = [trials * k // workers for k in range(workers + 1)]
        blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_trial_block, [setup] * workers, blocks)
            stats = [s for block in done for s in block]
    else:
        stats = _trial_block(setup, range(trials))
    g = setup.g
    eps = setup.eps
    checks = []

    loads_per_trial = [s[0] for s in stats]
    if g.n > 0:
        worst_mean = None
        for v in range(g.n):
            series = [loads[v] for loads in loads_per_trial]
            mean, se = _mean_stderr(series)
            if worst_mean is None or mean > worst_mean[0]:
                worst_mean = (mean, se, v)
        mean, se, v = worst_mean
        checks.append(
            ClaimCheck(
                "x-vertex-expectation", "upper", 1.0 + eps, mean, se,
                mean > 1.0 + eps + 3.0 * se, f"worst vertex {v}",
            )
        )
        tail_limit = 1.0 + 2.0 * eps
        worst_tail = None
        for v in range(g.n):
            count = sum(1 for loads in loads_per_trial if loads[v] >= tail_limit)
            freq, se = _freq_stderr(count, trials)
            if worst_tail is None or freq > worst_tail[0]:
                worst_tail = (freq, se, v)
        freq, se, v = worst_tail
        checks.append(
            ClaimCheck(
                "x-vertex-tail", "upper", eps * eps, freq, se,
                freq > eps * eps + 3.0 * se, f"worst vertex {v}",
            )
        )
    else:
        checks.append(ClaimCheck("x-vertex-expectation", "upper", 1.0 + eps, 0.0, 0.0, False, "no vertices"))
        checks.append(ClaimCheck("x-vertex-tail", "upper", eps * eps, 0.0, 0.0, False, "no vertices"))

    opt = setup.q.total
    mean_x, se_x = _mean_stderr([s[1] for s in stats])
    bound = (1.0 - 7.0 * eps) * opt
    checks.append(
        ClaimCheck(
            "x-total-expectation", "lower", bound, mean_x, se_x,
            mean_x < bound - 3.0 * se_x, f"opt estimate {opt:.6f}",
        )
    )

    mean_scaled, _ = _mean_stderr([s[2] for s in stats])
    mean_y, se_y = _mean_stderr([s[3] for s in stats])
    rounding_bound = (1.0 - eps) * mean_scaled - eps * eps * g.n
    checks.append(
        ClaimCheck(
            "rounding-loss", "lower", rounding_bound, mean_y, se_y,
            mean_y < rounding_bound - 3.0 * se_y,
            "bound is (1-eps) E|input| - eps^2 n against the rounded input",
        )
    )

    known = [s for s in stats if s[5]]
    if known:
        bad = sum(1 for s in known if not s[4])
        freq, se = _freq_stderr(bad, len(known))
        note = f"{len(known)} trials checked"
    else:
        freq, se, note = 0.0, 0.0, "skipped: odd-set size cap exceeded"
    checks.append(
        ClaimCheck(
            "blossom-feasibility", "upper", 0.0, freq, se,
            freq > 3.0 * se, note,
        )
    )
    return ClaimReport(tuple(checks), trials, eps)
