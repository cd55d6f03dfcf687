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
import os
from dataclasses import dataclass, asdict
from typing import Iterable, Optional, Sequence

from .graph import (
    Graph,
    ResourceGuard,
    SeedContext,
    edge_mask,
    sample_realization,
    subgraph,
    weighted_realizations,
)
from .hyperwalk import (
    BParams,
    SeedMemo,
    WalkIndex,
    b_generic,
    BMatchingLca,
    build_unsaturation_table,
    open_gates,
)
from .lca import Site, TapeTable, run_lca
from .matching import (
    FractionalMatching,
    check_blossom,
    fractional_size,
    matched_vertices,
    matching_number,
    vertex_loads,
)
from .sparsifier import QProfile, SparsifierParams, build_H, p_min_of, resolve_R


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
    from_sub: tuple
    gates: tuple
    walks: WalkIndex
    bparams: BParams


def prepare_crucial(
    g: Graph,
    q: QProfile,
    bparams: BParams,
    table_samples: int,
    ctx: SeedContext,
) -> CrucialSetup:
    """Builds the crucial subgraph, its walk index, and the gates of
    :func:`build_unsaturation_table`, whose targets are the q loads
    restricted to crucial edges (the coverage marginals of MM restricted
    to C).

    There is one gate per level 0..depth-1 that the recursion reads (none
    at depth 0).  The level-0 marginals are all zeros, so at depth 1
    nothing is sampled and gate 0 opens the vertices whose q-load target
    exceeds the margin.  With no crucial edge, or ``table_samples < 1``,
    the gates are :func:`open_gates`, whose targets are 1, so every gate
    opens all vertices under a margin below 1: at depth 1, a count of 0
    and a positive count both sample nothing, yet gate differently.
    """
    crucial_ids = sorted(q.crucial)
    sub, from_sub = subgraph(g, crucial_ids)
    walks = WalkIndex(sub, bparams.walk_len, bparams.alpha)
    a_prob = match_targets_from_q(g, q, crucial_ids)
    if sub.m == 0 or table_samples < 1:
        gates = open_gates(sub.n, bparams.depth, bparams.margin)
    else:
        gates = build_unsaturation_table(sub, bparams, table_samples, ctx, a_prob, walks)
    return CrucialSetup(sub, from_sub, gates, walks, bparams)


def compute_MC(
    crucial: CrucialSetup,
    g_real: int,
    alg_ctx: SeedContext,
    memo: Optional[SeedMemo],
) -> frozenset:
    """The recursive matching of the realized crucial subgraph, as
    full-graph edge ids.  Depends on the input realization mask
    ``g_real`` only through the bits of crucial edges.  ``memo`` is
    shared by calls under one ``alg_ctx`` (see :class:`SeedMemo`)."""
    c_p = edge_mask(
        sub_e for sub_e, full_e in enumerate(crucial.from_sub) if (g_real >> full_e) & 1
    )
    matched = b_generic(
        crucial.sub,
        c_p,
        crucial.bparams,
        alg_ctx,
        gates=crucial.gates,
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


def build_match_prob_table(
    g: Graph,
    crucial: CrucialSetup,
    trials: int,
    ctx: SeedContext,
    exact: Optional[bool],
) -> tuple:
    """Per-vertex Pr[v not in V(M_C)], the free probabilities, estimated
    over crucial realizations.

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
            sub, mask, crucial.bparams, alg_seed(ctx, exact, t),
            gates=crucial.gates, walks=crucial.walks, memo=memo,
        )
        for v in matched_vertices(sub, matched):
            covered[v] += weight
    runs = 1 if exact else trials
    return tuple(1.0 - c / runs for c in covered)


@dataclass(frozen=True)
class DeltaTable:
    """Estimated query-footprint collision probabilities per vertex pair."""

    values: dict

    def get(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        if key not in self.values:
            raise MissingTableEntry(f"no delta estimate for vertex pair {key}")
        return self.values[key]


def build_delta_table(
    crucial: CrucialSetup,
    pairs: Iterable[tuple],
    trials: int,
    ctx: SeedContext,
    exact: bool,
) -> DeltaTable:
    """Pr[explored vertex sets of the two endpoints' coverage queries
    intersect], per requested vertex pair.

    A vertex's exploration is the union of instrumented membership
    queries over its incident crucial edges (plus the vertex itself).
    Each trial redraws the crucial realization; the algorithm seed
    follows :func:`alg_seed`, so it is fixed for ``exact`` pipelines,
    whose queries then share one tape table and one :class:`SeedMemo`,
    which replays each repeated (realization, root) query.
    """
    wanted = sorted({(u, v) if u < v else (v, u) for (u, v) in pairs})
    if not wanted:
        return DeltaTable({})
    if trials < 1:
        raise ValueError("trials must be positive")
    sub = crucial.sub
    involved = sorted({w for pair in wanted for w in pair})
    hits = {pair: 0 for pair in wanted}
    memo = SeedMemo() if exact else None
    tapes = None
    for t in range(trials):
        real = sample_realization(sub, ctx.child("real"), t)
        alg_ctx = alg_seed(ctx, exact, t)
        if tapes is None or not exact:
            tapes = TapeTable(alg_ctx, sub)
        lca = BMatchingLca(
            sub, crucial.bparams, real, gates=crucial.gates, walks=crucial.walks, memo=memo
        )
        footprints = {}
        for w in involved:
            fp = {w}
            for e in sub.incident(w):
                _, trace = run_lca(lca, sub, alg_ctx, Site("edge", e), tapes)
                fp.update(trace.vertex_footprint(sub))
            footprints[w] = fp
        for u, v in wanted:
            if footprints[u] & footprints[v]:
                hits[(u, v)] += 1
    return DeltaTable({pair: hits[pair] / trials for pair in wanted})


# ---------------------------------------------------------------------------
# x and its rounding


def build_x(
    g: Graph,
    q: QProfile,
    f: FractionalMatching,
    m_c: frozenset,
    H: frozenset,
    realization: int,
    free_prob: tuple,
    delta: DeltaTable,
    eps: float,
    p_min: float,
    delta_exponent: int,
) -> dict:
    """Per-edge values x for the trial's realization mask ``realization``.

    Crucial edges get 1 exactly when matched by M_C and present in the
    realized sparsifier.  A non-crucial edge gets
    f_e / (p_e Pr[u free] Pr[v free]), with the free probabilities from
    ``free_prob``, unless a guard zeroes it: footprint
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
            x[e] = 1.0 if (e in m_c and e in H and (realization >> e) & 1) else 0.0
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
        pf_u = free_prob[u]
        pf_v = free_prob[v]
        if (
            d > threshold
            or pf_u < eps_sq
            or pf_v < eps_sq
            or not (realization >> e) & 1
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
    exact: bool


def ratio_sweep(
    g: Graph,
    sparsifiers: Sequence[Iterable[int]],
    samples: int,
    ctx: Optional[SeedContext],
    exact: Optional[bool],
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
    out = []
    for k, num in enumerate(nums):
        stderr = 0.0
        if not exact and den > 0:
            loo = [(num - ns[k]) / (den - d) if den - d > 0 else 1.0 for d, ns in per_trial]
            mean_loo = sum(loo) / samples
            var = sum((r - mean_loo) ** 2 for r in loo) * (samples - 1) / samples
            stderr = math.sqrt(var)
        out.append(RatioEstimate(num / den if den > 0 else 1.0, stderr, exact))
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
    f: FractionalMatching
    crucial: CrucialSetup
    free_prob: tuple
    delta: DeltaTable
    p_min: float
    delta_exponent: int
    ctx: SeedContext
    exact: bool

    def realization(self, trial: int) -> int:
        return sample_realization(self.g, self.ctx.child("run"), trial)

    def alg_ctx(self, trial: int) -> SeedContext:
        return alg_seed(self.ctx, self.exact, trial)


def prepare_pipeline(
    g: Graph,
    eps: float,
    seed: int,
    *,
    bparams: BParams,
    q_samples: int,
    table_samples: int,
    match_prob_trials: int,
    delta_trials: int,
    delta_exponent: int,
    R: Optional[int],
    exact: Optional[bool],
    thresholds: Optional[tuple],
) -> PipelineSetup:
    """Builds a reusable pipeline: q and thresholds, H and f, the
    crucial-side recursion setup, and the probability tables.

    Every sample count, ``delta_exponent`` and ``bparams`` come from the
    caller (the command line's defaults live in ``cli.DEFAULTS``).
    ``R`` is derived from the thresholds when None, ``thresholds``
    overrides the automatic bucket selection (handy for forcing a split
    with genuine mass on both sides at desk scale), and ``exact`` None
    picks the mode by edge count.
    """
    ctx = SeedContext(seed)
    q, R = resolve_R(g, eps, q_samples, ctx.child("q"), exact, thresholds, R)
    exact = q.exact
    sparams = SparsifierParams(R=R, eps=eps, seed=seed)
    H, matchings = build_H(g, sparams)
    crucial = prepare_crucial(g, q, bparams, table_samples, ctx.child("table"))
    f = build_f(g, H, matchings, q, eps, R)
    free_prob = build_match_prob_table(
        g, crucial, match_prob_trials, ctx.child("mprob"), exact=exact
    )
    pairs = [g.endpoints(e) for e in sorted(f.support)]
    delta = build_delta_table(crucial, pairs, delta_trials, ctx.child("delta"), exact=exact)
    return PipelineSetup(
        g=g,
        eps=eps,
        R=R,
        q=q,
        H=H,
        f=f,
        crucial=crucial,
        free_prob=free_prob,
        delta=delta,
        p_min=p_min_of(g),
        delta_exponent=delta_exponent,
        ctx=ctx,
        exact=exact,
    )


def run_pipeline(setup: PipelineSetup, trial: int, memo: Optional[SeedMemo]) -> tuple:
    """One trial's per-edge values x (a dict) and their rounding y (a
    :class:`FractionalMatching`), as ``(x, y)``; ``memo`` is shared by
    trials under one algorithm seed."""
    real = setup.realization(trial)
    m_c = compute_MC(setup.crucial, real, setup.alg_ctx(trial), memo)
    x = build_x(
        setup.g,
        setup.q,
        setup.f,
        m_c,
        setup.H,
        real,
        setup.free_prob,
        setup.delta,
        setup.eps,
        setup.p_min,
        setup.delta_exponent,
    )
    scaled = scale_values(x, 1.0 - setup.eps)
    y = round_x(scaled, setup.eps, setup.g)
    return x, y


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
    note: str


@dataclass(frozen=True)
class ClaimReport:
    checks: tuple[ClaimCheck, ...]
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
    """What :func:`verify_claims` reads of one trial: the vertex loads of
    x, |x|, |y|, and the blossom check of y, which is None when the
    odd-set size cap is exceeded."""
    x, y = run_pipeline(setup, trial, memo)
    try:
        blossom_ok = check_blossom(y, setup.eps).ok
    except ResourceGuard:
        blossom_ok = None
    return vertex_loads(setup.g, x.items()), sum(x.values()), fractional_size(y), blossom_ok


def _claim(name: str, kind: str, bound: float, value: float, se: float, note: str) -> ClaimCheck:
    """A check flagged when ``value`` breaks ``bound`` by more than three
    standard errors: above it for an ``upper`` claim, below for ``lower``."""
    if kind == "upper":
        flag = value > bound + 3.0 * se
    else:
        flag = value < bound - 3.0 * se
    return ClaimCheck(name, kind, bound, value, se, flag, note)


def _trial_block(setup: PipelineSetup, trials: range) -> list:
    """Stats of consecutive trials.  An exact pipeline's trials share one
    algorithm seed and so one memo; sampled trials keep their own."""
    memo = SeedMemo() if setup.exact else None
    return [_trial_stats(setup, t, memo) for t in trials]


def verify_claims(setup: PipelineSetup, trials: int, workers: int) -> ClaimReport:
    """Runs the pipeline ``trials`` times and scores the inequalities:
    per-vertex E[x_v] <= 1 + eps, the x_v tail bound, the |x| lower
    bound against opt, the rounding loss of y, and per-run blossom
    feasibility of y on small odd sets.  Flags mark breaks beyond three
    standard errors."""
    if trials < 1:
        raise ValueError("trials must be positive")
    # at most one worker per trial and per CPU
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery is a large share of start-up
        from concurrent.futures import ProcessPoolExecutor

        # one block of consecutive trials per worker, each with its own memo;
        # a forked pool starts every worker at the first submit
        cuts = [trials * k // workers for k in range(workers + 1)]
        blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_trial_block, [setup] * workers, blocks)
            stats = [s for block in done for s in block]
    else:
        stats = _trial_block(setup, range(trials))
    g = setup.g
    eps = setup.eps
    loads, x_totals, y_totals, blossoms = zip(*stats)
    per_vertex = list(zip(*loads))  # empty when the graph has no vertices
    tail_limit = 1.0 + 2.0 * eps
    worst_vertex_claims = (
        ("x-vertex-expectation", 1.0 + eps, [_mean_stderr(series) for series in per_vertex]),
        ("x-vertex-tail", eps * eps, [
            _freq_stderr(sum(1 for load in series if load >= tail_limit), trials)
            for series in per_vertex
        ]),
    )
    checks = []
    for name, bound, moments in worst_vertex_claims:
        if moments:
            v = max(range(g.n), key=lambda u: moments[u][0])
            checks.append(_claim(name, "upper", bound, *moments[v], f"worst vertex {v}"))
        else:
            checks.append(_claim(name, "upper", bound, 0.0, 0.0, "no vertices"))

    opt = setup.q.total
    mean_x, se_x = _mean_stderr(x_totals)
    checks.append(_claim(
        "x-total-expectation", "lower", (1.0 - 7.0 * eps) * opt, mean_x, se_x,
        f"opt estimate {opt:.6f}",
    ))
    mean_scaled, _ = _mean_stderr([(1.0 - eps) * t for t in x_totals])
    mean_y, se_y = _mean_stderr(y_totals)
    checks.append(_claim(
        "rounding-loss", "lower", (1.0 - eps) * mean_scaled - eps * eps * g.n, mean_y, se_y,
        "bound is (1-eps) E|input| - eps^2 n against the rounded input",
    ))

    known = [ok for ok in blossoms if ok is not None]
    if known:
        freq, se = _freq_stderr(known.count(False), len(known))
        note = f"{len(known)} trials checked"
    else:
        freq, se, note = 0.0, 0.0, "skipped: odd-set size cap exceeded"
    checks.append(_claim("blossom-feasibility", "upper", 0.0, freq, se, note))
    return ClaimReport(tuple(checks), trials, eps)
