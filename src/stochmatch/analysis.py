"""Executable reconstruction of the approximation argument.

The chain goes: estimate per-edge match probabilities q, split edges
into crucial and non-crucial at selected thresholds, build the sparse
union H of R matchings, derive a fractional matching f on non-crucial
edges from the matching frequencies, run the recursive matching on the
crucial subgraph to get M_C, combine both into per-edge values x, and
round (1-eps) x into a fractional matching y that certifies the size of
the best matching inside H's realization.

Everything downstream of q is deterministic given the seed context, so
pipeline trials are reproducible and parallelizable.  The crucial side
is one :class:`~stochmatch.hyperwalk.Recursion`, which
:func:`prepare_crucial` builds from the knobs of ``BParams``, and every
recursive matching call and query of a pipeline takes it.  The recursive
matching's calls and queries under one algorithm seed share one tape
table of that seed, the one store of what the seed fixes (see
:mod:`stochmatch.hyperwalk`).  An exact pipeline has one algorithm seed,
so its two probability tables and its trials read one table, which pool
workers receive with the setup; each sampled trial, of the tables or of
``verify``, has a seed and a table of its own.  The non-crucial side is
settled before any trial: the free probabilities of f's endpoints and
the footprint collisions of f's pairs give each f-support edge that
passes their guards one weight, which a trial's x reads when the edge
is realized and M_C covers neither endpoint.  The claim checks
in :func:`verify_claims` are reports with flags, not hard assertions:
the inequalities they measure hold asymptotically under parameter
regimes far beyond desk scale, and at bench parameters a miss is an
observation, not a bug.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, NamedTuple, Optional, Sequence

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
    BMatchingLca,
    Recursion,
    WalkIndex,
    b_generic,
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


class CrucialSetup(NamedTuple):
    """The recursive matching of the crucial subgraph: ``rec`` runs on
    the subgraph ``rec.walks.g``, whose edge i is edge ``from_sub[i]`` of
    the full graph."""

    from_sub: tuple
    rec: Recursion


def prepare_crucial(
    g: Graph,
    q: QProfile,
    bparams: BParams,
    table_samples: int,
    ctx: SeedContext,
) -> CrucialSetup:
    """Builds the crucial subgraph's recursion: its walk index, the
    gates of :func:`build_unsaturation_table`, whose targets are the q loads
    restricted to crucial edges (the coverage marginals of MM restricted
    to C), and the MIS budget of ``bparams``.

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
        gates = build_unsaturation_table(bparams, table_samples, ctx, a_prob, walks)
    return CrucialSetup(from_sub, Recursion(walks, gates, bparams.mis_budget))


def compute_MC(crucial: CrucialSetup, g_real: int, tapes: TapeTable) -> frozenset:
    """The recursive matching of the realized crucial subgraph, as
    full-graph edge ids, under the algorithm seed of ``tapes``, a tape
    table on the crucial subgraph.  Depends on the input realization mask
    ``g_real`` only through the bits of crucial edges."""
    c_p = edge_mask(
        sub_e for sub_e, full_e in enumerate(crucial.from_sub) if (g_real >> full_e) & 1
    )
    matched = b_generic(crucial.rec, c_p, tapes)
    return frozenset(crucial.from_sub[e] for e in matched)


# ---------------------------------------------------------------------------
# probability tables


def build_match_prob_table(
    crucial: CrucialSetup,
    vertices: Iterable[int],
    trials: int,
    ctx: SeedContext,
    tapes: Optional[TapeTable],
) -> dict:
    """Pr[v not in V(M_C)], the free probability of each of ``vertices``,
    estimated over crucial realizations; {} at once when there are none.

    Given ``tapes``, the exact pipeline's tape table, this enumerates the
    crucial subgraph's realizations (the matching never reads anything
    else) under that table's seed, the one the trials read.  Without it,
    each of ``trials`` Monte Carlo trials draws its realization and its
    algorithm seed ``ctx.child("alg", t)``.
    """
    wanted = sorted(set(vertices))
    if not wanted:
        return {}
    sub = crucial.rec.walks.g
    exact, worlds = weighted_realizations(
        sub, trials, ctx.child("real"), tapes is not None, "--match-prob-trials"
    )
    covered = [0.0] * sub.n
    for t, (mask, weight) in enumerate(worlds):
        world_tapes = tapes if exact else TapeTable(ctx.child("alg", t), sub)
        matched = b_generic(crucial.rec, mask, world_tapes)
        for v in matched_vertices(sub, matched):
            covered[v] += weight
    runs = 1 if exact else trials
    return {v: 1.0 - covered[v] / runs for v in wanted}


def build_delta_table(
    crucial: CrucialSetup,
    pairs: Iterable[tuple],
    trials: int,
    ctx: SeedContext,
    tapes: Optional[TapeTable],
) -> dict:
    """Pr[explored vertex sets of the two endpoints' coverage queries
    intersect], per requested vertex pair, keyed by the sorted pair.

    A vertex's exploration is the union of instrumented membership
    queries over its incident crucial edges (plus the vertex itself).
    Each trial redraws the crucial realization.  Given ``tapes``, the
    exact pipeline's tape table, every query reads it, under the seed the
    trials read; without it, trial t's queries share a table of its own
    seed ``ctx.child("alg", t)``.  A query repeated under one table is
    replayed (see :class:`BMatchingLca`).
    """
    wanted = sorted({(u, v) if u < v else (v, u) for (u, v) in pairs})
    if not wanted:
        return {}
    if trials < 1:
        raise ValueError("delta trials must be positive; pass --delta-trials 1 or more")
    sub = crucial.rec.walks.g
    involved = sorted({w for pair in wanted for w in pair})
    hits = {pair: 0 for pair in wanted}
    for t in range(trials):
        real = sample_realization(sub, ctx.child("real"), t)
        trial_tapes = tapes if tapes is not None else TapeTable(ctx.child("alg", t), sub)
        lca = BMatchingLca(crucial.rec, real)
        footprints = {}
        for w in involved:
            fp = {w}
            for e in sub.incident(w):
                _, trace = run_lca(lca, sub, Site("edge", e), trial_tapes)
                fp.update(trace.vertex_footprint(sub))
            footprints[w] = fp
        for u, v in wanted:
            if footprints[u] & footprints[v]:
                hits[(u, v)] += 1
    return {pair: hits[pair] / trials for pair in wanted}


# ---------------------------------------------------------------------------
# x and its rounding


def build_weights(
    g: Graph,
    f: FractionalMatching,
    free_prob: dict,
    delta: dict,
    eps: float,
    threshold: float,
) -> dict:
    """The x value f_e / (p_e Pr[u free] Pr[v free]) of each edge of f's
    support whose trial-independent guards pass: a footprint collision
    probability in ``delta`` of at most ``threshold``, and both free
    probabilities in ``free_prob`` at least eps^2."""
    eps_sq = eps * eps
    weights = {}
    for e in sorted(f.support):
        u, v = g.endpoints(e)
        pf_u = free_prob[u]
        pf_v = free_prob[v]
        if delta[(u, v) if u < v else (v, u)] > threshold or pf_u < eps_sq or pf_v < eps_sq:
            continue
        weights[e] = f.get(e) / (g.probability(e) * pf_u * pf_v)
    return weights


def build_x(
    g: Graph,
    crucial: frozenset,
    weights: dict,
    m_c: frozenset,
    H: frozenset,
    realization: int,
) -> dict:
    """Per-edge values x for the trial's realization mask ``realization``,
    in edge order.

    A crucial edge gets 1 exactly when matched by M_C and present in the
    realized sparsifier.  An edge of ``weights`` (see
    :func:`build_weights`) gets its weight when it is realized and M_C
    covers neither endpoint.  Every other edge gets 0.
    """
    mc_cover = matched_vertices(g, m_c)
    x = {}
    for e in range(g.m):
        realized = (realization >> e) & 1
        if e in crucial:
            x[e] = 1.0 if (e in m_c and e in H and realized) else 0.0
        elif e in weights and realized and mc_cover.isdisjoint(g.endpoints(e)):
            x[e] = weights[e]
        else:
            x[e] = 0.0
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


class RatioEstimate(NamedTuple):
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
    exact, worlds = weighted_realizations(g, samples, ctx, exact, "--samples")
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


class PipelineSetup(NamedTuple):
    """Everything fixed across pipeline trials: the instance, q with its
    thresholds, the sparsifier output, the crucial-side machinery, and
    ``weights``, the x value of each edge of f's support that passes the
    trial-independent guards (see :func:`build_weights`).  ``tapes`` is
    an exact pipeline's one tape table, of the seed ``ctx.child("alg")``
    on the crucial subgraph, which both probability tables and every
    trial read; a sampled pipeline has None, and trial t reads a table of
    the seed ``ctx.child("alg", t)``."""

    g: Graph
    eps: float
    R: int
    q: QProfile
    H: frozenset
    crucial: CrucialSetup
    weights: dict
    ctx: SeedContext
    tapes: Optional[TapeTable]

    def realization(self, trial: int) -> int:
        return sample_realization(self.g, self.ctx.child("run"), trial)


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
    crucial-side recursion setup, and the weights of f's support.  The
    free probabilities are tabulated only at f's endpoints and the
    footprint collisions only for f's pairs, so an empty f builds neither
    table; the collision threshold is (eps p_min)^``delta_exponent``.

    Every sample count, ``delta_exponent`` and ``bparams`` come from the
    caller (the command line's defaults live in ``cli.DEFAULTS``).
    ``R`` is derived from the thresholds when None, ``thresholds``
    overrides the automatic bucket selection (handy for forcing a split
    with genuine mass on both sides at desk scale), and ``exact`` None
    picks the mode by edge count.
    """
    ctx = SeedContext(seed)
    q, R = resolve_R(g, eps, q_samples, ctx.child("q"), exact, thresholds, R)
    sparams = SparsifierParams(R=R, eps=eps, seed=seed)
    H, matchings = build_H(g, sparams)
    crucial = prepare_crucial(g, q, bparams, table_samples, ctx.child("table"))
    f = build_f(g, H, matchings, q, eps, R)
    tapes = TapeTable(ctx.child("alg"), crucial.rec.walks.g) if q.exact else None
    pairs = [g.endpoints(e) for e in sorted(f.support)]
    endpoints = [w for pair in pairs for w in pair]
    free_prob = build_match_prob_table(
        crucial, endpoints, match_prob_trials, ctx.child("mprob"), tapes
    )
    delta = build_delta_table(crucial, pairs, delta_trials, ctx.child("delta"), tapes)
    threshold = (eps * p_min_of(g)) ** delta_exponent
    weights = build_weights(g, f, free_prob, delta, eps, threshold)
    return PipelineSetup(g, eps, R, q, H, crucial, weights, ctx, tapes)


def run_pipeline(setup: PipelineSetup, trial: int) -> tuple:
    """One trial's per-edge values x (a dict) and their rounding y (a
    :class:`FractionalMatching`), as ``(x, y)``.  M_C reads the exact
    pipeline's one tape table, or a fresh table of the sampled trial's
    own seed (see :class:`PipelineSetup`)."""
    tapes = setup.tapes
    if tapes is None:
        tapes = TapeTable(setup.ctx.child("alg", trial), setup.crucial.rec.walks.g)
    real = setup.realization(trial)
    m_c = compute_MC(setup.crucial, real, tapes)
    x = build_x(setup.g, setup.q.crucial, setup.weights, m_c, setup.H, real)
    scaled = scale_values(x, 1.0 - setup.eps)
    y = round_x(scaled, setup.eps, setup.g)
    return x, y


# ---------------------------------------------------------------------------
# claim verification


class ClaimCheck(NamedTuple):
    name: str
    kind: str  # "upper" or "lower": which side the bound constrains
    bound: float
    empirical: float
    stderr: float
    flag: bool  # True when the empirical value breaks the bound by > 3 sigma
    note: str


class ClaimReport(NamedTuple):
    checks: tuple[ClaimCheck, ...]
    trials: int
    eps: float

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "eps": self.eps,
            "claims": [c._asdict() for c in self.checks],
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


def _trial_stats(setup: PipelineSetup, trial: int) -> tuple:
    """What :func:`verify_claims` reads of one trial: the vertex loads of
    x, |x|, |y|, and the blossom check of y, which is None when the
    odd-set size cap is exceeded."""
    x, y = run_pipeline(setup, trial)
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
    """Stats of consecutive trials."""
    return [_trial_stats(setup, t) for t in trials]


def verify_claims(setup: PipelineSetup, trials: int, workers: int) -> ClaimReport:
    """Runs the pipeline ``trials`` times and scores the inequalities:
    per-vertex E[x_v] <= 1 + eps, the x_v tail bound, the |x| lower
    bound against opt, the rounding loss of y, and per-run blossom
    feasibility of y on small odd sets.  Flags mark breaks beyond three
    standard errors."""
    # at most one worker per trial and per CPU
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery is a large share of start-up
        from concurrent.futures import ProcessPoolExecutor

        # one block of consecutive trials per worker, each with its own copy of
        # the setup and so of an exact pipeline's tape table;
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
