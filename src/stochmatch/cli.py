"""Command-line driver: sparsify graphs, evaluate approximation ratios,
instrument local-computation queries, and verify the claim pipeline.

All randomness flows from --seed through named seed-context streams, so
every command is deterministic: same config, same bytes out.  A JSON
config file can carry any long-form options; command-line flags win
over config values.

Exit codes: 0 success, 1 resource/guard abort, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .analysis import (
    ratio_sweep,
    prepare_pipeline,
    verify_claims,
)
from .graph import (
    ResourceGuard,
    SeedContext,
    load_graph,
    sample_realization,
    subgraph,
    write_graph_text,
)
from .hyperwalk import BParams, BMatchingLca, Recursion, WalkIndex, check_depth, open_gates
from .lca import gather_ledger, ledger_to_csv
from .mis import TruncatedGreedyMis
from .sparsifier import Q_SAMPLES_DEFAULT, SparsifierParams, build_H
from .sparsifier import max_degree_of, p_min_of, resolve_R

EXIT_OK = 0
EXIT_GUARD = 1
EXIT_USAGE = 2

DEFAULTS = {
    "seed": 0,
    "eps": 0.2,
    "samples": None,  # per-command default
    "q_samples": Q_SAMPLES_DEFAULT,
    "R": None,
    "alpha": 0,
    "walk_len": 2,
    "depth": 1,
    "margin": None,
    "exact": None,
    "threads": 1,
    "thresholds": None,
    "table_samples": 100,
    "delta_trials": 100,
    "match_prob_trials": 500,
    "delta_exponent": 15,
    "budget": None,
    "lca": "tmis",
    "input": None,
    "out": None,
}

SAMPLE_DEFAULTS = {"sparsify": 0, "evaluate": 1000, "lca-stats": 50, "verify": 50}


class UsageError(Exception):
    pass


class ExperimentConfig:
    """Resolved settings for one command: defaults, then config file,
    then explicit flags.  Every range check that needs no graph runs
    here, once per command and before the graph loads, whether or not
    the command reads the knob; the package does not check them again."""

    def __init__(self, command: str, values: dict) -> None:
        self.command = command
        for key, val in values.items():
            setattr(self, key, val)
        if self.input is None:
            raise UsageError("an input graph is required (--input or config)")
        if self.samples is None:
            self.samples = SAMPLE_DEFAULTS[command]
        if self.threads < 1:
            raise UsageError(f"threads must be at least 1, got {self.threads}")
        if self.delta_exponent < 1:  # else the collision threshold (eps p_min)^k is >= 1
            raise UsageError(f"delta_exponent must be at least 1, got {self.delta_exponent}")
        for key in ("samples", "q_samples", "table_samples", "delta_trials", "match_prob_trials"):
            if getattr(self, key) < 0:
                raise UsageError(f"{key} must not be negative, got {getattr(self, key)}")
        if self.thresholds is not None:
            t = self._parse_pair(self.thresholds)
            if not 0.0 <= t[0] < t[1]:
                raise UsageError("thresholds must satisfy 0 <= tau_minus < tau_plus")
            self.thresholds = t
        self.R_list = self._parse_R(self.R)
        if command in ("sparsify", "verify") and self.R_list is not None and len(self.R_list) != 1:
            raise UsageError("this command takes a single R")
        if self.lca not in ("tmis", "b-matching"):
            raise UsageError(f"unknown lca kind: {self.lca}")
        if not 0.0 < self.eps < 1.0:
            raise UsageError("eps must lie in (0, 1)")
        for key in ("alpha", "depth"):
            if getattr(self, key) < 0:
                raise UsageError(f"{key} must be nonnegative")
        if self.walk_len < 1:
            raise UsageError("walk_len must be positive")
        if self.margin is not None and self.margin < 0.0:
            raise UsageError("margin must be nonnegative")
        if self.budget is not None and self.budget < 1:
            raise UsageError("budget must be positive when set")
        if command in ("lca-stats", "verify") and self.samples < 1:
            raise UsageError(f"{command} needs --samples 1 or more, got {self.samples}")
        check_depth(self.depth)

    @staticmethod
    def _parse_pair(raw) -> tuple:
        parts = list(raw) if isinstance(raw, (list, tuple)) else str(raw).split(",")
        if len(parts) != 2:
            raise UsageError("thresholds must be two comma-separated values")
        try:
            return (float(parts[0]), float(parts[1]))
        except (TypeError, ValueError) as ex:
            raise UsageError(f"bad thresholds: {ex}") from ex

    @staticmethod
    def _parse_R(raw) -> Optional[list]:
        if raw is None:
            return None
        if isinstance(raw, int):
            return [raw]
        if isinstance(raw, (list, tuple)):
            items = list(raw)
        else:
            items = str(raw).split(",")
        try:
            values = [int(x) for x in items]
        except (TypeError, ValueError) as ex:
            raise UsageError(f"bad R list: {ex}") from ex
        if not values or any(r < 1 for r in values):
            raise UsageError("R values must be positive integers")
        return values

    def single_R(self) -> Optional[int]:
        return None if self.R_list is None else self.R_list[0]

    def bparams(self) -> BParams:
        margin = self.margin if self.margin is not None else 2.0 * self.eps**2
        return BParams(self.alpha, self.walk_len, self.depth, margin, self.budget)


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def cmd_sparsify(cfg: ExperimentConfig) -> int:
    if cfg.out is None:
        raise UsageError("sparsify writes files; --out is required")
    g = load_graph(cfg.input)
    ctx = SeedContext(cfg.seed)
    q, R = resolve_R(
        g, cfg.eps, cfg.q_samples, ctx.child("q"), cfg.exact, cfg.thresholds, cfg.single_R()
    )
    H, _ = build_H(g, SparsifierParams(R=R, eps=cfg.eps, seed=cfg.seed))
    sub, _ = subgraph(g, sorted(H))
    meta = {
        "R": R,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "n": g.n,
        "m": g.m,
        "h_edges": len(H),
        "h_max_degree": max_degree_of(g, H),
        "tau_minus": q.tau_minus,
        "tau_plus": q.tau_plus,
        "crucial_count": len(q.crucial),
        "noncrucial_count": len(q.noncrucial),
        "q_exact": q.exact,
        "q": list(q.q),
    }
    _emit(cfg.out, write_graph_text(sub))
    _emit(cfg.out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    g = load_graph(cfg.input)
    ctx = SeedContext(cfg.seed)
    if cfg.R_list is not None:
        r_values = cfg.R_list
    else:
        _, R = resolve_R(g, cfg.eps, cfg.q_samples, ctx.child("q"), cfg.exact, cfg.thresholds)
        r_values = [R]
    rows = ["n,m,p,R,ratio,stderr,mode"]
    p_min = p_min_of(g)
    sparsifiers = [
        build_H(g, SparsifierParams(R=R, eps=cfg.eps, seed=cfg.seed))[0]
        for R in r_values
    ]
    # one shared sample stream: estimates are paired across R values
    ests = ratio_sweep(
        g, sparsifiers, samples=cfg.samples, ctx=ctx.child("ratio"), exact=cfg.exact
    )
    for R, est in zip(r_values, ests):
        mode = "exact" if est.exact else "mc"
        rows.append(
            f"{g.n},{g.m},{p_min:.6g},{R},{est.ratio:.6f},{est.stderr:.6f},{mode}"
        )
    _emit(cfg.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_lca_stats(cfg: ExperimentConfig) -> int:
    g = load_graph(cfg.input)
    ctx = SeedContext(cfg.seed)
    if cfg.lca == "tmis":
        lca = TruncatedGreedyMis(cfg.budget)
    else:
        # instance = graph + one seeded realization; sweeps vary the tapes
        real = sample_realization(g, ctx.child("real"), 0)
        params = cfg.bparams()
        gates = open_gates(g.n, params.depth, params.margin)
        walks = WalkIndex(g, params.walk_len, params.alpha)
        lca = BMatchingLca(Recursion(walks, gates, params.mis_budget), real)
    ledger = gather_ledger(lca, g, ctx.child("ledger"), trials=cfg.samples)
    _emit(cfg.out, ledger_to_csv(ledger))
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    g = load_graph(cfg.input)
    setup = prepare_pipeline(
        g,
        eps=cfg.eps,
        seed=cfg.seed,
        R=cfg.single_R(),
        bparams=cfg.bparams(),
        q_samples=cfg.q_samples,
        table_samples=cfg.table_samples,
        match_prob_trials=cfg.match_prob_trials,
        delta_trials=cfg.delta_trials,
        exact=cfg.exact,
        delta_exponent=cfg.delta_exponent,
        thresholds=cfg.thresholds,
    )
    report = verify_claims(setup, trials=cfg.samples, workers=cfg.threads)
    _emit(cfg.out, report.to_json() + "\n")
    return EXIT_OK


COMMANDS = {
    "sparsify": cmd_sparsify,
    "evaluate": cmd_evaluate,
    "lca-stats": cmd_lca_stats,
    "verify": cmd_verify,
}


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with long-form options")
    common.add_argument("--input", help="input graph file (u v p lines)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--seed", type=int)
    common.add_argument("--eps", type=float)
    common.add_argument("--samples", type=int, help="trials/samples for the command")
    common.add_argument("--q-samples", dest="q_samples", type=int)
    common.add_argument("--R", help="R, or comma list for evaluate sweeps")
    common.add_argument("--alpha", type=int)
    common.add_argument("--walk-len", dest="walk_len", type=int)
    common.add_argument("--depth", type=int)
    common.add_argument("--margin", type=float)
    common.add_argument("--exact", action=argparse.BooleanOptionalAction, default=None)
    common.add_argument("--threads", type=int)
    common.add_argument("--thresholds", help="manual tau_minus,tau_plus")
    common.add_argument("--table-samples", dest="table_samples", type=int)
    common.add_argument("--delta-trials", dest="delta_trials", type=int)
    common.add_argument("--match-prob-trials", dest="match_prob_trials", type=int)
    common.add_argument("--delta-exponent", dest="delta_exponent", type=int)
    common.add_argument("--budget", type=int, help="expansions per MIS root query")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="stochastic matching sparsifier toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sparsify", parents=[common], help="build and write H")
    sub.add_parser("evaluate", parents=[common], help="approximation ratio of H")
    stats = sub.add_parser("lca-stats", parents=[common], help="query ledger CSV")
    stats.add_argument("--lca", choices=["tmis", "b-matching"])
    sub.add_parser("verify", parents=[common], help="pipeline claim report")
    return parser


def _check_config_types(loaded: dict) -> None:
    """Each config value must have the type its flag parses to: int,
    float (an int will do), bool for ``exact``, or str.  ``R`` and
    ``thresholds`` go through their own parsers, but neither may hold a
    bool, and a list of ``R`` values holds ints only; null is accepted
    where the default is null."""
    for action in _common_options()._actions:
        key = action.dest
        if key not in loaded:
            continue
        val = loaded[key]
        if key in ("R", "thresholds"):
            items = val if isinstance(val, list) else [val]
            if any(isinstance(x, bool) for x in items):
                raise UsageError(f"config key {key!r} must not hold a bool")
            if key == "R" and isinstance(val, list) and not all(isinstance(x, int) for x in val):
                raise UsageError(f"config key 'R' must list ints, got {val!r}")
            continue
        if val is None and DEFAULTS[key] is None:
            continue
        flag = isinstance(action, argparse.BooleanOptionalAction)
        want = bool if flag else action.type or str
        accepted = (int, float) if want is float else want
        if isinstance(val, bool) != (want is bool) or not isinstance(val, accepted):
            raise UsageError(
                f"config key {key!r} must be {want.__name__}, got {type(val).__name__}"
            )


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise UsageError(f"cannot read config: {ex}") from ex
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        _check_config_types(loaded)
        values.update(loaded)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(args.command, values)


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code else EXIT_OK
    try:
        cfg = _resolve(args)
        return COMMANDS[cfg.command](cfg)
    except (UsageError, OSError, ValueError) as ex:
        # a GraphFormatError is a ValueError
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceGuard, RecursionError) as ex:
        print(f"aborted: {ex}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
