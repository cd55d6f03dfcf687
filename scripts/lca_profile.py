"""Profile an LCA's query footprint: sweep every site over seeded
trials, print the heaviest sites, and run the correlated-probe check.

    python scripts/lca_profile.py --n 50 --edge-prob 0.2 --trials 30
    python scripts/lca_profile.py --input g.txt --lca b-matching --depth 2
"""

import argparse
import sys

from stochmatch.graph import ResourceGuard, SeedContext, gnp_graph, load_graph, sample_realization
from stochmatch.hyperwalk import BMatchingLca, BParams
from stochmatch.lca import check_correlated_bound, gather_ledger, ledger_to_csv
from stochmatch.mis import TruncatedGreedyMis


def build_instance(args, ctx: SeedContext) -> tuple:
    """The graph and the LCA the arguments ask for; raises on values that
    the graph or parameter types refuse."""
    if args.input:
        g = load_graph(args.input)
    else:
        g = gnp_graph(args.n, args.edge_prob, args.p, ctx.child("g"))
    if args.lca == "tmis":
        return g, TruncatedGreedyMis(args.budget)
    if not 0.0 < args.eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    params = BParams(
        alpha=args.alpha,
        walk_len=args.walk_len,
        depth=args.depth,
        margin=2.0 * args.eps * args.eps,
    )
    real = sample_realization(g, ctx.child("real"), 0)
    return g, BMatchingLca(g, params, real)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", help="graph file; omit to draw a random instance")
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--edge-prob", type=float, default=0.2)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--lca", choices=("tmis", "b-matching"), default="tmis")
    ap.add_argument("--budget", type=int, help="tmis call threshold (default: none)")
    ap.add_argument("--alpha", type=int, default=0)
    ap.add_argument("--walk-len", type=int, default=2)
    ap.add_argument("--depth", type=int, default=1)
    ap.add_argument("--eps", type=float, default=0.3)
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="also write the raw ledger CSV here")
    args = ap.parse_args(argv)
    if args.trials < 2:
        ap.error("--trials must be at least 2: the correlated-probe check compares sweeps")

    ctx = SeedContext(args.seed)
    try:
        g, lca = build_instance(args, ctx)
    except (OSError, ValueError, ResourceGuard) as exc:
        ap.error(str(exc))
    # the walk index enumerates lazily, so its ceiling can trip mid-sweep
    try:
        ledger = gather_ledger(lca, g, ctx.child("ledger"), trials=args.trials)
    except ResourceGuard as exc:
        ap.error(str(exc))

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(ledger_to_csv(ledger))
        except OSError as exc:
            ap.error(str(exc))

    print(f"graph: n={g.n} m={g.m}  lca={args.lca}  sweeps={ledger.trials}")
    for stat in ("qplus", "qminus", "psi"):
        val, site = ledger.max_mean(stat)
        se = ledger.stderr(stat, site)
        print(f"max mean {stat:<6} {val:8.3f} +- {se:.3f}  at {site.kind} {site.id}")
    rep = check_correlated_bound(ledger)
    verdict = "ok" if rep.ok else "EXCEEDED"
    print(f"correlated bound: {verdict}  (lhs {rep.lhs:.3f} vs rhs {rep.rhs:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
