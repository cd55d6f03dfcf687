"""Sweep sparsifier degree bounds on one instance and print paired
ratio estimates as CSV.

    python scripts/ratio_sweep.py --n 30 --edge-prob 0.2 --p 0.5 \
        --R 1,2,4,8,16 --samples 10000 --seed 0
"""

import argparse
import sys

from stochmatch.analysis import ratio_sweep
from stochmatch.graph import ResourceGuard, SeedContext, gnp_graph, load_graph
from stochmatch.sparsifier import SparsifierParams, build_H, max_degree_of


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", help="graph file; omit to draw a random instance")
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--edge-prob", type=float, default=0.2)
    ap.add_argument("--p", type=float, default=0.5, help="edge survival probability")
    ap.add_argument("--R", default="1,2,4,8,16", help="comma-separated degree bounds")
    ap.add_argument("--eps", type=float, default=0.2)
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--exact", action="store_true", help="enumerate realizations")
    args = ap.parse_args(argv)
    try:
        rs = [int(tok) for tok in args.R.split(",") if tok]
    except ValueError:
        rs = []
    if not rs or min(rs) < 1:
        ap.error(f"--R must list positive integers, got {args.R!r}")
    if args.samples < 1:
        ap.error("--samples must be positive")

    ctx = SeedContext(args.seed)
    # the package refuses out-of-range values with a ValueError, and too
    # many edge draws or edges to enumerate with a ResourceGuard, before
    # it does the work
    try:
        if args.input:
            g = load_graph(args.input)
        else:
            g = gnp_graph(args.n, args.edge_prob, args.p, ctx.child("g"))
        hs = [build_H(g, SparsifierParams(R=r, eps=args.eps, seed=args.seed))[0] for r in rs]
        # exact stays opt-in: enumeration is 2^m realizations
        ests = ratio_sweep(g, hs, args.samples, ctx=ctx.child("sweep"), exact=args.exact)
    except (OSError, ValueError, ResourceGuard) as exc:
        ap.error(str(exc))

    print("R,h_edges,h_max_degree,ratio,stderr")
    for r, H, est in zip(rs, hs, ests):
        print(f"{r},{len(H)},{max_degree_of(g, H)},{est.ratio:.6f},{est.stderr:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
