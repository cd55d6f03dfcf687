"""Benchmark of the stochmatch command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: the workload's command runs in this process
through ``stochmatch.cli.main(argv)``, one invocation at a time, until S
seconds have passed.  Inputs are generated from --seed (see workloads.py).
Every invocation must exit 0, pass the command's output invariants and
produce the same output digest as the first one.

--trace 0 prints the end-to-end metrics: the median invocation's wall
time, set-up time (fresh-interpreter import plus load_graph, median of
several) and peak RSS; the invocation count is ``attempted``.  --trace 1
alternates untraced invocations with ones traced by wrappers around every
module's public functions (tracer.py), prints the per-layer metrics
BENCHMARK.json names (medians over traced invocations) and writes the
spans to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A summary goes to stderr.  Exit code 2 when the source tree is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS  # noqa: E402  (HERE is on sys.path as the script dir)

# set-up repetitions, spread evenly over the measured window so that a
# burst of machine noise cannot cover all of them
SETUP_REPS = 15
SETUP_TIMEOUT_S = 60
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import stochmatch.cli
stochmatch.cli.load_graph(sys.argv[2])
print(time.perf_counter() - t0)
"""

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the Tracer table behind the last component of a per-layer name: span
# count, self time (traced children excluded), inclusive time
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "s": "total_s"}
# per-layer values computed here, per traced invocation
DERIVED = frozenset(
    {
        "cli.output_bytes",
        "lca.qplus_over_m",
        "mis.truncated_frac",
        "trace.cmd_s",
        "trace.overhead_s",
        "trace.stress_share",
    }
)


def layer_sources() -> dict:
    """Each per-layer metric of BENCHMARK.json -> (Tracer table, key), or
    None when it is derived here.  Raises on a name nothing supplies."""
    import tracer as tr

    sources = {}
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if name in DERIVED:
            sources[name] = None
        elif field in SPAN_FIELDS and span in tr.SPAN_NAMES:
            sources[name] = (SPAN_FIELDS[field], span)
        elif name in tr.COUNTERS:
            sources[name] = ("counts", name)
        else:
            raise ValueError(f"no source for per-layer metric {name!r}")
    return sources


def setup_once(inp: Path) -> float:
    """Seconds to import stochmatch.cli and load the input in a fresh
    interpreter, as a CLI user pays it on every run."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(inp)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip())


class Loop:
    """Invocations of one workload command, with their output checks."""

    def __init__(self, cli, workload, inp: Path, out: Path, seed: int) -> None:
        self.cli = cli
        self.workload = workload
        self.text = inp.read_text()
        self.argv = workload.make_argv(str(inp), str(out), seed)
        self.out_paths = [Path(f"{out}{s}") for s in workload.outputs]
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def once(self) -> float:
        for p in self.out_paths:
            if p.exists():
                p.unlink()
        self.attempted += 1
        t0 = perf_counter()
        try:
            rc = self.cli.main(self.argv)
        except Exception as ex:  # a crash is a failed invocation, not a dead benchmark
            traceback.print_exc()
            rc = f"uncaught {type(ex).__name__}: {ex}"
        elapsed = perf_counter() - t0
        problem = self._check(rc)
        if problem:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {problem}", file=sys.stderr)
        return elapsed

    def _check(self, rc):
        if rc != 0:
            return f"exit code {rc}"
        try:
            outputs = {
                s: p.read_bytes() for s, p in zip(self.workload.outputs, self.out_paths)
            }
            self.workload.check(self.text, outputs)
        except Exception as ex:  # any malformed output is a failed invariant
            return f"output check: {type(ex).__name__}: {ex}"
        self.output_bytes = sum(len(b) for b in outputs.values())
        digest = hashlib.sha256(b"".join(outputs[s] for s in self.workload.outputs))
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            return "output digest differs from the first invocation"
        return None

    def run_for(self, seconds: float, each) -> list:
        """Invoke until ``seconds`` pass (at least once); returns the times.
        ``each`` runs after every invocation with the elapsed share of the
        window."""
        times = []
        start = perf_counter()
        while not times or perf_counter() < start + seconds:
            times.append(self.once())
            each((perf_counter() - start) / seconds)
        return times


def traced_metrics(loop: Loop, workload, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced invocations in turn, so that each traced one is
    paired with an untraced one in the same host state.  Per-layer values
    are medians over the traced invocations; trace.overhead_s is the
    median paired difference."""
    import tracer as tr

    sources = layer_sources()
    tracer = tr.Tracer()

    def traced_once() -> float:
        tracer.reset()
        installed = tr.Installed(tracer)
        try:
            return loop.once()
        finally:
            installed.remove()

    rows = []
    start = perf_counter()
    while not rows or perf_counter() < start + seconds:
        if len(rows) % 2:  # alternate the order, so a steady drift cancels
            traced = traced_once()
            untraced = loop.once()
        else:
            untraced = loop.once()
            traced = traced_once()
        queries = tracer.calls.get("lca.run_lca", 0)
        tmis = tracer.calls.get("mis.TruncatedGreedyMis.run", 0)
        derived = {
            "cli.output_bytes": loop.output_bytes,
            "lca.qplus_over_m": tracer.counts.get("lca.qplus_over_m.sum", 0) / max(1, queries),
            "mis.truncated_frac": tracer.counts.get("mis.truncated", 0) / max(1, tmis),
            "trace.cmd_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.stress_share": (
                sum(tracer.self_s.get(s, 0.0) for s in workload.stressed) / traced
            ),
        }
        rows.append(
            {
                name: derived[name] if src is None else getattr(tracer, src[0]).get(src[1], 0)
                for name, src in sources.items()
            }
        )
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    print(f"{len(tracer.span_start)} spans written to {spans_path}", file=sys.stderr)
    return {name: statistics.median(r[name] for r in rows) for name in sources}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochmatch" / "cli.py").is_file():
        print(f"error: no stochmatch source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stochmatch.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "stochmatch":
        print(f"error: stochmatch imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inp = work / "input.txt"
        inp.write_text(workload.make_graph(args.seed))
        loop = Loop(cli, workload, inp, work / "out", args.seed)
        if args.trace:
            spans = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
            metrics = traced_metrics(loop, workload, args.seconds, spans)
            units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        else:
            setups = [setup_once(inp)]

            def set_up_more(share: float) -> None:
                while len(setups) < min(SETUP_REPS, 1 + share * SETUP_REPS):
                    setups.append(setup_once(inp))

            times = loop.run_for(args.seconds, set_up_more)
            print(f"invocation s: min {min(times):.4f}, quartiles "
                  f"{[round(q, 4) for q in statistics.quantiles(times * 2, n=4)]}; "
                  f"set-up s: quartiles {[round(q, 4) for q in statistics.quantiles(setups, n=4)]}",
                  file=sys.stderr)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "cmd_s": statistics.median(times),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_mb,
            }
            units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"{loop.attempted} invocations, {loop.failed} failed "
        f"(fail_frac {loop.failed / loop.attempted:.3f}), digest {loop.digest}",
        file=sys.stderr,
    )
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
