"""Run the benchmark over several seeds and record the figures with the
environment they were measured in.

    python3 bench/record.py --out bench/baseline.json

Each workload runs once per seed in SEEDS untraced, then once traced on
the first seed, each run lasting BENCHMARK.json's run_seconds.  For every
end-to-end metric the record holds the median of the per-run values and
the spread, (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
SEEDS = list(range(1, 11))

from workloads import WORKLOADS  # noqa: E402  (HERE is on sys.path as the script dir)


def src_digest() -> str:
    """sha256 over the sorted relative paths and bytes of src/'s files."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout
    return done.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"environment": environment(), "seconds": seconds, "seeds": SEEDS,
              "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        entry = {"summary": summarize(runs), "runs": runs,
                 "traced": run_once(name, SEEDS[0], seconds, 1)}
        record["workloads"][name] = entry
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, entry in record["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{name:16s} {metric:12s} median {s['median']:.4f} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
