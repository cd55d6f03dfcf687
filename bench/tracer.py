"""Out-of-program tracing: wrappers around the public functions of each
``stochmatch`` module, recording one span per call in memory.

A span is (name, start, end, parent).  Self time is a span's duration
minus the duration of its traced child spans, accumulated when the span
closes.  Hot PRF entry points are counted, not spanned.

Modules bind names with ``from .graph import ...``, so a wrapper replaces
every module attribute that refers to the original object; ``Installed``
fails if any reference is left behind, since those calls would silently
go untimed.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


class Tracer:
    """Spans and counters for one traced run; ``reset`` starts an invocation."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, name, start, child time]
        self.reset()

    def reset(self) -> None:
        """Zero the per-invocation aggregates; recorded spans are kept."""
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([index, name, start, 0.0])

    def close(self) -> None:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    def write(self, path) -> None:
        """All spans as gzipped TSV: name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, args, out)
        return out

    return wrapper


def _span_steps(tracer: Tracer, name: str, counter: str, fn):
    """Generator functions: one span per step, since the consumer's work
    runs between steps and must not count towards this layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close()
            tracer.count(counter)
            yield item

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


# post-call hooks: (tracer, positional args, return value)


def _after_sample(t, args, real) -> None:
    t.count("graph.sample_realization.edges", len(args[0].edges))


def _after_blossom(t, args, report) -> None:
    t.count("matching.check_blossom.sets_checked", report.sets_checked)


def _after_run_lca(t, args, result) -> None:
    g, trace = args[1], result[1]
    sites = g.n if trace.root.kind == "vertex" else g.m
    t.count("lca.probes", len(trace.probed))
    t.count("lca.qplus_over_m.sum", len(trace.out_queries) / max(1, sites))
    t.count("hyperwalk.query_nodes", trace.meta.get("nodes", 0))


def _after_tmis(t, args, outcome) -> None:
    t.count("mis.expansions", outcome.calls)
    t.count("mis.truncated", int(outcome.truncated))


# (module, attribute path, span name, post-call hook)
SPANNED = (
    ("graph", "load_graph", "graph.load_graph", None),
    ("graph", "sample_realization", "graph.sample_realization", _after_sample),
    ("matching", "maximum_matching", "matching.maximum_matching", None),
    ("matching", "matching_number", "matching.matching_number", None),
    ("matching", "check_blossom", "matching.check_blossom", _after_blossom),
    ("sparsifier", "estimate_q", "sparsifier.estimate_q", None),
    ("sparsifier", "build_H", "sparsifier.build_H", None),
    ("analysis", "ratio_sweep", "analysis.ratio_sweep", None),
    ("analysis", "prepare_pipeline", "analysis.prepare_pipeline", None),
    ("analysis", "prepare_crucial", "analysis.prepare_crucial", None),
    ("analysis", "build_f", "analysis.build_f", None),
    ("analysis", "build_match_prob_table", "analysis.build_match_prob_table", None),
    ("analysis", "build_delta_table", "analysis.build_delta_table", None),
    ("analysis", "run_pipeline", "analysis.run_pipeline", None),
    ("analysis", "verify_claims", "analysis.verify_claims", None),
    ("hyperwalk", "b_generic", "hyperwalk.b_generic", None),
    ("hyperwalk", "build_unsaturation_table", "hyperwalk.build_unsaturation_table", None),
    ("hyperwalk", "BMatchingLca.run", "hyperwalk.BMatchingLca.run", None),
    ("lca", "run_lca", "lca.run_lca", _after_run_lca),
    ("lca", "QueryLedger.add_sweep", "lca.QueryLedger.add_sweep", None),
    ("mis", "TruncatedGreedyMis.run", "mis.TruncatedGreedyMis.run", _after_tmis),
    ("cli", "main", "cli.main", None),
)
STEPPED = (
    ("graph", "enumerate_realizations", "graph.enumerate_realizations",
     "graph.enumerate_realizations.masks"),
)
COUNTED = (
    ("graph", "SeedContext.__post_init__", "graph.prf_derivations"),
    ("graph", "SeedContext.digest", "graph.prf_digests"),
)
SPAN_NAMES = frozenset(n for _, _, n, _ in SPANNED + STEPPED)
# every key passed to Tracer.count: the hooks' and the step and call counters
COUNTERS = frozenset(
    (
        "graph.sample_realization.edges",
        "matching.check_blossom.sets_checked",
        "lca.probes",
        "lca.qplus_over_m.sum",
        "hyperwalk.query_nodes",
        "mis.expansions",
        "mis.truncated",
    )
    + tuple(c for *_, c in STEPPED)
    + tuple(n for *_, n in COUNTED)
)


def _modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "stochmatch" or name.startswith("stochmatch."))
    ]


class Installed:
    """Wrappers bound into the loaded ``stochmatch`` modules; ``remove``
    puts every original back."""

    def __init__(self, tracer: Tracer) -> None:
        self._undo: list = []
        makers = (
            [(m, a, functools.partial(_span, tracer, n, after=h)) for m, a, n, h in SPANNED]
            + [(m, a, functools.partial(_span_steps, tracer, n, c)) for m, a, n, c in STEPPED]
            + [(m, a, functools.partial(_counted, tracer, n)) for m, a, n in COUNTED]
        )
        originals = set()
        for module, attr, make in makers:
            original = _resolve(module, attr)
            originals.add(id(original))
            wrapper = make(original)
            if "." in attr:  # a method: its one binding is the class attribute
                owner, name = attr.rsplit(".", 1)
                self._set(_resolve(module, owner), name, wrapper)
                continue
            for mod in _modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        left = [
            f"{mod.__name__}.{name}"
            for mod in _modules()
            for name, value in vars(mod).items()
            if id(value) in originals
        ]
        if left:
            self.remove()
            raise RuntimeError(f"untraced bindings left: {left}")

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _resolve(module: str, attr: str):
    obj = sys.modules[f"stochmatch.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
