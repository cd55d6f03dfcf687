"""Stochastic matching sparsification with local-computation machinery.

The package splits into: stochastic graphs and seeded randomness
(:mod:`~stochmatch.graph`), deterministic maximum matching and
fractional-matching certificates (:mod:`~stochmatch.matching`), the
multi-realization sparsifier H and q-value estimation
(:mod:`~stochmatch.sparsifier`), the instrumented local-computation
runtime (:mod:`~stochmatch.lca`), truncated greedy MIS
(:mod:`~stochmatch.mis`), augmenting hyperwalks and the recursive
matching with its query twin (:mod:`~stochmatch.hyperwalk`), and the
analysis pipeline with claim verification (:mod:`~stochmatch.analysis`).
"""

# bench/test_bench.py checks that the bench tracer rebinds this name in the
# package namespace too
from .graph import sample_realization

__version__ = "0.1.0"
