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

from .graph import (
    Graph,
    GraphFormatError,
    ResourceGuard,
    SeedContext,
    enumerate_realizations,
    gnp_graph,
    load_graph,
    parse_graph_text,
    sample_realization,
    subgraph,
    weighted_realizations,
    write_graph_text,
)
from .matching import (
    BLOSSOM_SET_CAP,
    CertificateReport,
    FractionalMatching,
    check_blossom,
    fractional_size,
    matched_vertices,
    matching_number,
    maximum_matching,
)
from .sparsifier import (
    QProfile,
    SparsifierParams,
    build_H,
    derive_R,
    estimate_q,
    max_degree_of,
    select_thresholds,
)
from .lca import (
    CorrelatedBoundReport,
    LcaOracle,
    NaturalityViolation,
    ProbeTrace,
    QueryLedger,
    Site,
    check_correlated_bound,
    gather_ledger,
    ledger_to_csv,
    run_lca,
    site_tape,
)
from .mis import (
    TmisOutcome,
    TruncatedGreedyMis,
)
from .hyperwalk import (
    BMatchingLca,
    BParams,
    WalkIndex,
    b_generic,
    build_unsaturation_table,
)
from .analysis import (
    ClaimCheck,
    ClaimReport,
    CrucialSetup,
    DeltaTable,
    MissingTableEntry,
    PipelineSetup,
    RatioEstimate,
    build_delta_table,
    build_f,
    build_match_prob_table,
    build_x,
    compute_MC,
    ratio_sweep,
    match_targets_from_q,
    prepare_crucial,
    prepare_pipeline,
    round_x,
    run_pipeline,
    scale_values,
    verify_claims,
)

__version__ = "0.1.0"
