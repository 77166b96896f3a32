"""Spectral supersaturation laboratory.

Exact split-graph spectral radii, Perron-vector pipelines (heavy-edge
pruning, level-set partitions, row-cover analysis), p->q operator-norm
certificates, tensor-power regular subgraphs, and exact subgraph counting.
"""

from .graphs import (
    Graph,
    SplitSpec,
    SslabError,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    join,
    make_family,
    path,
    read_edge_list,
    sample_gnm,
    split_graph,
    star,
    subdivide,
    tensor_power,
    union,
    write_edge_list,
)
from .homcounts import (
    CountResult,
    aut_order,
    closed_walk_count,
    count_c2t,
    count_ktt,
    hom_complete_bipartite,
    hom_contract,
    hom_count,
    inj_count,
)
from .regularize import (
    EdgeDistribution,
    RegularBundle,
    build_regular,
    edge_distribution,
    entropy_gap,
    materialize_fk,
    round_counts,
)
from .sidorenko import (
    CertificateExponents,
    IneqReport,
    SharpConstants,
    c2t_copy_lower,
    check_suite,
    constants,
    exponents,
    gnm_expected_ktt,
    ktt_copy_lower,
    p3_counterexample,
)
from .spectra import (
    CutDiagnostics,
    OpNormEstimate,
    PerronData,
    cut_diagnostics,
    opnorm,
    perron,
    split_increment_lb,
    split_lambda,
    top_singular,
)
from .supersat import (
    AcdPartition,
    PipelineReport,
    PruneTrace,
    RowCoverOutcome,
    acd_partition,
    aligned_rows,
    delocalization_check,
    heavy_prune,
    localization_g,
    row_cover_analyze,
    supersat_count,
    verify_T,
)

__version__ = "0.1.0"
