"""Exact integrated completed likelihood clustering for Gaussian mixtures.

The mixture weights, centres and precisions are integrated out under
conjugate priors, leaving a closed-form objective over allocation vectors.
Greedy and block-greedy search maximise it, returning the partition and the
number of clusters in one pass.
"""

from .model import (
    Allocation,
    ClusterState,
    DataSet,
    GroupStats,
    HyperParams,
    MvHyperParams,
    NumericalError,
    UvHyperParams,
    stats_downdate,
    validate_hyperparams,
)
from .icl import (
    IclValue,
    allocation_log_prior,
    apply_move,
    group_log_evidence,
    group_log_evidence_1d,
    icl_exact,
    make_state,
)
from .optimizer import (
    SearchConfig,
    Solution,
    greedy_combined_icl,
    greedy_icl,
    multi_start,
    neighbor_block,
    relabel_compact,
)
from .generator import GeneratedSample, sample_dataset, sample_dataset_1d
from .io import (
    distance_matrix,
    neighbor_order,
    read_csv,
    read_result,
    standardize,
    write_csv,
    write_result,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ClusterState",
    "DataSet",
    "GeneratedSample",
    "GroupStats",
    "HyperParams",
    "IclValue",
    "MvHyperParams",
    "NumericalError",
    "SearchConfig",
    "Solution",
    "UvHyperParams",
    "allocation_log_prior",
    "apply_move",
    "distance_matrix",
    "greedy_combined_icl",
    "greedy_icl",
    "group_log_evidence",
    "group_log_evidence_1d",
    "icl_exact",
    "make_state",
    "multi_start",
    "neighbor_block",
    "neighbor_order",
    "read_csv",
    "read_result",
    "relabel_compact",
    "sample_dataset",
    "sample_dataset_1d",
    "standardize",
    "stats_downdate",
    "validate_hyperparams",
    "write_csv",
    "write_result",
]
