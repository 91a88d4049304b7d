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
    HyperParams,
    MvHyperParams,
    NumericalError,
    UvHyperParams,
    validate_hyperparams,
)
from .icl import (
    IclValue,
    allocation_log_prior,
    apply_move,
    icl_exact,
    make_state,
)
from .optimizer import (
    SearchConfig,
    Solution,
    greedy_combined_icl,
    greedy_icl,
    multi_start,
    relabel_compact,
)
from .generator import GeneratedSample, sample_dataset
from .io import (
    neighbor_order,
    read_csv,
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
    "HyperParams",
    "IclValue",
    "MvHyperParams",
    "NumericalError",
    "SearchConfig",
    "Solution",
    "UvHyperParams",
    "allocation_log_prior",
    "apply_move",
    "greedy_combined_icl",
    "greedy_icl",
    "icl_exact",
    "make_state",
    "multi_start",
    "neighbor_order",
    "read_csv",
    "relabel_compact",
    "sample_dataset",
    "standardize",
    "validate_hyperparams",
    "write_csv",
    "write_result",
]
