"""ADMM-based SVM training with Nystrom low-rank kernel approximation."""

from .admm import (
    AdmmConfig,
    AdmmState,
    ConvergenceTrace,
    LinearModel,
    TraceRow,
    admm_step,
    build_system_matrix,
    precompute_z,
    primal_objective,
    solve_linear,
)
from .data_io import (
    Dataset,
    ScalingRecord,
    SplitSpec,
    load_delimited,
    load_sparse_text,
    scale_features,
    split,
)
from .eigen import symmetric_evd, truncate_spectrum
from .kernel import KernelParams, build_kernel_matrix, kernel_columns, rbf
from .nystrom import (
    NystromConfig,
    NystromFactor,
    approximation_mse,
    nystrom_factor,
    sample_subset,
)
from .smo import SmoConfig, SmoResult, smo_train
from .svm import (
    NonlinearModel,
    TrainReport,
    decision_values,
    load_model,
    save_model,
    train_nonlinear,
)
from . import errors, synthetic

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "ConvergenceTrace",
    "Dataset",
    "KernelParams",
    "LinearModel",
    "NonlinearModel",
    "NystromConfig",
    "NystromFactor",
    "ScalingRecord",
    "SmoConfig",
    "SmoResult",
    "SplitSpec",
    "TraceRow",
    "TrainReport",
    "admm_step",
    "approximation_mse",
    "build_kernel_matrix",
    "build_system_matrix",
    "decision_values",
    "errors",
    "kernel_columns",
    "load_delimited",
    "load_model",
    "load_sparse_text",
    "nystrom_factor",
    "precompute_z",
    "primal_objective",
    "rbf",
    "sample_subset",
    "save_model",
    "scale_features",
    "smo_train",
    "solve_linear",
    "split",
    "symmetric_evd",
    "synthetic",
    "train_nonlinear",
    "truncate_spectrum",
]
