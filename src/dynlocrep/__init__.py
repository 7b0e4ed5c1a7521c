"""Contrastive regression with dynamic localized repulsion.

A library and CLI for kernel-weighted contrastive losses over continuous
labels, with analytic gradients, a small trainable encoder, and a
multi-seed benchmark harness for tabular regression data.
"""

from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, split, write_csv
from .encoder import (
    Adam,
    Encoder,
    EncoderConfig,
    OptimConfig,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    ConfigError,
    DynLocRepError,
    InputError,
    NumericalError,
    ParseError,
)
from .evaluation import (
    ABLATION_REFERENCE_MAE,
    RidgeConfig,
    RidgeReadout,
    ablate_norms,
    benchmark,
    mae,
    ridge_fit,
)
from .geometry import (
    DistanceNorm,
    EmbeddingBatch,
    distance_matrix,
    l2_normalize,
    select_neighbors,
    similarity_matrix,
)
from .kernels import KernelSpec, positiveness_matrix
from .losses import (
    LossConfig,
    LossOutput,
    LossVariant,
    NeighborSpace,
    Reduction,
    baseline_forward,
    dynlocrep_forward,
    loss_with_gradient,
)
from .schedule import ScheduleConfig, neighbors_at_epoch
from .training import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "ABLATION_REFERENCE_MAE",
    "Adam",
    "ConfigError",
    "Dataset",
    "DistanceNorm",
    "DynLocRepError",
    "EmbeddingBatch",
    "Encoder",
    "EncoderConfig",
    "InputError",
    "KernelSpec",
    "LossConfig",
    "LossOutput",
    "LossVariant",
    "NeighborSpace",
    "NumericalError",
    "OptimConfig",
    "ParseError",
    "Reduction",
    "RidgeConfig",
    "RidgeReadout",
    "ScheduleConfig",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "ablate_norms",
    "baseline_forward",
    "benchmark",
    "distance_matrix",
    "dynlocrep_forward",
    "generate_synthetic",
    "init_encoder",
    "l2_normalize",
    "load_checkpoint",
    "load_csv",
    "loss_with_gradient",
    "mae",
    "neighbors_at_epoch",
    "positiveness_matrix",
    "ridge_fit",
    "save_checkpoint",
    "select_neighbors",
    "similarity_matrix",
    "split",
    "train",
    "write_csv",
]
