"""Few-shot action recognition over pre-extracted patch features.

Spatio-temporal feature enrichment (patch self-attention plus frame mixing),
tuple-based temporal-relational matching, and an auxiliary query-class
similarity head, built on a small tape-based reverse-mode engine with
finite-difference gradient verification.
"""

__version__ = "0.1.0"

from .diffcore import (NumericalError, Param, ShapeError, Tape, Tensor,
                       finite_diff_gradients, seeded_init, zero_grads)
from .enrichment import FLEParams, PLEParams, fle_forward, ple_forward
from .episodes import (ClipRecord, Dataset, Episode, EpisodeSpec, FeatureClip,
                       SyntheticSpec, generate_synthetic, load_clip,
                       load_dataset, sample_episode, save_clip, save_dataset)
from .matching import (QCParams, TupleEmbedParams, enumerate_tuples,
                       qc_logits, qc_similarity, select_tuples, trm_distance,
                       trm_logits)
from .model import ModelConfig, ModelParams, build_params, forward_episode
from .training import (EvalReport, TrainConfig, evaluate, gradcheck_model,
                       load_checkpoint, mean_pool_baseline, save_checkpoint,
                       sgd_step, train)

__all__ = [
    "__version__",
    "NumericalError", "Param", "ShapeError", "Tape", "Tensor",
    "finite_diff_gradients", "seeded_init", "zero_grads",
    "FLEParams", "PLEParams", "fle_forward", "ple_forward",
    "ClipRecord", "Dataset", "Episode", "EpisodeSpec", "FeatureClip",
    "SyntheticSpec", "generate_synthetic", "load_clip", "load_dataset",
    "sample_episode", "save_clip", "save_dataset",
    "QCParams", "TupleEmbedParams", "enumerate_tuples", "qc_logits",
    "qc_similarity", "select_tuples", "trm_distance", "trm_logits",
    "ModelConfig", "ModelParams", "build_params", "forward_episode",
    "EvalReport", "TrainConfig", "evaluate", "gradcheck_model", "load_checkpoint",
    "mean_pool_baseline", "save_checkpoint", "sgd_step", "train",
]
