"""Attention-based NSW pattern classifier: model, loss, training, IO."""

from .checkpoint import CheckpointError, load_params, save_params
from .loss import focal_loss_vec
from .model import (
    ClassifierConfig,
    EncoderParams,
    FrozenEncoder,
    TrainingBatch,
    batch_loss_and_grads,
    forward_batch,
    init_params,
    masked_softmax,
    predict_probs,
)
from .train import (
    AdamState,
    TrainingDiverged,
    TrainResult,
    make_training_batch,
    predict_batch,
    train,
)
from .vocab import Vocabulary, build_vocab

__all__ = [
    "AdamState",
    "CheckpointError",
    "ClassifierConfig",
    "EncoderParams",
    "FrozenEncoder",
    "TrainingBatch",
    "TrainingDiverged",
    "TrainResult",
    "Vocabulary",
    "batch_loss_and_grads",
    "build_vocab",
    "focal_loss_vec",
    "forward_batch",
    "init_params",
    "load_params",
    "make_training_batch",
    "masked_softmax",
    "predict_batch",
    "predict_probs",
    "save_params",
    "train",
]
