"""Attention-based NSW pattern classifier: model, loss, training, IO.

The package re-exports what the CLI, the pipeline and the benchmark harness
call, plus its two error classes; everything else is imported from its
submodule. ``train`` here is the function, which shadows the submodule
``mtnorm.neural.train`` (reach the module through ``importlib``).
"""

from .checkpoint import CheckpointError, load_params, save_params
from .model import ClassifierConfig, EncoderParams, FrozenEncoder, predict_probs
from .train import TrainingDiverged, make_training_batch, predict_batch, train
from .vocab import Vocabulary

__all__ = [
    "CheckpointError",
    "ClassifierConfig",
    "EncoderParams",
    "FrozenEncoder",
    "TrainingDiverged",
    "Vocabulary",
    "load_params",
    "make_training_batch",
    "predict_batch",
    "predict_probs",
    "save_params",
    "train",
]
