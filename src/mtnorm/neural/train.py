"""Training loop: Adam on the focal objective, deterministic under seed."""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from ..corpus import LabeledSentence, extract_window
from ..labels import DEFAULT_REGISTRY, LabelRegistry
from .model import (
    ClassifierConfig,
    EncoderParams,
    TrainingBatch,
    batch_loss_and_grads,
    init_params,
    load_char_vectors,
    predict_probs,
)
from .vocab import Vocabulary, build_vocab


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    params: EncoderParams
    vocab: Vocabulary
    history: list[dict] = field(default_factory=list)


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep the memory a training step frees for the next step.

    A step allocates and frees some 12 MB of float64 temporaries. Under
    glibc's adaptive thresholds, arrays over about 1.5 MB are mmapped and
    the rest of the freed heap top is trimmed, so every step took fresh
    zero-filled pages from the kernel again: about 2900 page faults and a
    quarter of the step's time, a cost that grows with the host's load.
    Fixed thresholds (32 MB, the adaptive limit, and twice that for the
    trim) keep those pages mapped. Process-wide and once; a no-op on
    other C libraries.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        libc = ctypes.CDLL(None)
    except (ValueError, OSError):
        return
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class AdamState:
    """Adam with bias correction: beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: EncoderParams, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors().items()}

    def step(self, params: EncoderParams, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        correct1 = 1.0 - self.beta1**self.step_count
        correct2 = 1.0 - self.beta2**self.step_count
        for name, tensor in params.tensors().items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            tensor -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_training_batch(
    corpus: list[LabeledSentence],
    vocab: Vocabulary,
    config: ClassifierConfig,
    formats: LabelRegistry = DEFAULT_REGISTRY,
) -> TrainingBatch:
    """One sample per labeled span: window ids, NSW mask, legality mask, target."""
    ids, nsw, legal, targets = [], [], [], []
    for sentence in corpus:
        for span in sentence.spans:
            if span.label is None:
                raise ValueError(f"unlabeled span in training sentence: {sentence.text!r}")
            window = extract_window(sentence, span, config.window)
            ids.append(vocab.window_ids(window))
            nsw.append(window.nsw_mask)
            if config.use_mask:
                legal.append(formats.legal_labels(sentence.surface(span)))
            else:
                legal.append([True] * config.label_count)
            targets.append(span.label)
    return TrainingBatch(
        ids=np.asarray(ids, dtype=np.int64),
        nsw_masks=np.asarray(nsw, dtype=bool),
        legal_masks=np.asarray(legal, dtype=bool),
        targets=np.asarray(targets, dtype=np.int64),
    )


def train(
    corpus: list[LabeledSentence],
    config: ClassifierConfig,
    vocab: Vocabulary | None = None,
    formats: LabelRegistry = DEFAULT_REGISTRY,
    log=None,
) -> TrainResult:
    """Train from scratch on the labeled corpus; fully seeded, no hidden state."""
    if not corpus:
        raise ValueError("training corpus is empty")
    for sentence in corpus:
        for span in sentence.spans:
            if span.label is not None and span.label >= config.label_count:
                raise ValueError(
                    f"span label {span.label} outside configured label_count {config.label_count}"
                )
    if vocab is None:
        vocab = build_vocab(corpus, pad_id=config.pad_id)
    elif vocab.pad_id != config.pad_id:
        raise ValueError("vocabulary pad_id disagrees with config.pad_id")

    _keep_freed_heap()
    rng = np.random.default_rng(config.seed)
    params = init_params(config, vocab.size, rng)
    if config.pretrained_vectors:
        load_char_vectors(config.pretrained_vectors, vocab, config.model_dim, params.embedding)

    data = make_training_batch(corpus, vocab, config, formats)
    optimizer = AdamState(params, config.learning_rate)
    history = []
    n = len(data)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            minibatch = data.take(order[start : start + config.batch_size])
            loss, grads = batch_loss_and_grads(params, minibatch, config)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, sample offset {start}"
                )
            optimizer.step(params, grads)
            epoch_loss += loss * len(minibatch)
            correct += int((minibatch.probs.argmax(axis=1) == minibatch.targets).sum())
        entry = {"epoch": epoch, "loss": epoch_loss / n, "accuracy": correct / n}
        history.append(entry)
        if log is not None:
            log(f"epoch {epoch:3d}  loss {entry['loss']:.6f}  accuracy {entry['accuracy']:.4f}")
    return TrainResult(params=params, vocab=vocab, history=history)


def predict_batch(
    params: EncoderParams, data: TrainingBatch, config: ClassifierConfig
) -> np.ndarray:
    """Argmax labels for a prepared batch."""
    probs = predict_probs(params, data.ids, data.nsw_masks, data.legal_masks, config.pad_id)
    return probs.argmax(axis=1)
