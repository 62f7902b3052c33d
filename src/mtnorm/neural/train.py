"""Training loop: Adam on the focal objective, deterministic under seed."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..corpus import LabeledSentence
from ..labels import DEFAULT_REGISTRY
from .model import (
    ClassifierConfig,
    EncoderParams,
    FrozenEncoder,
    TrainingBatch,
    batch_loss_and_grads,
    init_params,
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


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep the memory a training step frees for the next step.

    A step allocates and frees some 12 MB of float64 temporaries. Under
    glibc's starting thresholds, its larger arrays are mmapped and the
    freed heap top is trimmed, so every step took fresh zero-filled pages
    from the kernel again: tens of thousands of page faults per epoch and
    up to 13% slower training on a 2-vCPU host. Once per process; on other
    allocators an ordinary allocation and free.
    """
    # glibc's dynamic mmap threshold (M_MMAP_THRESHOLD in its manual):
    # freeing an mmapped block raises the mmap threshold to its size and
    # the trim threshold to twice it, so a block just under the 32 MB cap
    # sets them to about 32 and 64 MB.
    np.empty((32 << 20) - (1 << 16), np.uint8)


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
            # in place, with the same roundings as beta * m + (1 - beta) * g
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correct1
            v_hat = v / correct2
            tensor -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_training_batch(
    corpus: list[LabeledSentence],
    vocab: Vocabulary,
    config: ClassifierConfig,
) -> TrainingBatch:
    """One sample per labeled span: window ids, NSW mask, legality mask, target.

    The one place targets are checked, once per span as its row is built:
    the label must be set, lie in ``[0, label_count)`` and be admitted by
    the span's legality mask. A ``ValueError`` names the span and its
    sentence.
    """
    windows = [vocab.windows("", (), config.window)]  # (0, W) arrays if no span follows
    legal, targets = [], []
    for sentence in corpus:
        for span in sentence.spans:
            surface = sentence.surface(span)
            if span.label is None:
                raise ValueError(f"unlabeled span {surface!r} in {sentence.text!r}")
            if not 0 <= span.label < config.label_count:
                raise ValueError(
                    f"span label {span.label} outside [0, {config.label_count}) for the "
                    f"configured label_count: {surface!r} in {sentence.text!r}"
                )
            if config.use_mask:
                mask = DEFAULT_REGISTRY.legal_labels(surface)
                if not mask[span.label]:
                    raise ValueError(
                        f"span label {DEFAULT_REGISTRY.by_id(span.label).name} is masked "
                        f"illegal for {surface!r} in {sentence.text!r}; training data and "
                        "format registry disagree"
                    )
            else:
                mask = [True] * config.label_count
            legal.append(mask)
            targets.append(span.label)
        windows.append(vocab.windows(sentence.text, sentence.spans, config.window))
    ids, nsw = (np.concatenate(part) for part in zip(*windows))
    return TrainingBatch(
        ids=ids,
        nsw_masks=nsw,
        legal_masks=np.asarray(legal, dtype=bool),
        targets=np.asarray(targets, dtype=np.int64),
    )


def train(corpus: list[LabeledSentence], config: ClassifierConfig, log=None) -> TrainResult:
    """Train from scratch on the labeled corpus; fully seeded, no hidden state."""
    if config.use_mask and config.label_count != len(DEFAULT_REGISTRY):
        raise ValueError(
            f"label_count {config.label_count} does not match the label table's "
            f"{len(DEFAULT_REGISTRY)} labels, which the legality mask is drawn from"
        )
    if not corpus:
        raise ValueError("training corpus is empty")
    if not any(sentence.spans for sentence in corpus):
        raise ValueError("training corpus has no NSW spans to learn from")
    vocab = build_vocab(corpus)
    _keep_freed_heap()
    rng = np.random.default_rng(config.seed)
    params = init_params(config, vocab.size, rng)

    data = make_training_batch(corpus, vocab, config)
    optimizer = AdamState(params, config.learning_rate)
    history = []
    n = len(data)
    for epoch in range(config.epochs):
        began = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        norms = []
        correct = 0
        for start in range(0, n, config.batch_size):
            minibatch = data.take(order[start : start + config.batch_size])
            loss, grads, probs = batch_loss_and_grads(params, minibatch, config)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, sample offset {start}"
                )
            norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
            optimizer.step(params, grads)
            epoch_loss += loss * len(minibatch)
            correct += int((probs.argmax(axis=1) == minibatch.targets).sum())
        entry = {
            "epoch": epoch, "loss": epoch_loss / n, "accuracy": correct / n,
            "seconds": time.perf_counter() - began, "grad_norm": sum(norms) / len(norms),
        }
        history.append(entry)
        if log is not None:
            log(
                f"epoch {epoch:3d}  loss {entry['loss']:.6f}  accuracy {entry['accuracy']:.4f}"
                f"  grad_norm {entry['grad_norm']:.4g}  {entry['seconds']:.2f}s"
            )
    return TrainResult(params=params, vocab=vocab, history=history)


def predict_batch(
    params: EncoderParams, data: TrainingBatch, config: ClassifierConfig
) -> np.ndarray:
    """Argmax labels for a prepared batch, from the frozen (float32) encoder."""
    encoder = FrozenEncoder.freeze(params)
    probs = predict_probs(encoder, data.ids, data.nsw_masks, data.legal_masks)
    return probs.argmax(axis=1)
