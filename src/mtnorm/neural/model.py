"""Self-attention pattern classifier over fixed character windows.

One standard encoder block: embeddings plus a learned positional table,
8-head scaled dot-product self-attention with padding keys suppressed,
residual + layer norm, position-wise feed-forward, residual + layer norm.
The NSW positions are mean-pooled and projected to label logits; the
softmax is masked to the format-legal labels.

Only the NSW query rows are computed. With a single block, a position's
output depends on the rest of the window only through the keys and
values, and only NSW positions reach the pooled logits, so queries,
attention, feed-forward and both layer norms run on those rows while
keys and values still cover every position. This is the full block's
result, not an approximation; the tests compare it with a full-window
reference.

Everything is float64 numpy with a hand-written backward pass; the
training gradients are checked against central finite differences in the
test suite, so forward and backward must stay in lockstep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ..corpus import ContextWindow
from .loss import focal_loss_grad, focal_loss_vec
from .vocab import Vocabulary

ATTN_NEG = -1e9
LN_EPS = 1e-5


@dataclass
class ClassifierConfig:
    window: int = 30
    heads: int = 8
    model_dim: int = 64
    ff_dim: int = 128
    label_count: int = 11
    alpha: float = 0.5
    gamma: float = 4.0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    use_mask: bool = True
    pad_id: int = 1
    pretrained_vectors: str | None = None

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.window < 1 or self.label_count < 2:
            raise ValueError("window and label_count must be positive")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_file(cls, path: str) -> "ClassifierConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))


@dataclass
class EncoderParams:
    """All learnable tensors; shapes are fixed by config and vocabulary."""

    embedding: np.ndarray       # (V, D)
    positional: np.ndarray      # (W, D)
    attn_q: np.ndarray          # (H, D, D/H)
    attn_k: np.ndarray          # (H, D, D/H)
    attn_v: np.ndarray          # (H, D, D/H)
    attn_out: np.ndarray        # (D, D)
    ff_w1: np.ndarray           # (D, F)
    ff_b1: np.ndarray           # (F,)
    ff_w2: np.ndarray           # (F, D)
    ff_b2: np.ndarray           # (D,)
    ln1_scale: np.ndarray       # (D,)
    ln1_shift: np.ndarray       # (D,)
    ln2_scale: np.ndarray       # (D,)
    ln2_shift: np.ndarray       # (D,)
    cls_w: np.ndarray           # (D, L)
    cls_b: np.ndarray           # (L,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def copy(self) -> "EncoderParams":
        return EncoderParams(**{k: v.copy() for k, v in self.tensors().items()})

    def check_finite(self) -> None:
        for name, tensor in self.tensors().items():
            if not np.all(np.isfinite(tensor)):
                raise ValueError(f"non-finite values in parameter {name}")

    def check_shapes(self, config: ClassifierConfig, vocab_size: int) -> None:
        expected = self.expected_shapes(config, vocab_size)
        for name, tensor in self.tensors().items():
            if tensor.shape != expected[name]:
                raise ValueError(
                    f"tensor {name} has shape {tensor.shape}, config requires {expected[name]}"
                )

    @staticmethod
    def expected_shapes(config: ClassifierConfig, vocab_size: int) -> dict[str, tuple]:
        """Every tensor's shape, in field order."""
        d, h, f, w, l = (
            config.model_dim,
            config.heads,
            config.ff_dim,
            config.window,
            config.label_count,
        )
        k = config.head_dim
        return {
            "embedding": (vocab_size, d),
            "positional": (w, d),
            "attn_q": (h, d, k),
            "attn_k": (h, d, k),
            "attn_v": (h, d, k),
            "attn_out": (d, d),
            "ff_w1": (d, f),
            "ff_b1": (f,),
            "ff_w2": (f, d),
            "ff_b2": (d,),
            "ln1_scale": (d,),
            "ln1_shift": (d,),
            "ln2_scale": (d,),
            "ln2_shift": (d,),
            "cls_w": (d, l),
            "cls_b": (l,),
        }


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ClassifierConfig, vocab_size: int, rng: np.random.Generator) -> EncoderParams:
    """Scaled-uniform initialization: Glorot for projections, U(-0.1, 0.1) tables.

    Layer-norm scales start at 1, biases and shifts at 0. Tensors are drawn
    in field order.
    """
    tensors = {}
    for name, shape in EncoderParams.expected_shapes(config, vocab_size).items():
        if name in ("embedding", "positional"):
            tensors[name] = rng.uniform(-0.1, 0.1, size=shape)
        elif name.endswith("_scale"):
            tensors[name] = np.ones(shape)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = _glorot(rng, shape)
    return EncoderParams(**tensors)


def load_char_vectors(path: str, vocab: Vocabulary, dim: int, embedding: np.ndarray) -> int:
    """Overwrite embedding rows from a text file of ``char v1 .. vD`` lines."""
    loaded = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.rstrip("\n").split()
            if not parts:
                continue
            char, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} values, got {len(values)}")
            if char in vocab.char_to_id:
                embedding[vocab.char_to_id[char]] = np.asarray([float(v) for v in values])
                loaded += 1
    return loaded


# --------------------------------------------------------------------------
# Forward
# --------------------------------------------------------------------------

def masked_softmax(logits: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Softmax restricted to legal entries; illegal ones are exactly zero."""
    logits = np.atleast_2d(logits)
    legal = np.atleast_2d(legal).astype(bool)
    if not legal.any(axis=-1).all():
        raise ValueError("masked softmax needs at least one legal label per row")
    z = np.where(legal, logits, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)  # the arithmetic of x.var()
    inv = 1.0 / np.sqrt(var + LN_EPS)
    norm = centered * inv
    return norm * scale + shift, norm, inv


def _layer_norm_backward(dout, norm, inv, scale):
    dnorm = dout * scale
    dscale = (dout * norm).sum(axis=tuple(range(dout.ndim - 1)))
    dshift = dout.sum(axis=tuple(range(dout.ndim - 1)))
    mean_dnorm = dnorm.mean(axis=-1, keepdims=True)
    mean_dnorm_norm = (dnorm * norm).mean(axis=-1, keepdims=True)
    dx = inv * (dnorm - mean_dnorm - norm * mean_dnorm_norm)
    return dx, dscale, dshift


def forward_batch(
    params: EncoderParams,
    ids: np.ndarray,
    nsw_mask: np.ndarray,
    legal_mask: np.ndarray,
    pad_id: int,
) -> tuple[np.ndarray, dict]:
    """Run the encoder over a batch of windows; returns (probs, cache).

    Only the NSW query rows are computed. Each window's NSW positions are
    gathered into a ``(B, M)`` row index, M being the largest NSW count in
    the batch; a window with fewer NSW takes non-NSW positions as padded
    rows, which ``valid`` zeroes out of the pooling. Keys and values cover
    the whole window. The result equals the full-window block up to
    summation order: with one layer, a row's output depends on the other
    positions only through the keys and values, and only NSW rows reach
    the pooled logits.
    """
    ids = np.asarray(ids, dtype=np.int64)
    nsw = np.asarray(nsw_mask, dtype=bool)
    legal = np.asarray(legal_mask, dtype=bool)
    scale = 1.0 / np.sqrt(params.attn_q.shape[-1])

    counts = nsw.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("every window must mark at least one NSW position")
    m = int(counts.max())
    # A stable sort puts each window's NSW positions first, in order; the
    # rest of the first M are distinct non-NSW positions.
    rows = np.argsort(~nsw, axis=1, kind="stable")[:, :m]
    valid = np.arange(m)[None, :] < counts[:, None]
    batch_idx = np.arange(ids.shape[0])[:, None]

    x0 = params.embedding[ids] + params.positional[None, :, :]
    xq = x0[batch_idx, rows]
    pad_keys = ids == pad_id

    # (B,1,W,D) @ (1,H,D,K) -> (B,H,W,K); broadcast matmuls keep this on BLAS,
    # and the softmax runs in place to avoid large temporaries.
    x0h = x0[:, None, :, :]
    q = xq[:, None, :, :] @ params.attn_q[None]
    k = x0h @ params.attn_k[None]
    v = x0h @ params.attn_v[None]
    scores = q @ k.swapaxes(-1, -2)
    np.multiply(scores, scale, out=scores)
    scores += np.where(pad_keys, ATTN_NEG, 0.0)[:, None, None, :]
    np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
    np.exp(scores, out=scores)
    np.divide(scores, scores.sum(axis=-1, keepdims=True), out=scores)
    attn = scores

    ctx = attn @ v
    b, h, _, hd = ctx.shape
    concat = ctx.transpose(0, 2, 1, 3).reshape(b, m, h * hd)
    merged = concat @ params.attn_out
    res1 = xq + merged
    norm1, n1_hat, n1_inv = _layer_norm(res1, params.ln1_scale, params.ln1_shift)

    ff_pre = norm1 @ params.ff_w1 + params.ff_b1
    ff_act = np.maximum(ff_pre, 0.0)
    ff_out = ff_act @ params.ff_w2 + params.ff_b2
    res2 = norm1 + ff_out
    norm2, n2_hat, n2_inv = _layer_norm(res2, params.ln2_scale, params.ln2_shift)

    pooled = (norm2 * valid[:, :, None]).sum(axis=1) / counts[:, None]
    logits = pooled @ params.cls_w + params.cls_b
    probs = masked_softmax(logits, legal)

    cache = {
        "ids": ids, "rows": rows, "valid": valid, "counts": counts, "scale": scale,
        "x0": x0, "xq": xq, "q": q, "k": k, "v": v, "attn": attn, "concat": concat,
        "n1_hat": n1_hat, "n1_inv": n1_inv, "norm1": norm1,
        "ff_pre": ff_pre, "ff_act": ff_act,
        "n2_hat": n2_hat, "n2_inv": n2_inv, "norm2": norm2,
        "pooled": pooled, "probs": probs,
    }
    return probs, cache


def backward_batch(params: EncoderParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every tensor, given dloss/dlogits.

    Follows the forward's row restriction: query-side gradients exist on
    the NSW rows only (padded rows get exactly zero), key and value
    gradients cover every position, and the rows' input gradients are
    scattered back to their window positions.
    """
    ids, rows, valid, counts = cache["ids"], cache["rows"], cache["valid"], cache["counts"]
    scale = cache["scale"]

    grads = {name: np.zeros_like(t) for name, t in params.tensors().items()}

    grads["cls_w"] = cache["pooled"].T @ dlogits
    grads["cls_b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ params.cls_w.T

    dnorm2 = dpooled[:, None, :] * (valid / counts[:, None])[:, :, None]
    dres2, grads["ln2_scale"], grads["ln2_shift"] = _layer_norm_backward(
        dnorm2, cache["n2_hat"], cache["n2_inv"], params.ln2_scale
    )

    b, m, d = dres2.shape
    dff_out = dres2
    grads["ff_w2"] = cache["ff_act"].reshape(b * m, -1).T @ dff_out.reshape(b * m, d)
    grads["ff_b2"] = dff_out.sum(axis=(0, 1))
    dff_act = dff_out @ params.ff_w2.T
    dff_pre = dff_act * (cache["ff_pre"] > 0.0)
    grads["ff_w1"] = cache["norm1"].reshape(b * m, d).T @ dff_pre.reshape(b * m, -1)
    grads["ff_b1"] = dff_pre.sum(axis=(0, 1))
    dnorm1 = dres2 + dff_pre @ params.ff_w1.T

    dres1, grads["ln1_scale"], grads["ln1_shift"] = _layer_norm_backward(
        dnorm1, cache["n1_hat"], cache["n1_inv"], params.ln1_scale
    )

    dxq = dres1.copy()
    dmerged = dres1
    grads["attn_out"] = cache["concat"].reshape(b * m, d).T @ dmerged.reshape(b * m, d)
    dconcat = dmerged @ params.attn_out.T
    h = params.attn_q.shape[0]
    dctx = dconcat.reshape(b, m, h, d // h).transpose(0, 2, 1, 3)

    attn, v, q, k = cache["attn"], cache["v"], cache["q"], cache["k"]
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    # Softmax backward in place: dscores = attn * (dattn - rowdot), scale folded in.
    rowdot = np.einsum("bhij,bhij->bhi", dattn, attn)[:, :, :, None]
    np.subtract(dattn, rowdot, out=dattn)
    np.multiply(dattn, attn, out=dattn)
    np.multiply(dattn, scale, out=dattn)
    dscores = dattn
    dq = dscores @ k
    dk = dscores.swapaxes(-1, -2) @ q

    # Fold batch and rows (or positions) into one axis and the heads into
    # the other, so each projection gradient is one (B*N, D) x (D, H*K)
    # product; per-head products would build an (H, B*N, D) temporary.
    dx0 = np.zeros_like(cache["x0"])
    for name, dhead, weight, x, dx in (
        ("attn_q", dq, params.attn_q, cache["xq"], dxq),
        ("attn_k", dk, params.attn_k, cache["x0"], dx0),
        ("attn_v", dv, params.attn_v, cache["x0"], dx0),
    ):
        n = x.shape[1]
        dcat = dhead.transpose(0, 2, 1, 3).reshape(b * n, -1)
        grads[name] = np.ascontiguousarray(
            (x.reshape(b * n, d).T @ dcat).reshape(d, h, -1).transpose(1, 0, 2)
        )
        dx += (dcat @ weight.transpose(1, 0, 2).reshape(d, -1).T).reshape(b, n, d)
    # Rows of one window are distinct positions, so plain fancy-index += is exact.
    dx0[np.arange(b)[:, None], rows] += dxq

    np.add.at(grads["embedding"], ids, dx0)
    grads["positional"] = dx0.sum(axis=0)
    return grads


# --------------------------------------------------------------------------
# Batch container and losses
# --------------------------------------------------------------------------

@dataclass
class TrainingBatch:
    """Windows, masks and targets; ``probs`` is filled by the forward pass."""

    ids: np.ndarray          # (B, W) int
    nsw_masks: np.ndarray    # (B, W) bool
    legal_masks: np.ndarray  # (B, L) bool
    targets: np.ndarray      # (B,) int
    probs: np.ndarray | None = None

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, index: np.ndarray) -> "TrainingBatch":
        return TrainingBatch(
            self.ids[index], self.nsw_masks[index], self.legal_masks[index], self.targets[index]
        )


def _check_targets_legal(batch: TrainingBatch) -> None:
    rows = np.arange(len(batch))
    if not batch.legal_masks[rows, batch.targets].all():
        bad = int(rows[~batch.legal_masks[rows, batch.targets]][0])
        raise ValueError(
            f"target label {int(batch.targets[bad])} of sample {bad} is masked illegal; "
            "training data and format registry disagree"
        )


def batch_loss(params: EncoderParams, batch: TrainingBatch, config: ClassifierConfig) -> float:
    """Mean focal loss on the target-label probabilities."""
    _check_targets_legal(batch)
    probs, _ = forward_batch(
        params, batch.ids, batch.nsw_masks, batch.legal_masks, config.pad_id
    )
    batch.probs = probs
    p_target = probs[np.arange(len(batch)), batch.targets]
    return float(focal_loss_vec(p_target, config.alpha, config.gamma).mean())


def batch_loss_and_grads(
    params: EncoderParams, batch: TrainingBatch, config: ClassifierConfig
) -> tuple[float, dict[str, np.ndarray]]:
    _check_targets_legal(batch)
    probs, cache = forward_batch(
        params, batch.ids, batch.nsw_masks, batch.legal_masks, config.pad_id
    )
    batch.probs = probs
    n = len(batch)
    rows = np.arange(n)
    p_target = probs[rows, batch.targets]
    loss = float(focal_loss_vec(p_target, config.alpha, config.gamma).mean())

    dp = focal_loss_grad(p_target, config.alpha, config.gamma) / n
    onehot = np.zeros_like(probs)
    onehot[rows, batch.targets] = 1.0
    dlogits = (dp * p_target)[:, None] * (onehot - probs)
    grads = backward_batch(params, cache, dlogits)
    return loss, grads


# --------------------------------------------------------------------------
# Inference
# --------------------------------------------------------------------------

PREDICT_CHUNK = 16


def predict_probs(
    params: EncoderParams,
    ids,
    nsw_mask,
    legal_mask,
    pad_id: int,
) -> np.ndarray:
    """Label probabilities for any number of windows, in input order.

    ``forward_batch`` pads every window to the batch's largest NSW count,
    and a large batch's arrays outgrow the CPU cache. So windows are
    stable-sorted by NSW count and run in chunks of at most
    ``PREDICT_CHUNK``: each chunk holds windows of near-equal NSW count,
    which leaves little padding. Each window's result does not depend on
    the others in its chunk. Up to one chunk runs directly, unsorted.
    """
    n = len(ids)
    if n == 0:
        return np.zeros((0, params.cls_b.shape[0]))
    if n <= PREDICT_CHUNK:
        return forward_batch(params, ids, nsw_mask, legal_mask, pad_id)[0]
    ids = np.asarray(ids, dtype=np.int64)
    nsw = np.asarray(nsw_mask, dtype=bool)
    legal = np.asarray(legal_mask, dtype=bool)
    order = np.argsort(nsw.sum(axis=1), kind="stable")
    probs = np.empty((n, params.cls_b.shape[0]))
    for start in range(0, n, PREDICT_CHUNK):
        chunk = order[start : start + PREDICT_CHUNK]
        probs[chunk] = forward_batch(params, ids[chunk], nsw[chunk], legal[chunk], pad_id)[0]
    return probs


def classify(
    window: ContextWindow,
    vocab: Vocabulary,
    params: EncoderParams,
    config: ClassifierConfig,
    legal_mask,
) -> tuple[np.ndarray, int]:
    """Label probabilities and argmax for one window under the legality mask."""
    legal = np.asarray(legal_mask, dtype=bool)
    if not legal.any():
        raise ValueError("no legal label for this NSW; route to the rule-based fallback")
    ids = np.asarray([vocab.window_ids(window)])
    nsw = np.asarray([window.nsw_mask])
    probs, _ = forward_batch(params, ids, nsw, legal[None, :], config.pad_id)
    probs = probs[0]
    return probs, int(np.argmax(probs))
