"""Self-attention pattern classifier over fixed character windows.

One standard encoder block: embeddings plus a learned positional table,
8-head scaled dot-product self-attention with padding keys suppressed,
residual + layer norm, position-wise feed-forward, residual + layer norm.
The NSW positions are mean-pooled and projected to label logits; the
softmax is masked to the format-legal labels.

Only the NSW query rows are computed. With a single block, a position's
output depends on the rest of the window only through the keys and
values, and only NSW positions reach the pooled logits, so queries,
attention, feed-forward and both layer norms run on those rows. A call
of two windows or more keeps only each window's live keys, the run from
its first to its last non-padding character; a call of one window keeps
all of them. A padding key's attention weight is exactly zero, so this
is the full block's result, not an approximation; the tests compare it
with a full-window reference. A call pads every window's query rows to
its largest NSW count, so a training step sorts its windows by NSW count
and, where that saves padded rows, runs them in two calls.

The query, key and value projections are linear in the embeddings, so
``forward_batch`` never multiplies a window by them: it gathers rows of
per-character and per-position tables (``FrozenEncoder``). Training
freezes its float64 parameters into float64 tables once per step and
backpropagates to the parameters with a hand-written backward pass, whose
gradients the test suite checks against central finite differences, so
forward and backward must stay in lockstep. The backward pass takes the
key and value gradients back through the same tables: summed per distinct
character and per position, not multiplied out per key.
Inference runs the same ``forward_batch`` on tables frozen once, in
float32.

Per utterance the classifier runs one window at a time, and at that size
numpy's fixed cost per call outweighs the arithmetic. So the forward pass
keeps its call count low: reductions call the ufuncs directly, and
biases, residuals and the softmax update fresh arrays in place. The
attention scores are laid out key-major, so the softmax's maximum and sum
reduce over the outer axis, one key after another in position order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .loss import focal_loss_grad, focal_loss_vec
from .vocab import PAD_ID

ATTN_NEG = -1e9
LN_EPS = 1e-5

# The type each ClassifierConfig annotation admits; bool, an int subclass, only for bool.
_CONFIG_TYPES = {"int": int, "float": (int, float), "bool": bool}


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

    def __post_init__(self):
        for field in fields(self):
            value, kind = getattr(self, field.name), _CONFIG_TYPES[field.type]
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise TypeError(f"{field.name} must be {field.type}, not {value!r}")
        if self.heads < 1 or self.batch_size < 1:
            raise ValueError("heads and batch_size must be >= 1")
        if self.model_dim < 1 or self.ff_dim < 0:
            raise ValueError("model_dim must be >= 1 and ff_dim >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be >= 0 and finite")
        if self.window < 1 or self.label_count < 2:
            raise ValueError("window and label_count must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


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


def _heads_to_columns(weight: np.ndarray) -> np.ndarray:
    """(H, D, K) projection weights as one (D, H*K) matrix, head-major columns."""
    return weight.transpose(1, 0, 2).reshape(weight.shape[1], -1)


# Tensors after the attention scores that the frozen form keeps in its dtype.
_TAIL = (
    "attn_out", "ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln1_scale", "ln1_shift",
    "ln2_scale", "ln2_shift",
)


@dataclass
class FrozenEncoder:
    """``EncoderParams`` with the projections as tables, the form ``forward_batch`` runs.

    With the weights fixed, ``(E[ids] + P) @ W = (E @ W)[ids] + P @ W``, so
    the query, key and value projections become per-character (V, .) and
    per-position (W, .) tables whose rows ``forward_batch`` gathers and adds.
    The query side packs the embedding with the query projection, already
    scaled by 1/sqrt(K), because the NSW rows need both (the residual and
    the queries); the key side packs the key and value projections.
    ``key_bias`` is ``ATTN_NEG`` at ``PAD_ID`` and 0 elsewhere. The tail
    tensors are kept under their ``EncoderParams`` names in ``dtype``:
    float32 for inference, float64 for training, where they are the
    parameters themselves. The classifier head always stays float64: a
    one-window chunk's logits come from a BLAS gemv, a larger chunk's from
    gemm, and only in float64 do the two agree to 1e-12, so a window's
    probabilities do not depend on its chunk.
    """

    query_chars: np.ndarray      # (V, D + H*K): embedding | scaled query projection
    query_positions: np.ndarray  # (W, D + H*K)
    kv_chars: np.ndarray         # (V, 2*H*K): key | value projection
    kv_positions: np.ndarray     # (W, 2*H*K)
    key_bias: np.ndarray         # (V,)
    heads: int
    attn_out: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray
    ln1_scale: np.ndarray
    ln1_shift: np.ndarray
    ln2_scale: np.ndarray
    ln2_shift: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray

    @classmethod
    def freeze(cls, params: EncoderParams, dtype=np.float32) -> "FrozenEncoder":
        h, d, k = params.attn_q.shape
        query = _heads_to_columns(params.attn_q) / np.sqrt(k)
        kv = np.concatenate(
            [_heads_to_columns(params.attn_k), _heads_to_columns(params.attn_v)], axis=1
        )

        def tables(x):  # x: embedding or positional
            return np.concatenate([x, x @ query], axis=1), x @ kv

        query_chars, kv_chars = tables(params.embedding)
        query_positions, kv_positions = tables(params.positional)
        key_bias = np.zeros(params.embedding.shape[0])
        key_bias[PAD_ID] = ATTN_NEG

        def cast(a):
            return np.ascontiguousarray(a, dtype=dtype)

        return cls(
            cast(query_chars), cast(query_positions), cast(kv_chars), cast(kv_positions),
            cast(key_bias), h, **{name: cast(getattr(params, name)) for name in _TAIL},
            cls_w=params.cls_w.copy(), cls_b=params.cls_b.copy(),
        )

    def project(self, ids: np.ndarray, rows: np.ndarray, keys: np.ndarray | None = None):
        """NSW-row inputs and per-head Q, K, V from table rows; plus the key bias.

        ``keys`` holds each window's key positions; None keeps all W, in order.
        """
        b = ids.shape[0]
        m = rows.shape[1]
        d = self.attn_out.shape[0]
        k = d // self.heads
        windows = np.arange(b)[:, None]
        x = self.query_chars[ids[windows, rows]]
        x += self.query_positions[rows]
        if keys is None:
            key_ids, key_positions = ids, self.kv_positions
        else:
            key_ids, key_positions = ids[windows, keys], self.kv_positions[keys]
        kv = self.kv_chars[key_ids]
        kv += key_positions
        xq = x[..., :d]
        q = x[..., d:].reshape(b, m, self.heads, k).transpose(0, 2, 1, 3)
        kv = kv.reshape(b, key_ids.shape[1], 2, self.heads, k).transpose(2, 0, 3, 1, 4)
        return xq, q, kv[0], kv[1], self.key_bias[key_ids]


# --------------------------------------------------------------------------
# Forward
# --------------------------------------------------------------------------

def masked_softmax(logits: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Softmax restricted to legal entries; illegal ones are exactly zero."""
    logits = np.atleast_2d(logits)
    legal = np.atleast_2d(np.asarray(legal, dtype=bool))
    if not np.logical_or.reduce(legal, axis=-1).all():
        raise ValueError("masked softmax needs at least one legal label per row")
    z = np.where(legal, logits, -np.inf)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    # the arithmetic of mean() and var(), without their Python-level overhead
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= d
    var += LN_EPS
    inv = 1.0 / np.sqrt(var, out=var)
    norm = centered * inv
    out = norm * scale
    out += shift
    return out, norm, inv


def _layer_norm_backward(dout, norm, inv, scale):
    dnorm = dout * scale
    dscale = (dout * norm).sum(axis=tuple(range(dout.ndim - 1)))
    dshift = dout.sum(axis=tuple(range(dout.ndim - 1)))
    mean_dnorm = dnorm.mean(axis=-1, keepdims=True)
    mean_dnorm_norm = (dnorm * norm).mean(axis=-1, keepdims=True)
    dx = inv * (dnorm - mean_dnorm - norm * mean_dnorm_norm)
    return dx, dscale, dshift


def _live_keys(ids: np.ndarray) -> np.ndarray:
    """Each window's key positions, (B, span): its live run first, in order.

    A window's live run goes from its first non-``PAD_ID`` position to its
    last, and ``span`` is the longest run of the batch. A shorter run is
    followed by that window's own padding positions, wrapping round the
    window: they are distinct, and the key bias masks them. An all-padding
    window keeps all W.
    """
    w = ids.shape[1]
    live = ids != PAD_ID
    lo = np.argmax(live, axis=1)
    span = int(np.maximum.reduce(w - np.argmax(live[:, ::-1], axis=1) - lo))
    return (lo[:, None] + np.arange(span)) % w


def forward_batch(
    encoder: FrozenEncoder, ids: np.ndarray, nsw_mask: np.ndarray, legal_mask: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Run the encoder over a batch of windows; returns (probs, cache).

    Only the NSW query rows are computed. Each window's NSW positions are
    gathered into a ``(B, M)`` row index, M being the largest NSW count in
    the batch (at least 2); a window with fewer NSW takes non-NSW positions
    as padded rows, which ``valid`` zeroes out of the pooling. With two
    windows or more, keys and values cover each window's live run only
    (``_live_keys``; the cache's ``keys`` holds the positions); one window
    keeps all W, as there the index arithmetic costs more than the keys it
    drops. The result equals the full-window block up to summation order:
    with one layer, a row's output depends on the other positions only
    through the keys and values, only NSW rows reach the pooled logits,
    and a padding key's weight is exactly zero.

    The rows' inputs and Q, K, V are gathered from the encoder's tables:
    float32 ones frozen once for inference, or float64 ones that training
    freezes afresh for every step, whose cache feeds ``backward_batch``.

    The attention scores are key-major, ``(keys, B, H, M)``: one matmul
    writes them through a transposed view, and the softmax's maximum,
    exponential and sum run in place over axis 0, which adds the keys in
    position order. Masked keys add exact zeros, so a window's sum is the
    same whichever keys its call keeps, and its probabilities alone and in
    a chunk agree to the float64 head's last bit as long as BLAS, too,
    adds each product's keys in order. Sums and maxima are ufunc
    reductions and additions run in place on fresh products: at batch 1
    numpy's per-call overhead, not the arithmetic, sets the cost.
    """
    ids = np.asarray(ids, dtype=np.int64)
    nsw = np.asarray(nsw_mask, dtype=bool)
    legal = np.asarray(legal_mask, dtype=bool)

    counts = np.add.reduce(nsw, axis=1)
    if not counts.all():
        raise ValueError("every window must mark at least one NSW position")
    b, w = ids.shape
    # A one-row product runs as BLAS gemv, which rounds differently from
    # gemm in float32; with two rows or more every window's result is
    # independent of the chunk it runs in. Padded rows leave the pooling,
    # so in training they get exactly zero gradient.
    m = max(int(np.maximum.reduce(counts)), min(2, w))
    # A stable sort puts each window's NSW positions first, in order; the
    # rest of the first M are distinct non-NSW positions.
    rows = np.argsort(~nsw, axis=1, kind="stable")[:, :m]
    valid = np.arange(m) < counts[:, None]
    # One window keeps all W keys: there the index arithmetic would cost
    # more than the padding keys it drops.
    keys = _live_keys(ids) if b > 1 else None
    xq, q, k, v, key_bias = encoder.project(ids, rows, keys)

    # Key-major scores, (keys, B, H, M): the softmax reduces over the outer
    # axis, adding keys in position order, and runs in place.
    h = q.shape[1]
    scores = np.empty((k.shape[2], b, h, m), dtype=q.dtype)
    attn = scores.transpose(1, 2, 3, 0)
    np.matmul(q, k.swapaxes(-1, -2), out=attn)
    scores += key_bias.T[:, :, None, None]
    scores -= np.maximum.reduce(scores, axis=0)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=0)

    ctx = attn @ v
    concat = ctx.transpose(0, 2, 1, 3).reshape(b, m, -1)
    res1 = concat @ encoder.attn_out
    res1 += xq
    norm1, n1_hat, n1_inv = _layer_norm(res1, encoder.ln1_scale, encoder.ln1_shift)

    ff_pre = norm1 @ encoder.ff_w1
    ff_pre += encoder.ff_b1
    ff_act = np.maximum(ff_pre, 0.0)
    res2 = ff_act @ encoder.ff_w2
    res2 += encoder.ff_b2
    res2 += norm1
    norm2, n2_hat, n2_inv = _layer_norm(res2, encoder.ln2_scale, encoder.ln2_shift)

    pooled = np.add.reduce(norm2 * valid[:, :, None], axis=1)
    pooled /= counts[:, None].astype(norm2.dtype)
    logits = pooled @ encoder.cls_w
    logits += encoder.cls_b
    probs = masked_softmax(logits, legal)

    cache = {
        "ids": ids, "rows": rows, "valid": valid, "counts": counts,
        "keys": np.arange(w)[None] if keys is None else keys,
        "xq": xq, "q": q, "k": k, "v": v, "attn": attn, "concat": concat,
        "n1_hat": n1_hat, "n1_inv": n1_inv, "norm1": norm1,
        "ff_pre": ff_pre, "ff_act": ff_act,
        "n2_hat": n2_hat, "n2_inv": n2_inv, "norm2": norm2,
        "pooled": pooled, "probs": probs,
    }
    return probs, cache


def backward_batch(params: EncoderParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every tensor, given dloss/dlogits.

    Follows the forward's restrictions: query-side gradients exist on the
    NSW rows only (padded rows get exactly zero), and key and value
    gradients on the keys the forward kept (``cache["keys"]``). The
    forward's queries come pre-scaled from the tables; the gradients are
    with respect to ``params``, so the scale is folded into ``dq``.

    Keys and values were gathered from ``E @ Wkv`` and ``P @ Wkv``, so
    their gradients go back through the same tables: the kept keys' dK|dV
    rows are summed once per distinct character id (one stable sort and
    ``np.add.reduceat``; keys on ``PAD_ID`` beside a live key, whose dK and
    dV are exactly zero, leave the sort) and once per position (one one-hot
    product). One product with the embedding rows of those characters and
    the positional table then gives the key and value weights' gradients,
    and one with ``Wkv`` the embedding and positional gradients. At most
    B*W distinct ids occur, so this never costs more than products over
    every key. The query rows' input gradients are then added row by row,
    ``PAD_ID`` rows included: a query row's gradient is real when an NSW
    sits on it.
    """
    ids, rows, valid, counts = cache["ids"], cache["rows"], cache["valid"], cache["counts"]

    grads = dict.fromkeys(params.tensors())  # field order; each filled once below
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
    # dK | dV of every kept key as (B, N, 2, H, K), written by the products in place.
    n = k.shape[2]
    dkv = np.empty((b, n, 2, h, k.shape[3]))
    np.matmul(attn.swapaxes(-1, -2), dctx, out=dkv[:, :, 1].transpose(0, 2, 1, 3))
    dattn = dctx @ v.swapaxes(-1, -2)
    # Softmax backward in place: dscores = attn * (dattn - rowdot).
    rowdot = np.einsum("bhij,bhij->bhi", dattn, attn)[:, :, :, None]
    np.subtract(dattn, rowdot, out=dattn)
    np.multiply(dattn, attn, out=dattn)
    dscores = dattn
    dq = dscores @ k
    dq *= 1.0 / np.sqrt(k.shape[-1])
    np.matmul(dscores.swapaxes(-1, -2), q, out=dkv[:, :, 0].transpose(0, 2, 1, 3))
    dkv = dkv.reshape(b * n, -1)

    def columns_to_heads(grad):  # (D, H*K) -> (H, D, K)
        return np.ascontiguousarray(grad.reshape(d, h, -1).transpose(1, 0, 2))

    # Query rows: one (B*M, D) x (D, H*K) product each way.
    dq_cat = dq.transpose(0, 2, 1, 3).reshape(b * m, -1)
    grads["attn_q"] = columns_to_heads(cache["xq"].reshape(b * m, d).T @ dq_cat)
    dxq += (dq_cat @ _heads_to_columns(params.attn_q).T).reshape(b, m, d)

    # Keys: dK | dV summed per distinct character (one stable sort and
    # np.add.reduceat) and per position (a one-hot product). Beside a live
    # key, a key on PAD_ID weighs exactly zero, so its dK and dV are zero
    # and it leaves the sort; a window of padding only keeps its keys.
    windows = np.arange(b)[:, None]
    keys = cache["keys"].reshape(-1)
    key_ids = ids[windows, cache["keys"]]
    dead = key_ids == PAD_ID
    dead &= ~dead.all(axis=1, keepdims=True)
    key_ids = key_ids.reshape(-1)
    order = np.argsort(key_ids, kind="stable")
    order = order[~dead.reshape(-1)[order]]
    sorted_ids = key_ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    chars = sorted_ids[starts]
    u, w = len(chars), params.positional.shape[0]
    # Rows 0..U-1 sum per distinct character, rows U..U+W-1 per position.
    dtable = np.empty((u + w, dkv.shape[1]))
    np.add.reduceat(dkv[order], starts, axis=0, out=dtable[:u])
    one_hot = np.zeros((w, len(keys)))
    one_hot[keys, np.arange(len(keys))] = 1.0
    np.matmul(one_hot, dkv, out=dtable[u:])
    hk = dkv.shape[1] // 2
    x = np.concatenate((params.embedding[chars], params.positional))
    kv_weight = np.concatenate(
        (_heads_to_columns(params.attn_k), _heads_to_columns(params.attn_v)), axis=1
    )
    dkv_weight = x.T @ dtable
    grads["attn_k"] = columns_to_heads(dkv_weight[:, :hk])
    grads["attn_v"] = columns_to_heads(dkv_weight[:, hk:])
    dx = dtable @ kv_weight.T
    grads["embedding"] = np.zeros_like(params.embedding)
    grads["embedding"][chars] = dx[:u]
    grads["positional"] = dx[u:]
    # The query rows' input gradients, one row at a time. An NSW may sit
    # on a literal \x00, which reads PAD_ID, so no query row is dropped.
    np.add.at(grads["embedding"], ids[windows, rows], dxq)
    np.add.at(grads["positional"], rows, dxq)
    return grads


# --------------------------------------------------------------------------
# Batch container and losses
# --------------------------------------------------------------------------

@dataclass
class TrainingBatch:
    """Windows, masks and targets, one row per span."""

    ids: np.ndarray          # (B, W) int
    nsw_masks: np.ndarray    # (B, W) bool
    legal_masks: np.ndarray  # (B, L) bool
    targets: np.ndarray      # (B,) int

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, index: np.ndarray) -> "TrainingBatch":
        return TrainingBatch(
            self.ids[index], self.nsw_masks[index], self.legal_masks[index], self.targets[index]
        )


def _split_by_nsw_count(counts: np.ndarray) -> list[np.ndarray]:
    """Indices into ``counts`` sorted by count, as one part or two.

    ``forward_batch`` pads every window's query rows to the largest count
    of its call, and runs at least two, so a window costs ``max(count, 2)``
    rows. Cutting the sorted costs ``c`` before index ``i`` pads
    ``i*c[i-1] + (n-i)*c[n-1]`` rows instead of ``n*c[n-1]``; the cut that
    pads the fewest is taken, and none when no cut saves a row. Each extra
    part costs a forward and a backward pass's fixed numpy overhead, which
    on training minibatches outweighs what a second cut saves.
    """
    order = np.argsort(counts, kind="stable")
    c = np.maximum(counts[order], 2)
    n = len(c)
    cuts = np.arange(1, n)
    padded = cuts * c[:-1] + (n - cuts) * c[-1]
    if n < 2 or padded.min() >= n * c[-1]:
        return [order]
    cut = int(cuts[np.argmin(padded)])
    return [order[:cut], order[cut:]]


def batch_loss_and_grads(
    params: EncoderParams, batch: TrainingBatch, config: ClassifierConfig
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Mean focal loss, its gradients and every row's label probabilities.

    A row with one legal label needs no forward pass: its masked softmax
    is exactly one-hot on that label, whatever the logits, so its target
    probability is 1.0 and its logit gradient exactly zero. Only the
    ambiguous rows (two or more legal labels) run the encoder: sorted by
    NSW count and split at most once, where that saves the most padded
    query rows (``_split_by_nsw_count``), each part one ``forward_batch``
    and one ``backward_batch``, and the gradients are the parts' sum. A
    window's result does not depend on the other windows of its call, so
    the split changes only the float summation order, and the loss is
    still the mean over every row. The tables are frozen in float64 afresh
    on every call, because optimizer steps and finite-difference probes
    change ``params`` in place. The targets are not checked here:
    ``make_training_batch`` checks each once, as it builds its row.
    """
    probs = batch.legal_masks.astype(np.float64)  # one-hot on the one-label rows
    ambiguous = np.flatnonzero(batch.legal_masks.sum(axis=1) > 1)
    grads = None
    if len(ambiguous):
        encoder = FrozenEncoder.freeze(params, np.float64)
        nsw = batch.nsw_masks[ambiguous]
        for part in _split_by_nsw_count(nsw.sum(axis=1)):
            rows = ambiguous[part]
            part_probs, cache = forward_batch(
                encoder, batch.ids[rows], nsw[part], batch.legal_masks[rows]
            )
            probs[rows] = part_probs
            target = np.arange(len(rows)), batch.targets[rows]
            p_target = part_probs[target]
            onehot = np.zeros_like(part_probs)
            onehot[target] = 1.0
            dp = focal_loss_grad(p_target, config.alpha, config.gamma) / len(batch)
            dlogits = (dp * p_target)[:, None] * (onehot - part_probs)
            part_grads = backward_batch(params, cache, dlogits)
            if grads is None:
                grads = part_grads
            else:
                for name, grad in part_grads.items():
                    grads[name] += grad
    if grads is None:
        grads = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    p_target = probs[np.arange(len(batch)), batch.targets]
    loss = float(focal_loss_vec(p_target, config.alpha, config.gamma).mean())
    return loss, grads, probs


# --------------------------------------------------------------------------
# Inference
# --------------------------------------------------------------------------

PREDICT_CHUNK = 16


def predict_probs(encoder: FrozenEncoder, ids, nsw_mask, legal_mask) -> np.ndarray:
    """Label probabilities for any number of windows, in input order.

    ``forward_batch`` pads every window to the batch's largest NSW count,
    and a large batch's arrays outgrow the CPU cache. So windows are
    stable-sorted by NSW count and run in chunks of at most
    ``PREDICT_CHUNK``: each chunk holds windows of near-equal NSW count,
    which leaves little padding, and keeps its longest live run's count of
    keys. Each window's result depends neither on the others in its chunk
    nor on the keys the chunk keeps, beyond the float64 head's last bit.
    Up to one chunk runs directly, unsorted.
    """
    n = len(ids)
    if n == 0:
        return np.zeros((0, encoder.cls_b.shape[0]))
    if n <= PREDICT_CHUNK:
        return forward_batch(encoder, ids, nsw_mask, legal_mask)[0]
    ids = np.asarray(ids, dtype=np.int64)
    nsw = np.asarray(nsw_mask, dtype=bool)
    legal = np.asarray(legal_mask, dtype=bool)
    order = np.argsort(nsw.sum(axis=1), kind="stable")
    probs = np.empty((n, encoder.cls_b.shape[0]))
    for start in range(0, n, PREDICT_CHUNK):
        chunk = order[start : start + PREDICT_CHUNK]
        probs[chunk] = forward_batch(encoder, ids[chunk], nsw[chunk], legal[chunk])[0]
    return probs

