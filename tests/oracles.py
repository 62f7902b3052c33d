"""Independent brute-force oracles the tests check the package against.

These deliberately reimplement behavior from scratch (different algorithms,
no imports from the modules they verify) so a shared bug cannot hide.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext

import numpy as np

_DIGITS = {"零": 0, "一": 1, "二": 2, "三": 3, "四": 4, "五": 5, "六": 6, "七": 7,
           "八": 8, "九": 9, "两": 2}
_SMALL_UNITS = {"十": 10, "百": 100, "千": 1000}


def parse_han_number(text: str) -> int:
    """Parse a positional Mandarin numeral back to an integer."""
    total = section = current = 0
    for ch in text:
        if ch in _DIGITS:
            current = _DIGITS[ch]
        elif ch in _SMALL_UNITS:
            section += (current if current else 1) * _SMALL_UNITS[ch]
            current = 0
        elif ch == "万":
            total += (section + current) * 10**4
            section = current = 0
        elif ch == "亿":
            total = (total + section + current) * 10**8
            section = current = 0
        else:
            raise ValueError(f"not a numeral character: {ch!r}")
    return total + section + current


def reference_focal_loss(p, alpha, gamma) -> float:
    """Focal loss of a target-label probability, -alpha (1-p)^gamma ln p, in 60 digits.

    The closed form the vectorized loss must meet; ``p``, ``alpha`` and
    ``gamma`` are converted exactly (a float or a decimal string).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        pd = Decimal(p)
        return float(-Decimal(alpha) * (1 - pd) ** Decimal(gamma) * pd.ln())


def reference_window(text, start, end, width):
    """Window chars and NSW mask for the span, one character at a time.

    Context splits evenly with the extra character on the right; positions
    outside the text read ``"\\x00"``. An NSW longer than the window keeps
    its first ``width`` characters and drops context entirely.
    """
    if end - start >= width:
        return text[start : start + width], (True,) * width
    first = start - (width - (end - start)) // 2
    chars, mask = [], []
    for pos in range(first, first + width):
        chars.append(text[pos] if 0 <= pos < len(text) else "\x00")
        mask.append(start <= pos < end)
    return "".join(chars), tuple(mask)


def brute_force_best_rule(rule_specs, text, start, end):
    """All-candidates rule selection: max (context_len, priority), min name.

    ``rule_specs`` are plain dicts with pre/nsw/post pattern strings, so this
    never touches the engine's compiled structures.
    """
    surface = text[start:end]
    candidates = []
    for spec in rule_specs:
        if re.fullmatch(spec["nsw"], surface) is None:
            continue
        cl = spec["context_len"]
        pre = text[max(0, start - cl):start]
        post = text[end:end + cl]
        if re.search(spec["pre"], pre) is None:
            continue
        if re.search(spec["post"], post) is None:
            continue
        candidates.append(spec)
    if not candidates:
        return None
    return min(candidates, key=lambda s: (-s["context_len"], -s["priority"], s["name"]))


def reference_match_nsw(rules, text, start, end):
    """First of ``rules``, taken in the given order, whose patterns all match at the span.

    Each rule's NSW pattern must match the whole surface and its pre and
    post patterns are searched in the up to ``context_len`` characters
    around it, every pattern run afresh for every rule.
    """
    surface = text[start:end]
    for rule in rules:
        if rule.nsw_pattern.fullmatch(surface) is None:
            continue
        pre = text[max(0, start - rule.context_len) : start]
        post = text[end : end + rule.context_len]
        if rule.pre_pattern.search(pre) and rule.post_pattern.search(post):
            return rule
    return None


def boundary_surfaces():
    """NSW surfaces at and just past the edges of the numeric formats.

    Bare and comma-grouped integers below and past 10^12, a 12-digit integer
    with a 6-digit fraction, each also as a percent, a dollar amount, a
    range and a per-unit quantity, plus clock, score and date extremes. A
    label's format decides which of them are its surfaces.
    """
    numbers = ["0", "2", "9" * 12, "1" + "0" * 12, "9" * 12 + ".999999", "0.000001"]
    for groups in range(1, 6):
        numbers += ["1" + ",000" * groups, "999" + ",999" * groups]
    surfaces = list(numbers)
    for n in numbers:
        surfaces += [n + "%", "$" + n, n + "人/组", n + "件/天"]
        surfaces += [n + sep + m for sep in "-~—" for m in ("0", n, "9" * 12 + ".999999")]
    surfaces += ["0:00", "00:00", "23:59", "24:00", "999:999", "0-0", "999-999"]
    surfaces += ["0000-1-1", "9999-12-31", "2020-02-30"]
    return surfaces


_NSW_SYMBOLS = set(".:-~—/%,$")


def brute_force_extract(text):
    """Character-wise NSW scanner: no regex, same leftmost-longest contract."""
    spans = []
    i, n = 0, len(text)
    while i < n:
        j = i
        if text[j] == "$" and j + 1 < n and text[j + 1].isdigit():
            j += 1
        if j < n and text[j].isdigit():
            k = j
            while k < n and (text[k].isdigit() or text[k] in _NSW_SYMBOLS):
                k += 1
            while k > j and not (text[k - 1].isdigit() or text[k - 1] == "%"):
                k -= 1
            spans.append((i, k))
            i = k
        else:
            i += 1
    return spans


def confusion_matrix_metrics(pairs, n_labels):
    """Per-label precision/recall/F1, accuracy and the matrix, from scratch."""
    matrix = [[0] * n_labels for _ in range(n_labels)]
    for gold, pred in pairs:
        matrix[gold][pred] += 1
    per_label = {}
    for lab in range(n_labels):
        tp = matrix[lab][lab]
        fn = sum(matrix[lab]) - tp
        fp = sum(matrix[g][lab] for g in range(n_labels)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[lab] = (precision, recall, f1)
    accuracy = sum(matrix[i][i] for i in range(n_labels)) / len(pairs)
    return per_label, accuracy, matrix


def _reference_layer_norm(x, scale, shift, eps=1e-5):
    out = np.empty_like(x)
    for i, row in enumerate(x):
        centered = row - row.mean()
        out[i] = centered / np.sqrt((centered**2).mean() + eps) * scale + shift
    return out


def reference_forward(tensors, ids, nsw_mask, legal_mask, pad_id):
    """Full-window encoder block, one window and one head at a time.

    ``tensors`` maps parameter names to arrays. Every query position is
    computed, attention normalizes over the non-pad keys only (each window
    needs one), the NSW rows' outputs are averaged, and the label softmax
    runs over the legal labels only. Returns (B, L) probabilities.
    """
    t = tensors
    out = []
    for row_ids, row_nsw, row_legal in zip(ids, nsw_mask, legal_mask):
        x = t["embedding"][np.asarray(row_ids)] + t["positional"]
        keys = [j for j, token in enumerate(row_ids) if token != pad_id]
        heads = []
        for wq, wk, wv in zip(t["attn_q"], t["attn_k"], t["attn_v"]):
            q, k, v = x @ wq, x[keys] @ wk, x[keys] @ wv
            scores = q @ k.T / np.sqrt(wq.shape[1])
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            heads.append(weights @ v)
        h = _reference_layer_norm(
            x + np.concatenate(heads, axis=1) @ t["attn_out"], t["ln1_scale"], t["ln1_shift"]
        )
        ff = np.maximum(h @ t["ff_w1"] + t["ff_b1"], 0.0) @ t["ff_w2"] + t["ff_b2"]
        h = _reference_layer_norm(h + ff, t["ln2_scale"], t["ln2_shift"])
        logits = h[np.asarray(row_nsw, dtype=bool)].mean(axis=0) @ t["cls_w"] + t["cls_b"]
        legal = np.flatnonzero(row_legal)
        e = np.exp(logits[legal] - logits[legal].max())
        probs = np.zeros(len(logits))
        probs[legal] = e / e.sum()
        out.append(probs)
    return np.asarray(out)


def _reference_layer_norm_backward(dout, norm, inv, scale):
    dnorm = dout * scale
    axes = tuple(range(dout.ndim - 1))
    dx = inv * (
        dnorm
        - dnorm.mean(axis=-1, keepdims=True)
        - norm * (dnorm * norm).mean(axis=-1, keepdims=True)
    )
    return dx, (dout * norm).sum(axis=axes), dout.sum(axis=axes)


def reference_backward_batch(tensors, cache, dlogits):
    """Parameter gradients from a forward cache, projecting every key position.

    ``tensors`` maps parameter names to arrays and ``cache`` is the dict a
    float64 forward pass returns. It reads the cache's layer-norm rows
    (``n1_hat`` and ``n1_inv``; ``res2``, the centred second residual sum,
    and ``n2_inv``), the feed-forward activations and the attention
    tensors, and nothing the forward pass folds: it rebuilds layer norm 1's
    output, the pooled vector and the query rows' inputs ``E[ids] + P``
    from ``tensors``. Above the projections this is the encoder block's
    backward pass step by step. Below them it rebuilds the inputs at each
    window's key positions (``cache["keys"]``, padding keys included),
    takes the key and value weights' gradients as products over all of
    them, and scatters the key and query input gradients into the
    embedding and positional tables with ``np.add.at``, one position at a
    time.
    """
    t = tensors
    ids, rows, valid, counts = cache["ids"], cache["rows"], cache["valid"], cache["counts"]
    n2_hat = cache["res2"] * cache["n2_inv"]
    norm2 = n2_hat * t["ln2_scale"] + t["ln2_shift"]
    pooled = np.stack([norm2[i, valid[i]].mean(axis=0) for i in range(len(norm2))])
    grads = {"cls_w": pooled.T @ dlogits, "cls_b": dlogits.sum(axis=0)}
    dnorm2 = (dlogits @ t["cls_w"].T)[:, None, :] * (valid / counts[:, None])[:, :, None]
    dres2, grads["ln2_scale"], grads["ln2_shift"] = _reference_layer_norm_backward(
        dnorm2, n2_hat, cache["n2_inv"], t["ln2_scale"]
    )
    b, m, d = dres2.shape
    grads["ff_w2"] = cache["ff_act"].reshape(b * m, -1).T @ dres2.reshape(b * m, d)
    grads["ff_b2"] = dres2.sum(axis=(0, 1))
    dff_pre = (dres2 @ t["ff_w2"].T) * (cache["ff_act"] > 0.0)
    norm1 = cache["n1_hat"] * t["ln1_scale"] + t["ln1_shift"]
    grads["ff_w1"] = norm1.reshape(b * m, d).T @ dff_pre.reshape(b * m, -1)
    grads["ff_b1"] = dff_pre.sum(axis=(0, 1))
    dres1, grads["ln1_scale"], grads["ln1_shift"] = _reference_layer_norm_backward(
        dres2 + dff_pre @ t["ff_w1"].T, cache["n1_hat"], cache["n1_inv"], t["ln1_scale"]
    )
    grads["attn_out"] = cache["concat"].reshape(b * m, d).T @ dres1.reshape(b * m, d)
    h = t["attn_q"].shape[0]
    dctx = (dres1 @ t["attn_out"].T).reshape(b, m, h, d // h).transpose(0, 2, 1, 3)
    attn, v, q, k = cache["attn"], cache["v"], cache["q"], cache["k"]
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k / np.sqrt(k.shape[-1])
    dk = dscores.swapaxes(-1, -2) @ q

    keys = cache["keys"]
    key_ids = np.take_along_axis(ids, keys, axis=1)
    x0 = t["embedding"][key_ids] + t["positional"][keys]
    query_ids = np.take_along_axis(ids, rows, axis=1)
    xq = t["embedding"][query_ids] + t["positional"][rows]
    dxq = dres1.copy()
    dx0 = np.zeros_like(x0)
    for name, dhead, x, dx in (
        ("attn_q", dq, xq, dxq),
        ("attn_k", dk, x0, dx0),
        ("attn_v", dv, x0, dx0),
    ):
        n = x.shape[1]
        dcat = dhead.transpose(0, 2, 1, 3).reshape(b * n, -1)
        grads[name] = (x.reshape(b * n, d).T @ dcat).reshape(d, h, -1).transpose(1, 0, 2)
        dx += (dcat @ t[name].transpose(1, 0, 2).reshape(d, -1).T).reshape(b, n, d)
    grads["embedding"] = np.zeros_like(t["embedding"])
    np.add.at(grads["embedding"], key_ids, dx0)
    np.add.at(grads["embedding"], query_ids, dxq)
    grads["positional"] = np.zeros_like(t["positional"])
    np.add.at(grads["positional"], keys, dx0)
    np.add.at(grads["positional"], rows, dxq)
    return grads
