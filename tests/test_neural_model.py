import json
import random

import numpy as np
import pytest

from gradcheck import gradient_check
from oracles import reference_backward_batch, reference_forward, reference_window

from mtnorm.corpus import (
    CorpusDistribution,
    LabeledSentence,
    NSWSpan,
    generate_synthetic_corpus,
)
from mtnorm.extractor import extract_nsw
from mtnorm.neural import (
    CheckpointError,
    ClassifierConfig,
    FrozenEncoder,
    Vocabulary,
    load_params,
    model,
    predict_probs,
    save_params,
    train,
)
from mtnorm.neural.model import (
    TrainingBatch,
    backward_batch,
    batch_loss_and_grads,
    forward_batch,
    init_params,
    masked_softmax,
)
from mtnorm.neural.vocab import PAD_CHAR, PAD_ID, UNK_ID, build_vocab


def frozen64(params):
    """``params`` frozen into float64 tables, the encoder a training forward runs on."""
    return FrozenEncoder.freeze(params, np.float64)


def small_setup(window=8, dim=16, heads=2, labels=5, vocab_chars="零一二三456789时分比"):
    config = ClassifierConfig(
        window=window, heads=heads, model_dim=dim, ff_dim=2 * dim, label_count=labels, seed=1
    )
    vocab = Vocabulary({ch: i + 2 for i, ch in enumerate(vocab_chars)})
    params = init_params(config, vocab.size, np.random.default_rng(1))
    return config, vocab, params


class TestMaskedSoftmax:
    def test_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = rng.integers(2, 36)
            logits = rng.normal(scale=5.0, size=n)
            legal = rng.random(n) > 0.5
            legal[rng.integers(0, n)] = True
            probs = masked_softmax(logits, legal)[0]
            assert np.all(probs[~legal] == 0.0)
            assert abs(probs[legal].sum() - 1.0) <= 1e-9

    def test_single_legal_label_forced(self):
        probs = masked_softmax(np.asarray([5.0, -3.0, 0.1]), np.asarray([False, True, False]))[0]
        assert probs[1] == 1.0
        assert probs[0] == probs[2] == 0.0

    def test_all_illegal_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax(np.zeros(4), np.zeros(4, dtype=bool))

    def test_int_and_list_masks_and_1d_logits(self):
        logits = np.array([2.0, -1.0, 0.5, 3.0])
        e = np.exp(np.array([2.0, 0.5]) - 2.0)
        want = np.array([[e[0] / e.sum(), 0.0, e[1] / e.sum(), 0.0]])
        for legal in ([True, False, True, False], [1, 0, 1, 0], (1, 0, 1, 0), np.array([3, 0, 1, 0])):
            probs = masked_softmax(logits, legal)
            assert probs.shape == (1, 4) and probs.dtype == np.float64
            assert np.allclose(probs, want, rtol=0.0, atol=1e-15)
            assert probs[0, 1] == probs[0, 3] == 0.0
        assert np.array_equal(masked_softmax(logits, [0, 0, 7, 0]), [[0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            masked_softmax(logits, [0, 0, 0, 0])

    def test_one_legal_entry_is_exact_one_hot(self):
        # the pipeline and training decide one-label spans by this one-hot
        rng = np.random.default_rng(6)
        for scale in (1.0, 1e3, 1e150, 1e300):
            logits = rng.normal(scale=scale, size=(40, 7))
            logits[:20] = np.abs(logits[:20])
            logits[20:] = -np.abs(logits[20:])
            legal = np.zeros((40, 7), dtype=bool)
            legal[np.arange(40), rng.integers(0, 7, size=40)] = True
            assert np.array_equal(masked_softmax(logits, legal), legal.astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 1e6, -1e6])
    def test_one_legal_entry_forward_is_exact_one_hot(self, dtype, scale):
        config, params, rng = oracle_setup()
        params.cls_w *= scale
        params.cls_b *= scale
        ids, nsw, _ = ragged_windows(rng, [1, 2, 5, 12, 3, 1])
        legal = np.zeros((6, 5), dtype=bool)
        legal[np.arange(6), [0, 4, 2, 2, 1, 3]] = True
        probs, _ = forward_batch(FrozenEncoder.freeze(params, dtype), ids, nsw, legal)
        assert probs.dtype == np.float64
        assert np.array_equal(probs, legal.astype(np.float64))


class TestVocabulary:
    def test_round_trip_ids(self):
        vocab = build_vocab([LabeledSentence("今天好", ())])
        for ch in "今天好":
            assert vocab.id_of(ch) >= 2
        assert vocab.id_of(PAD_CHAR) == PAD_ID
        assert vocab.id_of("未") == UNK_ID

    @pytest.mark.parametrize("pad_id, unk_id", [(1, 3), (5, 0), (0, 2), (1, 1)])
    def test_reserved_ids_are_zero_and_one(self, tmp_path, pad_id, unk_id):
        # the ids are fixed, so a vocabulary that stores its own (the old layout)
        # does not load, whatever they are: unk_id 3 would read unknown
        # characters as "b", and pad_id 5 has no row
        config, vocab, params = small_setup(vocab_chars="ab")
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "vocab_json", pad_id=pad_id, unk_id=unk_id)
        # quoted, as no tmp_path (named after the test) can be
        with pytest.raises(CheckpointError, match="'pad_id', 'unk_id'"):
            load_params(path)


def reference_windows(vocab, text, spans, width):
    """``reference_window`` per span, each character through ``id_of``."""
    ids, nsw = [], []
    for span in spans:
        chars, mask = reference_window(text, span.start, span.end, width)
        ids.append([vocab.id_of(ch) for ch in chars])
        nsw.append(mask)
    shape = (-1, width)
    return np.asarray(ids, dtype=np.int64).reshape(shape), np.asarray(nsw, dtype=bool).reshape(shape)


def dense_lines(sentences, n, seed):
    """Lines of 2-8 sentences joined by '，' and ended by '。', spans shifted along."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        text, spans = "", []
        for s in rng.sample(sentences, rng.randint(2, 8)):
            spans += [NSWSpan(sp.start + len(text), sp.end + len(text), sp.label) for sp in s.spans]
            text += s.text + "，"
        lines.append(LabeledSentence(text[:-1] + "。", tuple(spans)))
    return lines


class TestWindows:
    """``Vocabulary.windows`` against the one-character-at-a-time oracle."""

    WIDTHS = (1, 5, 12, 30)

    def check(self, vocab, text, spans, width):
        ids, nsw = vocab.windows(text, spans, width)
        want_ids, want_nsw = reference_windows(vocab, text, spans, width)
        assert ids.dtype == np.int64 and nsw.dtype == bool
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(nsw, want_nsw)

    def test_generated_sentences(self):
        corpus = generate_synthetic_corpus(CorpusDistribution.default(), 400, seed=21)
        vocab = build_vocab(corpus[:100])  # later sentences hold unknown characters
        for width in self.WIDTHS:
            for sentence in corpus:
                self.check(vocab, sentence.text, sentence.spans, width)

    def test_dense_lines(self):
        corpus = generate_synthetic_corpus(CorpusDistribution.default(), 400, seed=22)
        vocab = build_vocab(corpus[:200])
        for seed in (1, 0):
            for line in dense_lines(corpus, 60, seed=seed):
                for width in self.WIDTHS:
                    self.check(vocab, line.text, line.spans, width)
                    self.check(vocab, line.text, extract_nsw(line.text), width)

    def test_spans_at_text_edges(self):
        vocab = build_vocab([LabeledSentence("共12人在3", ())])
        spans = [NSWSpan(0, 2), NSWSpan(5, 6)]
        for width in self.WIDTHS:
            self.check(vocab, "12人在3", [NSWSpan(0, 2), NSWSpan(4, 5)], width)
            self.check(vocab, "共12人在3", spans, width)
        ids, nsw = vocab.windows("12", [NSWSpan(0, 2)], 6)
        pad = [PAD_ID] * 2
        assert ids.tolist() == [pad + [vocab.id_of("1"), vocab.id_of("2")] + pad]
        assert nsw.tolist() == [[False, False, True, True, False, False]]

    def test_nsw_at_least_window_long_keeps_head(self):
        vocab = build_vocab([LabeledSentence("总额1234567890元", ())])
        text = "总额1234567890元"
        for width in (1, 5, 10):
            ids, nsw = vocab.windows(text, [NSWSpan(2, 12)], width)
            assert ids.tolist() == [[vocab.id_of(ch) for ch in "1234567890"[:width]]]
            assert nsw.all()
            self.check(vocab, text, [NSWSpan(2, 12), NSWSpan(12, 13)], width)

    def test_literal_pad_char_reads_pad_id(self):
        vocab = build_vocab([LabeledSentence("共100人", ())])
        text = "共\x00100人"
        ids, nsw = vocab.windows(text, [NSWSpan(2, 5)], 5)
        assert ids.tolist() == [[vocab.id_of(ch) for ch in "\x00100人"]]
        assert ids[0, 0] == PAD_ID
        assert nsw.tolist() == [[False, True, True, True, False]]
        for width in self.WIDTHS:
            self.check(vocab, text, [NSWSpan(2, 5)], width)

    @pytest.mark.parametrize("seed", [1, 0])
    def test_random_texts_and_spans(self, seed):
        rng = random.Random(40 + seed)
        known = "0123456789共人元%:-今天"
        vocab = Vocabulary({ch: i + 2 for i, ch in enumerate(known)})
        alphabet = known + PAD_CHAR + "未知é"  # the last three are unknown
        seen = {"edge_start": 0, "edge_end": 0, "longer": 0, "none": 0}
        for width in range(1, 41):
            for _ in range(12):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 70)))
                spans = []
                for _ in range(rng.choice([0, 1, 1, 2, 5])):
                    start = rng.choice([0, rng.randrange(len(text))])
                    end = rng.choice([len(text), rng.randint(start + 1, len(text))])
                    spans.append(NSWSpan(start, end))
                    seen["edge_start"] += start == 0
                    seen["edge_end"] += end == len(text)
                    seen["longer"] += end - start > width
                seen["none"] += not spans
                ids, nsw = vocab.windows(text, spans, width)
                assert ids.dtype == np.int64 and nsw.dtype == bool
                assert ids.shape == nsw.shape == (len(spans), width)
                assert ids.flags.c_contiguous and nsw.flags.c_contiguous
                want_ids, want_nsw = reference_windows(vocab, text, spans, width)
                assert np.array_equal(ids, want_ids)
                assert np.array_equal(nsw, want_nsw)
        assert min(seen.values()) > 20

    def test_no_spans(self):
        vocab = build_vocab([LabeledSentence("今天好", ())])
        for width in self.WIDTHS:
            for text in ("", "今天好"):
                ids, nsw = vocab.windows(text, [], width)
                assert ids.shape == nsw.shape == (0, width)
                assert ids.dtype == np.int64 and nsw.dtype == bool


def run_forward(params, ids, nsw=None, labels=5):
    """forward_batch over window id rows; every position is NSW unless given."""
    ids = np.atleast_2d(ids)
    nsw = np.ones(ids.shape, dtype=bool) if nsw is None else np.atleast_2d(nsw)
    legal = np.ones((ids.shape[0], labels), dtype=bool)
    _, cache = forward_batch(frozen64(params), ids, nsw, legal)
    return cache


class TestEmbedding:
    def test_all_pad_window(self):
        config, vocab, params = small_setup()
        ids, nsw = vocab.windows(PAD_CHAR * 8, [NSWSpan(0, 8)], 8)
        cache = run_forward(params, ids, nsw)
        expected = params.embedding[PAD_ID][None, :] + params.positional[:8]
        assert np.allclose(cache["xq"][0], expected)

    def test_locality(self):
        config, vocab, params = small_setup()
        # a span as wide as the window: the window is the text itself
        w1 = vocab.windows("一二三四五678", [NSWSpan(0, 8)], 8)
        w2 = vocab.windows("一二三四五978", [NSWSpan(0, 8)], 8)
        cache = run_forward(params, *(np.concatenate(part) for part in zip(w1, w2)))
        diff = np.abs(cache["xq"][0] - cache["xq"][1]).sum(axis=1)
        assert diff[5] > 0
        assert np.all(diff[np.arange(8) != 5] == 0)


class TestEncoderBlock:
    def test_output_shape_matches_input(self):
        _, _, params = small_setup()
        ids = np.random.default_rng(0).integers(2, 14, size=(3, 8))
        cache = run_forward(params, ids)
        assert cache["norm2"].shape == cache["xq"].shape == (3, 8, 16)

    def test_attention_rows_sum_over_non_pad(self):
        _, vocab, params = small_setup()
        ids = np.random.default_rng(1).integers(2, 14, size=(3, 8))
        pad = np.zeros((3, 8), dtype=bool)
        pad[0, 5:] = pad[1, :2] = pad[2, [0, 3, 7]] = True
        ids[pad] = PAD_ID
        # one window keeps all 8 keys; a chunk keeps the longest live run, 6
        for windows, width in ((slice(0, 1), 8), (slice(None), 6)):
            cache = run_forward(params, ids[windows], ~pad[windows])
            attn, keys = cache["attn"], cache["keys"]
            # only the 5 or 6 NSW query rows are computed
            assert keys.shape[1] == width
            assert attn.shape == (len(keys), 2, (~pad[windows]).sum(axis=1).max(), width)
            assert np.allclose(attn.sum(axis=-1), 1.0)
            pad_keys = np.take_along_axis(pad[windows], keys, axis=1)[:, None, None, :]
            assert np.all(attn[np.broadcast_to(pad_keys, attn.shape)] == 0.0)
            assert np.all(attn[np.broadcast_to(~pad_keys, attn.shape)] > 0.0)

    def test_permutation_equivariance(self):
        # brute-force check at D=4, H=2, W=3 with positional encoding removed
        config = ClassifierConfig(window=3, heads=2, model_dim=4, ff_dim=8, label_count=2, seed=2)
        params = init_params(config, vocab_size=6, rng=np.random.default_rng(2))
        params.positional[:] = 0.0
        ids = np.asarray([2, 5, 3])
        perm = [2, 0, 1]
        out = run_forward(params, ids, labels=2)["norm2"][0]
        out_perm = run_forward(params, ids[perm], labels=2)["norm2"][0]
        assert np.allclose(out_perm, out[perm], atol=1e-10)


def oracle_setup(window=12, dim=16, heads=2, labels=5, vocab_size=20, seed=7):
    """Random parameters at a larger scale than init, so probabilities spread."""
    config = ClassifierConfig(
        window=window, heads=heads, model_dim=dim, ff_dim=2 * dim, label_count=labels, seed=seed
    )
    rng = np.random.default_rng(seed)
    params = init_params(config, vocab_size, rng)
    for tensor in params.tensors().values():
        tensor[...] = rng.normal(scale=0.7, size=tensor.shape)
    return config, params, rng


def ragged_windows(rng, counts, window=12, vocab_size=20):
    """One window per NSW count, with random pad keys around the NSW."""
    ids = rng.integers(2, vocab_size, size=(len(counts), window))
    nsw = np.zeros((len(counts), window), dtype=bool)
    for row, count in enumerate(counts):
        start = int(rng.integers(0, window - count + 1))
        nsw[row, start : start + count] = True
        if count < window:
            pads = rng.random(window) < 0.3
            pads[start : start + count] = False
            ids[row, pads] = PAD_ID
    legal = rng.random((len(counts), 5)) < 0.6
    legal[np.arange(len(counts)), rng.integers(0, 5, size=len(counts))] = True
    return ids, nsw, legal


class TestForwardOracle:
    """forward_batch computes NSW query rows only; the oracle computes every row."""

    def test_matches_full_window_reference(self):
        config, params, rng = oracle_setup()
        for _ in range(20):
            ids, nsw, legal = ragged_windows(rng, [1, 2, 5, 12, 3, 1])
            probs, _ = forward_batch(frozen64(params), ids, nsw, legal)
            want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
            assert np.abs(probs - want).max() <= 1e-12
            assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))

    def test_nsw_longer_than_window(self):
        config, params, _ = oracle_setup()
        vocab = Vocabulary({ch: i + 2 for i, ch in enumerate("0123456789总额元")})
        text = "总额1234567890123456元"
        sentence = LabeledSentence(text, (NSWSpan(2, 18),))
        ids, nsw = vocab.windows(text, sentence.spans, config.window)
        assert all(nsw[0])
        legal = np.ones((1, 5), dtype=bool)
        probs, _ = forward_batch(frozen64(params), ids, nsw, legal)
        want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
        assert np.abs(probs - want).max() <= 1e-12
        assert probs.argmax() == want.argmax()

    def test_mixed_batch_equals_one_by_one(self):
        config, params, rng = oracle_setup()
        ids, nsw, legal = ragged_windows(rng, [1, 2, 5, 12, 1, 7, 2])
        encoder = frozen64(params)
        batched, _ = forward_batch(encoder, ids, nsw, legal)
        for row in range(len(ids)):
            one = slice(row, row + 1)
            single, _ = forward_batch(encoder, ids[one], nsw[one], legal[one])
            assert np.abs(single[0] - batched[row]).max() <= 1e-12
            assert single[0].argmax() == batched[row].argmax()


class TestBackwardOracle:
    """K/V gradients through per-character tables equal per-position products."""

    @pytest.mark.parametrize(
        "case, id_range, vocab_size",
        [
            ("pad ids", (2, 20), 20),
            ("repeated ids", (2, 5), 20),
            ("vocabulary larger than the batch's ids", (2, 30), 500),
            # every key masked: the window attends to its padding evenly
            ("window of padding only", (2, 20), 20),
        ],
    )
    def test_matches_per_position_reference(self, case, id_range, vocab_size):
        config, params, rng = oracle_setup(vocab_size=vocab_size)
        for _ in range(5):
            ids, nsw, legal = ragged_windows(rng, [1, 2, 5, 12, 3, 1, 7], vocab_size=vocab_size)
            if case == "window of padding only":
                ids[1] = PAD_ID
            elif case != "pad ids":
                ids = np.where(nsw | (ids != PAD_ID), rng.integers(*id_range, ids.shape), ids)
            assert (ids == PAD_ID).any()
            _, cache = forward_batch(frozen64(params), ids, nsw, legal)
            dlogits = rng.normal(size=(len(ids), config.label_count))
            got = backward_batch(params, cache, dlogits)
            want = reference_backward_batch(params.tensors(), cache, dlogits)
            assert got.keys() == want.keys()
            assert list(got) == list(params.tensors())  # field order
            # batch_loss_and_grads adds a second part's gradients in place
            arrays = [*got.values(), *params.tensors().values()]
            for i, grad in enumerate(got.values()):
                for other in arrays[i + 1 :]:
                    assert not np.shares_memory(grad, other)
            for name, grad in want.items():
                assert got[name].shape == grad.shape, name
                assert np.abs(got[name] - grad).max() <= 1e-12, name
            unseen = np.setdiff1d(np.arange(vocab_size), ids)
            assert not got["embedding"][unseen].any()


# Windows of texts shorter than the 12-character window, so each window's
# live run (first to last non-padding key) is shorter than the window and
# a chunk keeps only the longest run's count of keys.
KEPT_KEY_CASES = {
    # NSW at the text's start: padding on the left only; at its end: on the
    # right only; the last window is padded on both sides
    "one-sided padding": [
        ("35人在场有是共", NSWSpan(0, 2)),
        ("在场有是共人12", NSWSpan(5, 7)),
        ("120人在场有是共", NSWSpan(0, 3)),
        ("有是共8", NSWSpan(3, 4)),
    ],
    # a literal \x00 reads PAD_ID inside the live run, a masked key that is kept
    "interior padding key": [
        ("共\x00有35人在场是", NSWSpan(3, 5)),
        ("35人\x00在", NSWSpan(0, 2)),
        ("在场12", NSWSpan(2, 4)),
        ("有\x0067\x00人", NSWSpan(2, 4)),
    ],
}


def kept_key_batch(case, labels=5):
    vocab = Vocabulary({ch: i + 2 for i, ch in enumerate("0123456789共有人在场是")})
    windows = [vocab.windows(text, [span], 12) for text, span in KEPT_KEY_CASES[case]]
    ids, nsw = (np.concatenate(part) for part in zip(*windows))
    legal = np.ones((len(ids), labels), dtype=bool)
    legal[::2, 1] = False
    return vocab, ids, nsw, legal


@pytest.mark.parametrize("case", sorted(KEPT_KEY_CASES))
class TestKeptKeys:
    """A chunk of windows keeps each window's live keys only, with the result of all W."""

    def test_chunk_keeps_live_runs(self, case):
        vocab, ids, nsw, legal = kept_key_batch(case)
        config, params, rng = oracle_setup(vocab_size=vocab.size)
        _, cache = forward_batch(frozen64(params), ids, nsw, legal)
        keys = cache["keys"]
        live = ids != PAD_ID
        lo = live.argmax(axis=1)
        runs = ids.shape[1] - live[:, ::-1].argmax(axis=1) - lo
        assert len(set(lo.tolist())) > 1 and len(set(runs.tolist())) > 1
        assert keys.shape == (len(ids), runs.max()) and runs.max() < ids.shape[1]
        for row, key_row in enumerate(keys):
            assert len(set(key_row.tolist())) == len(key_row)
            assert key_row[: runs[row]].tolist() == list(range(lo[row], lo[row] + runs[row]))
            assert (ids[row, key_row[runs[row] :]] == PAD_ID).all()
        if case == "interior padding key":
            assert (ids[np.arange(len(ids))[:, None], keys] == PAD_ID)[:, :3].any()

    def test_float64_matches_references(self, case):
        vocab, ids, nsw, legal = kept_key_batch(case)
        config, params, rng = oracle_setup(vocab_size=vocab.size)
        probs, cache = forward_batch(frozen64(params), ids, nsw, legal)
        assert cache["keys"].shape[1] < ids.shape[1]
        want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
        assert np.abs(probs - want).max() <= 1e-12
        dlogits = rng.normal(size=(len(ids), config.label_count))
        got = backward_batch(params, cache, dlogits)
        for name, grad in reference_backward_batch(params.tensors(), cache, dlogits).items():
            assert got[name].shape == grad.shape, name
            assert np.abs(got[name] - grad).max() <= 1e-12, name

    def test_float32_alone_equals_chunk(self, case):
        vocab, ids, nsw, legal = kept_key_batch(case)
        config, params, rng = oracle_setup(vocab_size=vocab.size)
        encoder = FrozenEncoder.freeze(params)
        chunk = predict_probs(encoder, ids, nsw, legal)
        for row in range(len(ids)):
            one = slice(row, row + 1)
            alone, cache = forward_batch(encoder, ids[one], nsw[one], legal[one])
            assert cache["keys"].shape[1] == ids.shape[1]
            assert np.abs(alone[0] - chunk[row]).max() <= 1e-12

    def test_gradient_check(self, case):
        vocab, ids, nsw, legal = kept_key_batch(case)
        config, _, _ = oracle_setup(vocab_size=vocab.size)
        params = init_params(config, vocab.size, np.random.default_rng(2))
        batch = TrainingBatch(ids, nsw, legal, np.asarray([0, 2, 4, 3]))
        assert gradient_check(params, batch, config, coords_per_tensor=8) <= 1e-3


class TestPredictProbs:
    """Windows sorted by NSW count, in chunks, give each window's own result."""

    def test_buckets_match_one_by_one(self, forward_calls):
        config, params, rng = oracle_setup()
        counts = rng.integers(1, 13, size=41).tolist()
        ids, nsw, legal = ragged_windows(rng, counts)
        encoder = frozen64(params)
        probs = predict_probs(encoder, ids, nsw, legal)
        assert [len(c) for c in forward_calls] == [16, 16, 9]
        seen = [count for call in forward_calls for count in call]
        assert seen == sorted(counts)  # non-decreasing within and across calls
        for row in range(len(ids)):
            one = slice(row, row + 1)
            single, _ = model.forward_batch(encoder, ids[one], nsw[one], legal[one])
            assert np.abs(single[0] - probs[row]).max() <= 1e-12
            assert single[0].argmax() == probs[row].argmax()

    def test_one_chunk_runs_directly_in_input_order(self, forward_calls):
        config, params, rng = oracle_setup()
        counts = [5, 1, 12, 2, 7, 1]
        ids, nsw, legal = ragged_windows(rng, counts)
        encoder = frozen64(params)
        probs = predict_probs(encoder, ids, nsw, legal)
        assert forward_calls == [counts]
        direct, _ = model.forward_batch(encoder, ids, nsw, legal)
        assert np.array_equal(probs, direct)

    def test_no_windows(self, forward_calls):
        config, params, _ = oracle_setup()
        assert predict_probs(frozen64(params), [], [], []).shape == (0, 5)
        assert forward_calls == []


class TestFrozenForward:
    """The float32 table-gather encoder against the float64 full-window oracle."""

    TOLERANCE = 1e-6  # float32 rounding, well under any label margin the tests meet

    def test_matches_full_window_reference(self):
        config, params, rng = oracle_setup()
        encoder = FrozenEncoder.freeze(params)
        worst = 0.0
        for _ in range(20):
            ids, nsw, legal = ragged_windows(rng, [1, 2, 5, config.window, 3, 1])
            assert (ids == PAD_ID).any()
            probs, _ = forward_batch(encoder, ids, nsw, legal)
            want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
            assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))
            worst = max(worst, np.abs(probs - want).max())
        assert worst <= self.TOLERANCE

    def test_large_attention_scores_stay_finite(self):
        # softmax is shift-invariant, so only scores far outside exp's float32
        # range show a shift other than the row maximum
        config, params, rng = oracle_setup()
        ids, nsw, legal = ragged_windows(rng, [1, 2, 5, 12, 3, 1, 7, 4])

        def scores(encoder):
            _, cache = forward_batch(encoder, ids, nsw, legal)
            live = np.take_along_axis(ids, cache["keys"], axis=1) != PAD_ID
            live = np.broadcast_to(live[:, None, None, :], cache["attn"].shape)
            return (cache["q"] @ cache["k"].swapaxes(-1, -2))[live]

        params.attn_q *= 1e3 / np.abs(scores(frozen64(params))).max()
        encoder = FrozenEncoder.freeze(params)
        reached = scores(encoder)
        assert reached.max() > 500.0 and reached.min() < -500.0
        probs, _ = forward_batch(encoder, ids, nsw, legal)
        assert np.isfinite(probs).all()
        want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
        assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))

    def test_nsw_longer_than_window(self):
        config, params, _ = oracle_setup()
        encoder = FrozenEncoder.freeze(params)
        vocab = Vocabulary({ch: i + 2 for i, ch in enumerate("0123456789总额元")})
        text = "总额1234567890123456元"
        ids, nsw = vocab.windows(text, [NSWSpan(2, 18)], config.window)
        legal = np.ones((1, 5), dtype=bool)
        probs, _ = forward_batch(encoder, ids, nsw, legal)
        want = reference_forward(params.tensors(), ids, nsw, legal, PAD_ID)
        assert np.abs(probs - want).max() <= self.TOLERANCE
        assert probs.argmax() == want.argmax()

    def test_chunk_equals_one_by_one(self):
        # one-NSW windows alone and a one-window chunk take other BLAS paths
        config, params, rng = oracle_setup()
        encoder = FrozenEncoder.freeze(params)
        for counts in ([1, 1, 1], [1, 2, 5, 12, 1, 7, 2]):
            ids, nsw, legal = ragged_windows(rng, counts)
            batched = predict_probs(encoder, ids, nsw, legal)
            for row in range(len(ids)):
                one = slice(row, row + 1)
                single = predict_probs(encoder, ids[one], nsw[one], legal[one])
                assert np.abs(single[0] - batched[row]).max() <= 1e-12

    def test_padding_row_is_inert(self):
        # padding keys are suppressed, so the padding embedding reaches no output
        config, params, rng = oracle_setup()
        ids, nsw, legal = ragged_windows(rng, [1, 2, 5, 3, 1, 7])
        assert (ids == PAD_ID).any()
        shifted = params.copy()
        shifted.embedding[PAD_ID] += 5.0
        for dtype in (np.float64, np.float32):
            want, _ = forward_batch(FrozenEncoder.freeze(params, dtype), ids, nsw, legal)
            got, _ = forward_batch(FrozenEncoder.freeze(shifted, dtype), ids, nsw, legal)
            assert np.array_equal(got, want)
        batch = TrainingBatch(ids, nsw, legal, legal.argmax(axis=1))
        _, grads, _ = batch_loss_and_grads(params, batch, config)
        assert np.all(grads["embedding"][PAD_ID] == 0.0)
        assert np.abs(grads["embedding"]).max() > 0.0

    def test_training_params_untouched(self):
        config, params, _ = oracle_setup()
        before = params.copy()
        encoder = FrozenEncoder.freeze(params)
        assert encoder.kv_chars.dtype == np.float32
        for name, tensor in params.tensors().items():
            assert tensor.dtype == np.float64
            assert np.array_equal(tensor, before.tensors()[name])


def classify(text, span, vocab, params, config, legal_mask):
    """One span's label probabilities and argmax, through ``predict_probs``."""
    ids, nsw = vocab.windows(text, [span], config.window)
    probs = predict_probs(frozen64(params), ids, nsw, [legal_mask])[0]
    return probs, int(np.argmax(probs))


class TestClassify:
    TEXT, SPAN = "一二34五六七八", NSWSpan(2, 4)

    def test_single_legal_forced(self):
        config, vocab, params = small_setup()
        legal = [False, False, True, False, False]
        probs, label = classify(self.TEXT, self.SPAN, vocab, params, config, legal)
        assert label == 2
        assert probs[2] == 1.0

    def test_distribution_sums_to_one(self):
        config, vocab, params = small_setup()
        probs, _ = classify(self.TEXT, self.SPAN, vocab, params, config, [True] * 5)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_masking_out_argmax_changes_argmax(self):
        config, vocab, params = small_setup()
        legal = [True] * 5
        probs, label = classify(self.TEXT, self.SPAN, vocab, params, config, legal)
        reduced = list(legal)
        reduced[label] = False
        probs2, label2 = classify(self.TEXT, self.SPAN, vocab, params, config, reduced)
        assert label2 != label
        assert probs2[label] == 0.0

    def test_empty_mask_raises(self):
        config, vocab, params = small_setup()
        with pytest.raises(ValueError):
            classify(self.TEXT, self.SPAN, vocab, params, config, [False] * 5)

    def test_changes_outside_window_are_invisible(self):
        config, vocab, params = small_setup(window=6)
        far_a = "甲" * 30
        far_b = "乙" * 30
        for tail in ("", "后缀"):
            s1 = LabeledSentence(far_a + "今天56点了" + tail, (NSWSpan(32, 34),))
            s2 = LabeledSentence(far_b + "今天56点了" + tail, (NSWSpan(32, 34),))
            p1, l1 = classify(s1.text, s1.spans[0], vocab, params, config, [True] * 5)
            p2, l2 = classify(s2.text, s2.spans[0], vocab, params, config, [True] * 5)
            assert l1 == l2
            assert np.allclose(p1, p2)


def rewrite_entry(path, key, change):
    """Replace entry ``key`` of a saved checkpoint by ``change(entry)``, or drop it for None."""
    archive = dict(np.load(path, allow_pickle=False))
    if change is None:
        del archive[key]
    else:
        archive[key] = change(archive[key])
    np.savez(path, **archive)


def rewrite_json(path, key, **fields):
    """Set ``fields`` in the JSON entry ``key`` of a saved checkpoint."""
    rewrite_entry(path, key, lambda entry: np.asarray(
        json.dumps({**json.loads(str(entry)), **fields}, ensure_ascii=False)
    ))


class TestConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("batch_size", 0, "batch_size must be >= 1"),
            ("batch_size", -5, "batch_size must be >= 1"),
            ("heads", 0, "heads and batch_size must be >= 1"),
            ("epochs", -1, "epochs must be >= 0"),
            ("learning_rate", 0.0, "learning_rate must be > 0"),
            ("learning_rate", -1e-3, "learning_rate must be > 0"),
            ("learning_rate", float("nan"), "learning_rate must be > 0"),
            ("model_dim", 0, "model_dim must be >= 1"),
            ("model_dim", -8, "model_dim must be >= 1"),
            ("ff_dim", -1, "ff_dim >= 0"),
            ("gamma", float("nan"), "gamma must be >= 0"),
            ("learning_rate", float("inf"), "learning_rate must be > 0 and finite"),
            ("gamma", float("inf"), "gamma must be >= 0 and finite"),
            ("seed", -1, "seed must be >= 0"),
            ("seed", -3, "seed must be >= 0"),
        ],
    )
    def test_values_that_break_training_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ClassifierConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("use_mask", "no"), ("use_mask", 1), ("window", 5.5), ("window", "x"),
            ("epochs", True), ("seed", None), ("alpha", "0.5"), ("gamma", False),
        ],
    )
    def test_field_of_wrong_type_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be "):
            ClassifierConfig(**{field: value})

    def test_real_fields_take_integers(self):
        assert ClassifierConfig(alpha=1, gamma=0, learning_rate=1).alpha == 1

    def test_zero_epochs_allowed(self):
        assert ClassifierConfig(epochs=0).epochs == 0

    def test_zero_ff_dim_trains(self):
        config = ClassifierConfig(
            model_dim=8, heads=2, ff_dim=0, label_count=3, epochs=1, use_mask=False
        )
        corpus = [LabeledSentence("共12人", (NSWSpan(1, 3, 1),))]
        assert len(train(corpus, config).history) == 1


class TestCheckpoint:
    def test_round_trip_identical(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        loaded, config2, vocab2 = load_params(path)
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor)
        assert config2 == config
        assert vocab2 == vocab
        with np.load(path) as archive:
            assert "pad_id" not in json.loads(str(archive["config_json"]))
            assert json.loads(str(archive["vocab_json"])).keys() == {"char_to_id"}

    def test_wrong_label_count_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "config_json", label_count=9)
        with pytest.raises(CheckpointError, match="shape"):
            load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = tmp_path / "model.npz"
        save_params(str(path), params, config, vocab)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_params(str(path))

    def test_pad_id_mismatch_rejected(self, tmp_path):
        # an old-layout config holds pad_id, whichever id it names
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        for pad_id in (0, 1):
            save_params(path, params, config, vocab)
            rewrite_json(path, "config_json", pad_id=pad_id)
            with pytest.raises(CheckpointError, match="'pad_id'"):
                load_params(path)

    def test_reserved_ids_violation_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "vocab_json", unk_id=3)
        with pytest.raises(CheckpointError, match=r"\['char_to_id', 'unk_id'\]"):
            load_params(path)

    def test_unknown_config_field_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "config_json", dropout=0.1)
        with pytest.raises(CheckpointError, match="dropout"):
            load_params(path)

    def test_config_that_breaks_training_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "config_json", batch_size=0)
        with pytest.raises(CheckpointError, match="batch_size must be >= 1"):
            load_params(path)

    def test_config_field_of_wrong_type_rejected(self, tmp_path):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "config_json", use_mask="no")
        with pytest.raises(CheckpointError, match="use_mask must be bool"):
            load_params(path)

    def test_pretrained_vectors_key_rejected(self, tmp_path):
        # a removed config field, null in every file saved with it
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_json(path, "config_json", pretrained_vectors=None)
        with pytest.raises(CheckpointError, match="'pretrained_vectors'"):
            load_params(path)

    @pytest.mark.parametrize(
        "key, change",
        [
            ("format_version", lambda _: np.asarray([1, 1])),
            ("config_json", lambda _: np.asarray("{window: 30}")),
            ("config_json", lambda _: np.asarray("[30, 8]")),
            ("config_json", None),
            ("vocab_json", lambda _: np.asarray("[]")),
            ("vocab_json", lambda _: np.asarray("{}")),
            ("vocab_json", lambda e: np.asarray(str(e).replace('"零": 2,', '"零": 2.5,'))),
            ("ff_b2", lambda t: t.astype(str)),
            ("ff_b2", lambda t: np.full_like(t, np.nan)),
        ],
        ids=[
            "version-vector", "config-not-json", "config-list", "config-missing",
            "vocab-list", "vocab-empty", "vocab-float-id", "tensor-strings", "tensor-nan",
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, key, change):
        config, vocab, params = small_setup()
        path = str(tmp_path / "model.npz")
        save_params(path, params, config, vocab)
        rewrite_entry(path, key, change)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, something=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a classifier checkpoint"):
            load_params(path)

