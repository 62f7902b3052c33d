import importlib
import os
import random
import resource
from dataclasses import replace

import numpy as np
import pytest
from gradcheck import gradient_check
from oracles import reference_window

from mtnorm.corpus import (
    CorpusDistribution,
    LabeledSentence,
    NSWSpan,
    generate_synthetic_corpus,
)
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import (
    ClassifierConfig,
    FrozenEncoder,
    TrainingDiverged,
    make_training_batch,
    predict_batch,
    train,
)
from mtnorm.neural.loss import focal_loss_grad, focal_loss_vec
from mtnorm.neural.model import (
    TrainingBatch,
    _split_by_nsw_count,
    backward_batch,
    batch_loss_and_grads,
    forward_batch,
    init_params,
)
from mtnorm.neural.train import AdamState
from mtnorm.neural.vocab import PAD_ID, build_vocab

READ = DEFAULT_REGISTRY.id_of("A_Read_No_Zero")  # a label whose format rejects '10:30'


def separable_corpus(n=200, trigger=("甲", "乙")):
    """Two labels decidable from one trigger character near the NSW."""
    sentences = []
    for i in range(n):
        rng = random.Random(i)
        digits = "".join(rng.choice("0123456789") for _ in range(4))
        label = i % 2
        text = f"{trigger[label]}方数量{digits}确认"
        start = text.index(digits)
        sentences.append(LabeledSentence(text, (NSWSpan(start, start + 4, label),)))
    return sentences


def toy_config(**overrides):
    base = dict(
        window=12, heads=2, model_dim=16, ff_dim=32, label_count=2,
        epochs=20, batch_size=32, seed=0, use_mask=False,
    )
    base.update(overrides)
    return ClassifierConfig(**base)


def small_batch(seed=5):
    config = ClassifierConfig(
        window=10, heads=2, model_dim=8, ff_dim=16, label_count=4, seed=3
    )
    params = init_params(config, vocab_size=20, rng=np.random.default_rng(3))
    rng = np.random.default_rng(seed)
    ids = rng.integers(2, 20, size=(4, 10))
    ids[:, -2:] = PAD_ID
    nsw = np.zeros((4, 10), dtype=bool)
    nsw[:, 3:6] = True
    legal = np.ones((4, 4), dtype=bool)
    legal[0, 2:] = False
    targets = np.asarray([1, 1, 2, 3])
    return config, params, TrainingBatch(ids, nsw, legal, targets)


class TestTraining:
    def test_separable_corpus_reaches_full_accuracy(self):
        result = train(separable_corpus(), toy_config())
        assert result.history[-1]["accuracy"] == 1.0
        assert len(result.history) == 20

    def test_same_seed_identical_outcome(self):
        a = train(separable_corpus(), toy_config(epochs=4))
        b = train(separable_corpus(), toy_config(epochs=4))
        assert a.history[-1]["loss"] == b.history[-1]["loss"]
        for name, tensor in a.params.tensors().items():
            assert np.array_equal(b.params.tensors()[name], tensor)

    def test_history_records_epoch_time_and_gradient_norm(self):
        corpus, config = separable_corpus(80), toy_config(epochs=3)
        lines = []
        result = train(corpus, config, log=lines.append)
        # the same steps, with no bookkeeping: one global L2 norm per step, before the step
        vocab = build_vocab(corpus)
        rng = np.random.default_rng(config.seed)
        params = init_params(config, vocab.size, rng)
        data = make_training_batch(corpus, vocab, config)
        optimizer = AdamState(params, config.learning_rate)
        for entry, line in zip(result.history, lines, strict=True):
            order = rng.permutation(len(data))
            losses, correct, norms = [], 0, []
            for start in range(0, len(data), config.batch_size):
                minibatch = data.take(order[start : start + config.batch_size])
                loss, grads, probs = batch_loss_and_grads(params, minibatch, config)
                norms.append(np.sqrt(sum((g * g).sum() for g in grads.values())))
                optimizer.step(params, grads)
                losses.append(loss * len(minibatch))
                correct += int((probs.argmax(axis=1) == minibatch.targets).sum())
            assert entry["loss"] == sum(losses) / len(data)
            assert entry["accuracy"] == correct / len(data)
            assert entry["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-12)
            assert len(norms) == 3 and np.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0.0
            assert 0.0 < entry["seconds"] < 60.0
            assert f"grad_norm {entry['grad_norm']:.4g}" in line
            assert line.endswith(f"  {entry['seconds']:.2f}s")
        for name, tensor in result.params.tensors().items():
            assert np.array_equal(params.tensors()[name], tensor), name

    def test_zero_epochs_returns_initialization(self):
        corpus = separable_corpus(50)
        config = toy_config(epochs=0)
        result = train(corpus, config)
        assert result.history == []
        vocab = build_vocab(corpus)
        expected = init_params(config, vocab.size, np.random.default_rng(config.seed))
        for name, tensor in result.params.tensors().items():
            assert np.array_equal(expected.tensors()[name], tensor)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], toy_config())

    def test_corpus_without_spans_rejected(self):
        with pytest.raises(ValueError, match="no NSW spans"):
            train([LabeledSentence("今天天气好", ())], ClassifierConfig(epochs=1))

    def test_label_outside_config_rejected(self):
        corpus = [LabeledSentence("共100人", (NSWSpan(1, 4, 7),))]
        with pytest.raises(ValueError, match="label_count"):
            train(corpus, toy_config())

    def test_illegal_label_rejected_before_any_step(self, monkeypatch):
        train_module = importlib.import_module("mtnorm.neural.train")
        steps = []
        monkeypatch.setattr(train_module.AdamState, "step", lambda *args: steps.append(1))
        # seven minibatches, so a check made per minibatch could step before it fails
        corpus = generate_synthetic_corpus(CorpusDistribution.default(), 200, seed=3)
        corpus.append(LabeledSentence("会议在10:30开始", (NSWSpan(3, 8, READ),)))
        config = toy_config(use_mask=True, label_count=len(DEFAULT_REGISTRY), epochs=1)
        with pytest.raises(ValueError, match="masked illegal for '10:30' in '会议在10:30开始'"):
            train(corpus, config)
        assert steps == []

    def test_negative_label_rejected(self):
        # a label of -1 would index the last label's legality mask and train toward it
        corpus = [LabeledSentence("共100人", (NSWSpan(1, 4, -1),))]
        with pytest.raises(ValueError, match=r"span label -1 outside \[0, 2\)"):
            train(corpus, toy_config())

    @pytest.mark.skipif(
        not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"),
        reason="the freed-memory thresholds are set on glibc only",
    )
    def test_later_epochs_take_no_fresh_pages(self):
        """Steps reuse the memory earlier steps freed instead of faulting in new pages."""
        config = toy_config(window=30, heads=8, model_dim=64, ff_dim=128, batch_size=64, epochs=4)
        faults = []

        def epoch_done(_msg):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        train(separable_corpus(256), config, log=epoch_done)
        # Each of these 8 steps churns about 6 MB, some 1500 pages if returned to the OS.
        assert faults[-1] - faults[1] < 100

    def test_nan_loss_aborts_with_diagnostics(self, monkeypatch):
        train_module = importlib.import_module("mtnorm.neural.train")
        real_init = train_module.init_params

        def nan_init(*args):
            params = real_init(*args)
            params.embedding[:] = np.nan
            return params

        monkeypatch.setattr(train_module, "init_params", nan_init)
        corpus = [
            LabeledSentence(f"编号{i:03d}确认", (NSWSpan(2, 5, i % 2),)) for i in range(32)
        ]
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(corpus, toy_config(epochs=2))


class TestBatchLoss:
    def test_half_probability_closed_form(self):
        # zeroed classifier + two legal labels force p(target) = 0.5 exactly
        config, params, _ = small_batch()
        params.cls_w[:] = 0.0
        params.cls_b[:] = 0.0
        ids = np.asarray([[2, 3, 4, 5, 1, 1, 1, 1, 1, 1]])
        nsw = np.zeros((1, 10), dtype=bool)
        nsw[0, 1:3] = True
        legal = np.asarray([[True, True, False, False]])
        batch = TrainingBatch(ids, nsw, legal, np.asarray([0]))
        assert batch_loss_and_grads(params, batch, config)[0] == pytest.approx(0.021660849392498, abs=1e-9)

    def test_ce_configuration_is_mean_nll(self):
        config, params, batch = small_batch()
        ce = replace(config, alpha=1.0, gamma=0.0)
        loss, _, probs = batch_loss_and_grads(params, batch, ce)
        p = probs[np.arange(4), batch.targets]
        assert loss == pytest.approx(float(-np.log(p).mean()), abs=1e-12)

    def test_perfectly_confident_batch_is_zero(self):
        config, params, _ = small_batch()
        ids = np.asarray([[2, 3, 4, 5, 1, 1, 1, 1, 1, 1]])
        nsw = np.zeros((1, 10), dtype=bool)
        nsw[0, 1:3] = True
        legal = np.zeros((1, 4), dtype=bool)
        legal[0, 2] = True  # single legal label: p = 1
        batch = TrainingBatch(ids, nsw, legal, np.asarray([2]))
        assert batch_loss_and_grads(params, batch, config)[0] < 1e-25

    def test_illegal_target_rejected(self):
        corpus = [LabeledSentence("会议在10:30开始", (NSWSpan(3, 8, READ),))]
        vocab = build_vocab(corpus)
        config = toy_config(use_mask=True, label_count=len(DEFAULT_REGISTRY))
        with pytest.raises(
            ValueError, match="A_Read_No_Zero is masked illegal for '10:30' in '会议在10:30开始'"
        ):
            make_training_batch(corpus, vocab, config)
        # unmasked, every label in range is a legal target
        batch = make_training_batch(corpus, vocab, replace(config, use_mask=False))
        assert batch.targets.tolist() == [READ]
        assert batch.legal_masks.all()

    @pytest.mark.parametrize("target", [-1, -4, 4])
    def test_target_outside_label_range_rejected(self, target):
        # a negative label would index the mask from its end and train toward another label
        corpus = [LabeledSentence("共100人", (NSWSpan(1, 4, target),))]
        vocab = build_vocab(corpus)
        for use_mask in (False, True):
            config = toy_config(label_count=4, use_mask=use_mask)
            with pytest.raises(
                ValueError, match=rf"span label {target} outside \[0, 4\) .*'100' in '共100人'"
            ):
                make_training_batch(corpus, vocab, config)


class TestGradients:
    def test_gradient_check_small_dims(self):
        config, params, batch = small_batch()
        assert gradient_check(params, batch, config, coords_per_tensor=6) <= 1e-3

    def test_gradient_check_ragged_nsw_rows(self):
        # NSW counts 1, 2, 3, 9 and the full window: every short window has
        # padded query rows, and the 9-row one covers a pad position
        config, params, _ = small_batch()
        rng = np.random.default_rng(9)
        ids = rng.integers(2, 20, size=(5, 10))
        ids[:4, -2:] = PAD_ID
        nsw = np.zeros((5, 10), dtype=bool)
        for row, (start, count) in enumerate(((4, 1), (0, 2), (6, 3), (0, 9), (0, 10))):
            nsw[row, start : start + count] = True
        legal = np.ones((5, 4), dtype=bool)
        legal[1, :2] = False
        batch = TrainingBatch(ids, nsw, legal, np.asarray([1, 2, 0, 3, 2]))
        assert gradient_check(params, batch, config, coords_per_tensor=8) <= 1e-3

    def test_first_order_taylor(self):
        config, params, batch = small_batch()
        loss0, grads, _ = batch_loss_and_grads(params, batch, config)
        delta = 1e-5
        g = grads["ff_w1"][2, 3]
        params.ff_w1[2, 3] += delta
        loss1 = batch_loss_and_grads(params, batch, config)[0]
        assert loss1 - loss0 == pytest.approx(g * delta, rel=1e-3, abs=1e-12)

    def test_symmetric_labels_get_symmetric_gradients(self):
        config, params, _ = small_batch()
        params.cls_w[:] = 0.0
        params.cls_b[:] = 0.0
        ids = np.asarray([[2, 3, 4, 5, 6, 7, 1, 1, 1, 1]])
        nsw = np.zeros((1, 10), dtype=bool)
        nsw[0, 2:4] = True
        legal = np.asarray([[True, True, True, False]])
        batch = TrainingBatch(ids, nsw, legal, np.asarray([0]))
        _, grads, _ = batch_loss_and_grads(params, batch, config)
        # the two equally-probable non-target labels receive identical updates
        assert np.allclose(grads["cls_w"][:, 1], grads["cls_w"][:, 2])
        assert grads["cls_b"][1] == pytest.approx(grads["cls_b"][2])


class TestOneLabelRows:
    """Rows with one legal label skip the forward and backward pass and change nothing."""

    @staticmethod
    def all_rows_reference(params, batch, config):
        """Loss, gradients and probabilities with every row through the encoder."""
        encoder = FrozenEncoder.freeze(params, np.float64)
        probs, cache = forward_batch(encoder, batch.ids, batch.nsw_masks, batch.legal_masks)
        rows = np.arange(len(batch))
        p_target = probs[rows, batch.targets]
        loss = float(focal_loss_vec(p_target, config.alpha, config.gamma).mean())
        dp = focal_loss_grad(p_target, config.alpha, config.gamma) / len(batch)
        onehot = np.zeros_like(probs)
        onehot[rows, batch.targets] = 1.0
        dlogits = (dp * p_target)[:, None] * (onehot - probs)
        return loss, backward_batch(params, cache, dlogits), probs

    def test_mixed_batch_matches_all_rows(self, forward_calls):
        config, params, _ = small_batch()
        rng = np.random.default_rng(12)
        ids = rng.integers(2, 20, size=(6, 10))
        ids[:, -2:] = PAD_ID
        nsw = np.zeros((6, 10), dtype=bool)
        for row, (start, count) in enumerate(((4, 1), (0, 2), (2, 4), (1, 8), (5, 3), (3, 2))):
            nsw[row, start : start + count] = True
        targets = np.asarray([1, 2, 0, 3, 2, 1])
        legal = np.ones((6, 4), dtype=bool)
        one_label = np.asarray([False, True, False, True, True, False])
        legal[one_label] = np.eye(4, dtype=bool)[targets[one_label]]
        batch = TrainingBatch(ids, nsw, legal, targets)
        loss, grads, probs = batch_loss_and_grads(params, batch, config)
        # the ambiguous rows' NSW counts, sorted and split where that saves padding
        assert forward_calls == [[1, 2], [4]]
        assert np.array_equal(probs[one_label], legal[one_label].astype(np.float64))
        want_loss, want_grads, want_probs = self.all_rows_reference(params, batch, config)
        assert loss == pytest.approx(want_loss, rel=0.0, abs=1e-12)
        assert np.abs(probs - want_probs).max() <= 1e-12
        for name, grad in want_grads.items():
            assert grads[name].shape == grad.shape
            assert np.abs(grads[name] - grad).max() <= 1e-12, name
        assert np.abs(grads["embedding"]).max() > 0.0

    def test_all_one_label_batch_runs_no_forward(self, forward_calls):
        config, params, batch = small_batch()
        batch.legal_masks[:] = np.eye(4, dtype=bool)[batch.targets]
        loss, grads, probs = batch_loss_and_grads(params, batch, config)
        assert forward_calls == []
        assert np.array_equal(probs, batch.legal_masks.astype(np.float64))
        assert loss < 1e-25
        for name, tensor in params.tensors().items():
            assert grads[name].shape == tensor.shape
            assert not grads[name].any()

    def test_all_one_label_corpus_still_steps(self, monkeypatch, forward_calls):
        # every span is a percentage, whose only legal label is B_Percent
        train_module = importlib.import_module("mtnorm.neural.train")
        real_step = train_module.AdamState.step
        steps = []

        def counting_step(self, params, grads):
            real_step(self, params, grads)
            steps.append(self.step_count)

        monkeypatch.setattr(train_module.AdamState, "step", counting_step)
        percent = DEFAULT_REGISTRY.id_of("B_Percent")
        corpus = [
            LabeledSentence(f"只有{i}%的学生", (NSWSpan(2, 3 + len(str(i)), percent),))
            for i in range(40)
        ]
        config = toy_config(use_mask=True, label_count=len(DEFAULT_REGISTRY), epochs=2)
        result = train(corpus, config)
        assert forward_calls == []
        assert steps == [1, 2, 3, 4]  # two minibatches of at most 32, two epochs
        assert [entry["accuracy"] for entry in result.history] == [1.0, 1.0]


class TestTrainingProjection:
    """Training projects through the same tables as inference, frozen in float64."""

    @staticmethod
    def ragged_batch():
        config, params, _ = small_batch()
        rng = np.random.default_rng(11)
        ids = rng.integers(2, 20, size=(4, 10))
        ids[:, -3:] = PAD_ID
        nsw = np.zeros((4, 10), dtype=bool)
        for row, (start, count) in enumerate(((5, 1), (0, 2), (2, 4), (0, 10))):
            nsw[row, start : start + count] = True
        batch = TrainingBatch(ids, nsw, np.ones((4, 4), dtype=bool), np.asarray([0, 1, 2, 3]))
        return config, params, batch

    def test_one_projection_on_float64_tables(self, monkeypatch):
        config, params, batch = self.ragged_batch()
        real_project = FrozenEncoder.project
        dtypes = []

        def recording_project(self, *args):
            dtypes.append((self.query_chars.dtype, self.kv_chars.dtype, self.attn_out.dtype))
            return real_project(self, *args)

        monkeypatch.setattr(FrozenEncoder, "project", recording_project)
        batch_loss_and_grads(params, batch, config)
        assert dtypes == [(np.float64, np.float64, np.float64)] * 2  # one per split part


    def test_gradient_check_split_batch(self):
        config, params, batch = self.ragged_batch()
        counts = batch.nsw_masks.sum(axis=1)
        assert [counts[part].tolist() for part in _split_by_nsw_count(counts)] == [[1, 2, 4], [10]]
        # one character at query rows and key positions of both parts
        batch.ids[0, 5] = batch.ids[1, 4] = batch.ids[2, 8] = batch.ids[3, 0] = batch.ids[3, 6] = 7
        # every coordinate of every tensor, the repeated character's embedding row included
        assert gradient_check(params, batch, config, coords_per_tensor=200) <= 1e-3


class TestSplitByNSWCount:
    """Ambiguous rows run in at most two forward calls, cut where that pads the fewest rows.

    A call runs at least two query rows per window, so a window costs ``max(count, 2)``.
    """

    @staticmethod
    def padded_rows(counts, parts):
        return sum(len(part) * max(counts[part].max(), 2) for part in parts)

    @pytest.mark.parametrize(
        "counts", [[3], [3, 3, 3], [5] * 64, [1, 1], [4, 4, 4, 4, 4], [1, 1, 2]]
    )
    def test_uniform_counts_give_one_part(self, counts):
        parts = _split_by_nsw_count(np.asarray(counts))
        assert [part.tolist() for part in parts] == [list(range(len(counts)))]

    def test_cut_before_the_largest_count(self):
        parts = _split_by_nsw_count(np.asarray([10, 1, 4, 2]))
        assert [part.tolist() for part in parts] == [[1, 3, 2], [0]]

    def test_random_counts(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            counts = rng.integers(1, int(rng.integers(2, 31)), size=int(rng.integers(1, 65)))
            parts = _split_by_nsw_count(counts)
            assert 1 <= len(parts) <= 2
            joined = np.concatenate(parts)
            assert sorted(joined.tolist()) == list(range(len(counts)))  # each row exactly once
            assert np.all(np.diff(counts[joined]) >= 0)  # sorted, across and within parts
            # the stable order: rows of equal count keep their input order
            assert joined.tolist() == np.argsort(counts, kind="stable").tolist()
            sorted_counts = np.maximum(np.sort(counts), 2)
            n = len(counts)
            best = min(
                [n * sorted_counts[-1]]
                + [i * sorted_counts[i - 1] + (n - i) * sorted_counts[-1] for i in range(1, n)]
            )
            assert self.padded_rows(counts, parts) == best
            if len(parts) == 1:
                assert best == n * sorted_counts[-1]  # no cut saves a row
            else:
                assert best < n * sorted_counts[-1]


class TestAdam:
    def test_in_place_update_matches_formula_bit_for_bit(self):
        _, params, _ = small_batch()
        reference = params.copy()
        optimizer = AdamState(params, 1e-3)
        m = {name: np.zeros_like(t) for name, t in reference.tensors().items()}
        v = {name: np.zeros_like(t) for name, t in reference.tensors().items()}
        rng = np.random.default_rng(6)
        for step in range(1, 6):
            grads = {name: rng.normal(size=t.shape) for name, t in reference.tensors().items()}
            optimizer.step(params, grads)
            for name, tensor in reference.tensors().items():
                g = grads[name]
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                m_hat = m[name] / (1.0 - 0.9**step)
                v_hat = v[name] / (1.0 - 0.999**step)
                tensor -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for name, tensor in reference.tensors().items():
                assert np.array_equal(params.tensors()[name], tensor), name
                assert np.array_equal(optimizer.m[name], m[name]), name
                assert np.array_equal(optimizer.v[name], v[name]), name


class TestBatchAssembly:
    def test_shapes_and_masks(self):
        corpus = separable_corpus(20)
        config = toy_config(use_mask=True, label_count=11)
        vocab = build_vocab(corpus)
        batch = make_training_batch(corpus, vocab, config)
        assert batch.ids.shape == (20, config.window)
        assert batch.legal_masks.shape == (20, 11)
        assert batch.nsw_masks.sum(axis=1).min() == 4

    def test_windows_follow_corpus_and_span_order(self):
        corpus = [
            LabeledSentence("甲方12与乙方345", (NSWSpan(2, 4, 0), NSWSpan(7, 10, 1))),
            LabeledSentence("无", ()),
            LabeledSentence("6号", (NSWSpan(0, 1, 1),)),
        ]
        config = toy_config(window=5)
        vocab = build_vocab(corpus)
        batch = make_training_batch(corpus, vocab, config)
        want = [
            reference_window(s.text, span.start, span.end, 5) for s in corpus for span in s.spans
        ]
        assert batch.ids.tolist() == [[vocab.id_of(ch) for ch in chars] for chars, _ in want]
        assert batch.nsw_masks.tolist() == [list(mask) for _, mask in want]
        assert batch.targets.tolist() == [0, 1, 1]

    def test_no_spans_gives_empty_windows(self):
        corpus = [LabeledSentence("今天天气好", ())]
        config = toy_config()
        vocab = build_vocab(corpus)
        for data in (corpus, []):
            batch = make_training_batch(data, vocab, config)
            assert len(batch) == 0
            assert batch.ids.shape == batch.nsw_masks.shape == (0, config.window)

    def test_unlabeled_span_rejected(self):
        corpus = [LabeledSentence("共100人", (NSWSpan(1, 4, None),))]
        vocab = build_vocab(corpus)
        for use_mask in (False, True):
            config = toy_config(use_mask=use_mask, label_count=len(DEFAULT_REGISTRY))
            with pytest.raises(ValueError, match="unlabeled span '100' in '共100人'"):
                make_training_batch(corpus, vocab, config)


class TestPredictBatch:
    def test_mixed_nsw_counts_match_windows_run_alone(self):
        config = ClassifierConfig(window=12, heads=2, model_dim=16, ff_dim=32, label_count=5)
        rng = np.random.default_rng(8)
        params = init_params(config, vocab_size=20, rng=rng)
        for tensor in params.tensors().values():
            tensor[...] = rng.normal(scale=0.7, size=tensor.shape)
        n = 50
        ids = rng.integers(2, 20, size=(n, 12))
        ids[:, :2] = PAD_ID
        nsw = np.zeros((n, 12), dtype=bool)
        for row, count in enumerate(rng.integers(1, 11, size=n)):
            nsw[row, 2 : 2 + count] = True
        legal = rng.random((n, 5)) < 0.6
        legal[:, 0] = True
        data = TrainingBatch(ids, nsw, legal, np.zeros(n, dtype=np.int64))
        predicted = predict_batch(params, data, config)
        encoder = FrozenEncoder.freeze(params, np.float64)
        alone = []
        for i in range(n):
            one = slice(i, i + 1)
            probs, _ = forward_batch(encoder, ids[one], nsw[one], legal[one])
            alone.append(int(probs.argmax()))
        assert predicted.tolist() == alone
        assert len(set(predicted.tolist())) > 1
