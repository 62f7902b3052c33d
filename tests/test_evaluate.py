import random
import sys

import pytest

from oracles import confusion_matrix_metrics

from mtnorm import evaluate as ev
from mtnorm.corpus import CorpusDistribution, generate_synthetic_corpus
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import ClassifierConfig

DIST = CorpusDistribution.default()


def pairs_from_matrix(matrix):
    pairs = []
    for gold, row in enumerate(matrix):
        for pred, count in enumerate(row):
            pairs.extend([(gold, pred)] * count)
    return pairs


class TestPatternMetrics:
    def test_all_correct(self):
        pairs = [(i % 3, i % 3) for i in range(30)]
        per_label, accuracy = ev.pattern_metrics(pairs)
        assert accuracy == 1.0
        for lab in DEFAULT_REGISTRY:
            if lab.id < 3:
                m = per_label[lab.name]
                assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_confusion_matrix(self):
        matrix = [[5, 1, 0], [0, 4, 2], [1, 0, 7]]
        pairs = pairs_from_matrix(matrix)
        per_label, accuracy = ev.pattern_metrics(pairs)
        assert accuracy == pytest.approx(16 / 20)
        m0 = per_label[DEFAULT_REGISTRY.by_id(0).name]
        assert m0.precision == pytest.approx(5 / 6)
        assert m0.recall == pytest.approx(5 / 6)
        m1 = per_label[DEFAULT_REGISTRY.by_id(1).name]
        assert m1.precision == pytest.approx(4 / 5)
        assert m1.recall == pytest.approx(4 / 6)
        m2 = per_label[DEFAULT_REGISTRY.by_id(2).name]
        assert m2.precision == pytest.approx(7 / 9)
        assert m2.recall == pytest.approx(7 / 8)

    def test_equal_precision_recall_gives_equal_f1(self):
        # P = R = 233/250 = 0.932 exactly, so F1 = 0.932 as well
        pairs = [(0, 0)] * 233 + [(0, 1)] * 17 + [(1, 0)] * 17 + [(1, 1)] * 233
        per_label, _ = ev.pattern_metrics(pairs)
        m = per_label[DEFAULT_REGISTRY.by_id(0).name]
        assert m.precision == pytest.approx(0.932)
        assert m.recall == pytest.approx(0.932)
        assert m.f1 == pytest.approx(0.932)

    def test_zero_denominators_are_zero(self):
        pairs = [(0, 1), (0, 1)]
        per_label, accuracy = ev.pattern_metrics(pairs)
        m0 = per_label[DEFAULT_REGISTRY.by_id(0).name]
        assert m0.precision == 0.0 and m0.recall == 0.0 and m0.f1 == 0.0
        assert accuracy == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ev.pattern_metrics([])

    def test_matches_brute_force_oracle(self):
        rng = random.Random(77)
        for _ in range(50):
            n_labels = rng.randint(2, 6)
            pairs = [
                (rng.randrange(n_labels), rng.randrange(n_labels))
                for _ in range(rng.randint(1, 100))
            ]
            per_label, accuracy = ev.pattern_metrics(pairs)
            oracle_labels, oracle_acc, matrix = confusion_matrix_metrics(pairs, n_labels)
            assert accuracy == pytest.approx(oracle_acc)
            trace = sum(matrix[i][i] for i in range(n_labels))
            assert accuracy == pytest.approx(trace / sum(map(sum, matrix)))
            for lab in range(n_labels):
                m = per_label[DEFAULT_REGISTRY.by_id(lab).name]
                assert (m.precision, m.recall, m.f1) == pytest.approx(oracle_labels[lab])

    def test_f1_bounds_property(self):
        rng = random.Random(78)
        for _ in range(50):
            pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(60)]
            per_label, _ = ev.pattern_metrics(pairs)
            for m in per_label.values():
                assert m.f1 <= 2 * min(m.precision, m.recall) + 1e-12
                assert m.f1 <= max(m.precision, m.recall) + 1e-12


class TestSentenceAccuracy:
    def test_identical_pairs(self):
        assert ev.sentence_accuracy([("一样", "一样")] * 5) == 1.0

    def test_one_character_differs(self):
        pairs = [("对的", "对的")] * 3 + [("对了", "对的")]
        assert ev.sentence_accuracy(pairs) == 0.75

    def test_no_normalization_applied(self):
        assert ev.sentence_accuracy([("a b", "a  b")]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.sentence_accuracy([])


class TestSplit:
    def test_deterministic_80_10_10(self):
        corpus = generate_synthetic_corpus(DIST, 500, seed=41)
        a1, b1, c1 = ev.split_corpus(corpus, seed=9)
        a2, b2, c2 = ev.split_corpus(corpus, seed=9)
        assert (a1, b1, c1) == (a2, b2, c2)
        assert len(a1) == 400 and len(b1) == 50 and len(c1) == 50
        assert sorted(s.text for s in a1 + b1 + c1) == sorted(s.text for s in corpus)


class TestGolden:
    def test_build_and_reload(self, tmp_path):
        corpus = generate_synthetic_corpus(DIST, 30, seed=42)
        records = ev.build_golden(corpus)
        path = tmp_path / "golden.jsonl"
        ev.save_records(records, str(path))
        assert ev.load_golden(str(path)) == records

    def test_reference_has_no_nsw(self):
        from mtnorm.extractor import extract_nsw

        for record in ev.build_golden(generate_synthetic_corpus(DIST, 50, seed=43)):
            assert extract_nsw(record["reference"]) == []

    def test_bad_golden_line(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        path.write_text('{"input": "只有输入"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="golden"):
            ev.load_golden(str(path))

    def test_evaluate_golden_reports_both_systems(self, tiny_system):
        corpus = generate_synthetic_corpus(DIST, 60, seed=44)
        report = ev.evaluate_golden(ev.build_golden(corpus), tiny_system)
        assert 0.0 <= report.rules_sentence_accuracy <= 1.0
        assert 0.0 <= report.hybrid_sentence_accuracy <= 1.0
        assert report.per_label
        text = ev.format_golden_report(report)
        assert "rule-based baseline" in text and "hybrid system" in text


class TestAblation:
    BASE = ClassifierConfig(
        model_dim=16, heads=2, ff_dim=32, label_count=len(DEFAULT_REGISTRY),
        epochs=1, batch_size=32,
    )

    def test_grid_of_one(self):
        corpus = generate_synthetic_corpus(DIST, 150, seed=45)
        rows = ev.run_ablation([{"name": "only"}], corpus, seed=2, base_config=self.BASE)
        assert len(rows) == 1
        assert rows[0].error is None
        assert 0.0 <= rows[0].accuracy <= 1.0

    def test_identical_runs_identical_rows(self):
        corpus = generate_synthetic_corpus(DIST, 150, seed=46)
        grid = [{"name": "a"}, {"name": "a_again"}]
        rows = ev.run_ablation(grid, corpus, seed=2, base_config=self.BASE)
        assert rows[0].accuracy == rows[1].accuracy
        assert rows[0].rare_recall == rows[1].rare_recall

    def test_failed_row_keeps_running(self):
        corpus = generate_synthetic_corpus(DIST, 120, seed=47)
        grid = [{"name": "broken", "heads": 7}, {"name": "fine"}]
        rows = ev.run_ablation(grid, corpus, seed=2, base_config=self.BASE)
        assert rows[0].error is not None and rows[0].accuracy is None
        assert rows[1].error is None
        table = ev.format_ablation_rows(rows)
        assert "failed" in table

    def test_registry_reaches_training_and_held_out_masks(self, monkeypatch):
        # both the training and the held-out batch take their legality masks
        # from the label table
        batches = []
        real = ev.make_training_batch

        def spy(corpus, vocab, config):
            batch = real(corpus, vocab, config)
            batches.append((corpus, batch))
            return batch

        monkeypatch.setattr(ev, "make_training_batch", spy)
        monkeypatch.setattr(sys.modules["mtnorm.neural.train"], "make_training_batch", spy)
        corpus = generate_synthetic_corpus(DIST, 120, seed=48)
        rows = ev.run_ablation([{"name": "only"}], corpus, seed=2, base_config=self.BASE)
        assert rows[0].error is None
        assert len(batches) == 2
        for sentences, batch in batches:
            want = [DEFAULT_REGISTRY.legal_labels(s.surface(span))
                    for s in sentences for span in s.spans]
            assert batch.legal_masks.tolist() == want

    def test_default_grid_covers_spec_rows(self):
        names = {entry["name"] for entry in ev.ABLATION_GRID}
        assert names == {
            "proposed", "max_window", "ce_loss", "no_mask", "data_expansion"
        }
