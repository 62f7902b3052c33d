import json
import random
import sys
from dataclasses import asdict, replace

import pytest

from oracles import confusion_matrix_metrics

from mtnorm import evaluate as ev
from mtnorm import pipeline
from mtnorm.corpus import (
    CorpusDistribution,
    CorpusError,
    LabeledSentence,
    NSWSpan,
    generate_synthetic_corpus,
)
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import ClassifierConfig, train

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


class TestGolden:
    def test_build_and_reload(self, tmp_path):
        corpus = generate_synthetic_corpus(DIST, 30, seed=42)
        golden = ev.build_golden(corpus)
        assert [sentence for sentence, _ in golden] == corpus
        path = tmp_path / "golden.jsonl"
        ev.save_golden(golden, str(path))
        assert ev.load_golden(str(path)) == golden
        first = json.loads(path.read_text("utf-8").splitlines()[0])
        assert list(first) == ["input", "reference", "spans"]

    def test_reference_has_no_nsw(self):
        from mtnorm.extractor import extract_nsw

        for _, reference in ev.build_golden(generate_synthetic_corpus(DIST, 50, seed=43)):
            assert extract_nsw(reference) == []

    def test_bad_golden_line(self, tmp_path):
        # every fault is a CorpusError naming the file and line, raised by the loader
        ok = '{"input": "共3人", "reference": "共三人", "spans": [[1, 2, "A_Read_No_Zero"]]}'
        bad_lines = [
            '{"input": "只有输入"}',
            "[1, 2]",
            "not json",
            '{"input": 5, "reference": "五"}',
            '{"input": "共3人", "reference": 3}',
            '{"input": "共3人", "reference": "共三人", "spans": "1-2"}',
            '{"input": "共3人", "reference": "共三人", "spans": [[1, 2]]}',
            '{"input": "共3人", "reference": "共三人", "spans": [[1, 2, "No_Such_Label"]]}',
            '{"input": "共3人", "reference": "共三人", "spans": [[1, 2.0, "A_Read_No_Zero"]]}',
            '{"input": "共3人", "reference": "共三人", "spans": [[1, 9, "A_Read_No_Zero"]]}',
        ]
        path = tmp_path / "golden.jsonl"
        for bad in bad_lines:
            path.write_text(f"{ok}\n\n{bad}\n", encoding="utf-8")
            with pytest.raises(CorpusError, match=r"golden\.jsonl:3: "):
                ev.load_golden(str(path))

    def test_gold_surfaces_not_shape_checked(self, tmp_path):
        # a per-unit gold span loads, though the extractor never produces it
        path = tmp_path / "golden.jsonl"
        path.write_text(
            '{"input": "每天5人/组", "reference": "每天五人每组", "spans": [[2, 6, "B_Slash_Per"]]}\n'
            '{"input": "共＃人", "reference": "共＃人", "spans": [[1, 2, "A_Read_No_Zero"]]}\n',
            encoding="utf-8",
        )
        [(per_unit, _), (symbol, _)] = ev.load_golden(str(path))
        assert per_unit.surface(per_unit.spans[0]) == "5人/组"
        assert symbol.surface(symbol.spans[0]) == "＃"

    def test_evaluate_golden_reports_both_systems(self, tiny_system):
        corpus = generate_synthetic_corpus(DIST, 60, seed=44)
        report = ev.evaluate_golden(ev.build_golden(corpus), tiny_system)
        assert 0.0 <= report.rules_sentence_accuracy <= 1.0
        assert 0.0 <= report.hybrid_sentence_accuracy <= 1.0
        assert report.per_label
        text = ev.format_golden_report(report)
        assert "rule-based baseline" in text and "hybrid system" in text

    def test_unextracted_gold_spans_counted_not_scored(self, rules_system):
        # the extractor stops at Han characters, so it finds 5, not 5人/组
        per_unit = LabeledSentence(
            "每天5人/组，共3人",
            (
                NSWSpan(2, 6, DEFAULT_REGISTRY.id_of("B_Slash_Per")),
                NSWSpan(8, 9, DEFAULT_REGISTRY.id_of("A_Read_No_Zero")),
            ),
        )
        golden = [(per_unit, ev.reference_sfw(per_unit))]
        report = ev.evaluate_golden(golden, rules_system)
        assert report.unextracted_gold_spans == 1
        assert report.per_label["B_Slash_Per"].support == 0
        assert sum(m.support for m in report.per_label.values()) == 1
        assert "no extracted span matches (not scored): 1" in ev.format_golden_report(report)
        records = ev.golden_report_records(report)
        assert {"record": "unextracted_gold_spans", "count": 1} in records


class TestAblation:
    BASE = ClassifierConfig(
        model_dim=16, heads=2, ff_dim=32, label_count=len(DEFAULT_REGISTRY),
        epochs=1, batch_size=32,
    )

    @pytest.fixture(scope="class")
    def golden(self):
        return ev.build_golden(generate_synthetic_corpus(DIST, 100, seed=50))

    def test_grid_of_one(self, golden, rules_system):
        corpus = generate_synthetic_corpus(DIST, 150, seed=45)
        results = ev.run_ablation(
            [{"name": "only"}], corpus, golden, rules_system, seed=2, base_config=self.BASE
        )
        [(name, report)] = results
        assert name == "only" and isinstance(report, ev.GoldenReport)
        assert 0.0 <= report.hybrid_sentence_accuracy <= 1.0

    def test_identical_runs_identical_rows(self, golden, rules_system):
        corpus = generate_synthetic_corpus(DIST, 150, seed=46)
        grid = [{"name": "a"}, {"name": "a_again"}]
        [(_, a), (_, b)] = ev.run_ablation(
            grid, corpus, golden, rules_system, seed=2, base_config=self.BASE
        )
        assert asdict(a) == asdict(b)

    def test_ablate_is_train_then_evaluate(self, golden, rules_system):
        corpus = generate_synthetic_corpus(DIST, 300, seed=49)
        grid = [
            {"name": "proposed"},
            {"name": "ce_loss", "alpha": 1.0, "gamma": 0.0},
            {"name": "seed_1", "seed": 1},
        ]
        results = ev.run_ablation(
            grid, corpus, golden, rules_system, seed=2, base_config=self.BASE
        )
        texts = [sentence.text for sentence, _ in golden]
        rules_outputs = [out for out, _ in pipeline.normalize_many(texts, rules_system)]
        rules_accuracy = ev.sentence_accuracy(
            [(out, ref) for out, (_, ref) in zip(rules_outputs, golden)]
        )
        assert [name for name, _ in results] == ["proposed", "ce_loss", "seed_1"]
        for (_, report), entry in zip(results, grid):
            overrides = {"seed": 2, **{k: v for k, v in entry.items() if k != "name"}}
            config = replace(self.BASE, **overrides)
            result = train(corpus, config)
            system = replace(
                rules_system, params=result.params, config=config, vocab=result.vocab
            )
            assert asdict(report) == asdict(ev.evaluate_golden(golden, system))
            assert report.rules_sentence_accuracy == rules_accuracy

    def test_failed_row_keeps_running(self, golden, rules_system):
        corpus = generate_synthetic_corpus(DIST, 120, seed=47)
        grid = [{"name": "broken", "heads": 7}, {"name": "fine"}]
        [(_, broken), (_, fine)] = ev.run_ablation(
            grid, corpus, golden, rules_system, seed=2, base_config=self.BASE
        )
        assert broken == "model_dim must be divisible by heads"
        assert isinstance(fine, ev.GoldenReport)

    @pytest.mark.parametrize(
        "override, error",
        [
            ({"window": True}, "window must be int, not True"),
            ({"window": "12"}, "window must be int, not '12'"),
            ({"window": 12.9}, "window must be int, not 12.9"),
            ({"expand": "no"}, "expand must be true or false, not 'no'"),
        ],
        ids=["window-bool", "window-str", "window-float", "expand-str"],
    )
    def test_grid_values_keep_config_type_checks(
        self, monkeypatch, rules_system, override, error
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on an ill-typed grid entry")

        monkeypatch.setattr(ev, "train", no_training)
        corpus = generate_synthetic_corpus(DIST, 20, seed=51)
        [(_, report)] = ev.run_ablation(
            [{"name": "bad", **override}], corpus, [], rules_system, seed=2,
            base_config=self.BASE,
        )
        assert report == error

    def test_registry_reaches_training_masks(self, golden, rules_system, monkeypatch):
        # the training batch takes its legality masks from the label table
        batches = []
        module = sys.modules["mtnorm.neural.train"]
        real = module.make_training_batch

        def spy(corpus, vocab, config):
            batch = real(corpus, vocab, config)
            batches.append((corpus, batch))
            return batch

        monkeypatch.setattr(module, "make_training_batch", spy)
        corpus = generate_synthetic_corpus(DIST, 120, seed=48)
        [(_, report)] = ev.run_ablation(
            [{"name": "only"}], corpus, golden, rules_system, seed=2, base_config=self.BASE
        )
        assert isinstance(report, ev.GoldenReport)
        assert len(batches) == 1
        for sentences, batch in batches:
            want = [DEFAULT_REGISTRY.legal_labels(s.surface(span))
                    for s in sentences for span in s.spans]
            assert batch.legal_masks.tolist() == want

    def test_default_grid_covers_spec_rows(self):
        names = {entry["name"] for entry in ev.ABLATION_GRID}
        assert names == {
            "proposed", "max_window", "ce_loss", "no_mask", "data_expansion"
        }
