import json
import random
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from oracles import reference_window

from mtnorm.legality import FormatRegistry
from mtnorm.corpus import CorpusDistribution, LabeledSentence, generate_synthetic_corpus
from mtnorm.extractor import extract_nsw, priority_check
from mtnorm.labels import LabelRegistry
from mtnorm.neural import model
from mtnorm.rules import compile_rules, parse_rules
from mtnorm.pipeline import (
    ROUTE_FALLBACK,
    ROUTE_NEURAL,
    ROUTE_PRIORITY,
    ROUTE_UNMATCHED,
    HybridSystem,
    normalize,
    normalize_many,
    routing_stats,
    split_sentences,
    write_traces,
)

DIST = CorpusDistribution.default()
SHIPPED_RULES = str(resources.files("mtnorm").joinpath("data/rules.txt"))


def classify_alone(system, text, span, legal):
    """One span classified on its own: the oracle's window, one forward pass."""
    chars, mask = reference_window(text, span.start, span.end, system.config.window)
    ids = [[system.vocab.id_of(ch) for ch in chars]]
    probs = model.predict_probs(system.encoder, ids, [mask], [legal])[0]
    return probs, int(np.argmax(probs))


class TestRuleBaselineSentence:
    def test_mixed_time_and_score(self, rules_system):
        out, traces = normalize("比赛10:30开始，比分是30-10", rules_system)
        assert out == "比赛十点三十分开始，比分是三十比十"
        # neither surface is on the priority list, so both take the fallback
        assert [t.route for t in traces] == [ROUTE_FALLBACK, ROUTE_FALLBACK]


class TestNormalize:
    def test_no_nsw_is_identity(self, tiny_system):
        out, traces = normalize("大家好才是真的好", tiny_system)
        assert out == "大家好才是真的好"
        assert traces == []

    def test_priority_nsw_routed_to_rules(self, tiny_system):
        out, traces = normalize("遇到危险请拨打911求助", tiny_system)
        assert out == "遇到危险请拨打九幺幺求助"
        assert traces[0].route == ROUTE_PRIORITY
        assert traces[0].probabilities is None

    def test_spans_classified_against_original_context(self, tiny_system):
        text = "会议定于上午10:30开始，第三节结束时双方战成30-10"
        out, traces = normalize(text, tiny_system)
        assert len(traces) == 2
        # every decision must equal classifying that span against the raw
        # text in isolation (replacements never feed later classifications)
        for trace in traces:
            if trace.route != ROUTE_NEURAL:
                continue
            span = trace.span
            surface = text[span.start:span.end]
            legal = tiny_system.formats.legal_labels(surface)
            probs, label = classify_alone(tiny_system, text, span, legal)
            assert label == trace.label
            assert np.allclose(probs, trace.probabilities)

    def test_splice_equals_independent_reconstruction(self, tiny_system):
        for sentence in generate_synthetic_corpus(DIST, 150, seed=31):
            text = sentence.text
            out, traces = normalize(text, tiny_system)
            rebuilt = []
            cursor = 0
            for trace in traces:
                rebuilt.append(text[cursor:trace.span.start])
                rebuilt.append(
                    trace.sfw if trace.sfw is not None else text[trace.span.start:trace.span.end]
                )
                cursor = trace.span.end
            rebuilt.append(text[cursor:])
            assert "".join(rebuilt) == out

    def test_context_preserved(self, tiny_system):
        # every non-NSW character survives, in order, character for character
        for sentence in generate_synthetic_corpus(DIST, 150, seed=32):
            text = sentence.text
            out, traces = normalize(text, tiny_system)
            gaps = []
            cursor = 0
            for trace in traces:
                gaps.append(text[cursor:trace.span.start])
                cursor = trace.span.end
            gaps.append(text[cursor:])
            probe = out
            for gap in gaps:
                assert gap in probe
                probe = probe[probe.index(gap) + len(gap):]

    def test_idempotent_on_fully_normalized_output(self, tiny_system):
        for sentence in generate_synthetic_corpus(DIST, 80, seed=33):
            out, _ = normalize(sentence.text, tiny_system)
            if extract_nsw(out):
                continue
            again, traces = normalize(out, tiny_system)
            assert again == out
            assert traces == []

    def test_unextractable_decimal_falls_back_to_unmatched(self, tiny_system):
        out, traces = normalize("温度是25.3左右", tiny_system)
        assert out == "温度是25.3左右"
        assert traces[0].route == ROUTE_UNMATCHED
        assert traces[0].sfw is None

    def test_trace_route_evidence(self, tiny_system):
        for sentence in generate_synthetic_corpus(DIST, 100, seed=34):
            _, traces = normalize(sentence.text, tiny_system)
            for trace in traces:
                if trace.route == ROUTE_NEURAL:
                    assert trace.probabilities is not None
                    assert trace.sfw is not None and trace.label is not None
                if trace.route == ROUTE_UNMATCHED:
                    assert trace.sfw is None and trace.label is None

    def test_no_mask_config_exercises_fallback(self, tiny_system):
        loose = replace(tiny_system.config, use_mask=False)
        system = HybridSystem(
            rules=tiny_system.rules,
            priority=tiny_system.priority,
            params=tiny_system.params,
            config=loose,
            vocab=tiny_system.vocab,
            formats=tiny_system.formats,
        )
        routes = set()
        for sentence in generate_synthetic_corpus(DIST, 300, seed=35):
            _, traces = normalize(sentence.text, system)
            routes.update(t.route for t in traces)
            for trace in traces:
                if trace.label is not None:
                    surface = sentence.text[trace.span.start:trace.span.end]
                    assert system.formats.verify(surface, trace.label)
        assert ROUTE_NEURAL in routes

    def test_no_mask_illegal_choice_falls_back(self, tiny_system):
        # the unmasked classifier picks A_Two_Liang for 3; its reader would
        # say 两, but the label is not legal for 3, so the rules decide
        liang = tiny_system.formats.id_of("A_Two_Liang")
        params = tiny_system.params.copy()
        params.cls_w[:] = 0.0
        params.cls_b[:] = 0.0
        params.cls_b[liang] = 10.0
        loose = replace(tiny_system.config, use_mask=False)
        system = replace(tiny_system, params=params, config=loose)
        out, traces = normalize("共3人", system)
        assert out == "共三人"
        assert traces[0].route == ROUTE_FALLBACK
        assert int(np.argmax(traces[0].probabilities)) == liang


class TestSentenceBatching:
    """A sentence's forward passes (one per 16 ambiguous spans) decide as each span alone."""

    @staticmethod
    def classifier_spans(text, system, least=1):
        """Non-priority spans with at least ``least`` legal labels."""
        return [
            span for span in extract_nsw(text)
            if not priority_check(text[span.start:span.end], system.priority)
            and sum(system.formats.legal_labels(text[span.start:span.end])) >= least
        ]

    def test_one_forward_pass_per_sentence(self, tiny_system, monkeypatch):
        batches = []
        real_forward = model.forward_batch

        def counting_forward(encoder, ids, *rest):
            batches.append(len(ids))
            return real_forward(encoder, ids, *rest)

        monkeypatch.setattr(model, "forward_batch", counting_forward)
        sentences = [s.text for s in generate_synthetic_corpus(DIST, 1000, seed=38)]
        rng = random.Random(38)
        lines = []
        while len(lines) < 200:
            lines.append("，".join(rng.sample(sentences, rng.randint(2, 8))))
        long_line = "，".join(sentences[:40])
        assert len(self.classifier_spans(long_line, tiny_system, least=2)) > 16
        lines.append(long_line)
        mixed = "遇到危险请拨打911，会议定于上午10:30开始，总额1,000,000,000,000元"
        lines.append(mixed)

        for text in lines:
            before = len(batches)
            _, traces = normalize(text, tiny_system)
            expected = self.classifier_spans(text, tiny_system)
            # a span with one legal label is decided without a window
            windows = len(self.classifier_spans(text, tiny_system, least=2))
            chunks = range(0, windows, 16)
            assert batches[before:] == [min(16, windows - k) for k in chunks]
            classified = [t for t in traces if t.probabilities is not None]
            assert [t.span for t in classified] == expected
            for trace in classified:
                surface = text[trace.span.start:trace.span.end]
                legal = tiny_system.formats.legal_labels(surface)
                probs, label = classify_alone(tiny_system, text, trace.span, legal)
                assert np.allclose(trace.probabilities, probs, rtol=0.0, atol=1e-12)
                if trace.route == ROUTE_NEURAL:
                    assert trace.label == label

        _, traces = normalize(mixed, tiny_system)
        assert [t.route for t in traces] == [ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED]
        # 10^12 is past every label's format, so no label is legal and the
        # classifier never sees the span: verbatim, no probabilities
        assert traces[2].sfw is None and traces[2].label is None
        assert traces[2].probabilities is None


class TestOneLabelSpans:
    """A span with one legal label is decided without the classifier, as it would decide."""

    def test_no_forward_pass_and_classifier_probabilities(self, tiny_system, forward_calls):
        text = "只有10%的学生，今天是2019-10-01"
        out, traces = normalize(text, tiny_system)
        assert forward_calls == []
        assert out == "只有百分之十的学生，今天是二零一九年十月一日"
        assert [t.route for t in traces] == [ROUTE_NEURAL, ROUTE_NEURAL]
        for trace in traces:
            legal = tiny_system.formats.legal_labels(text[trace.span.start:trace.span.end])
            assert sum(legal) == 1
            probs, label = classify_alone(tiny_system, text, trace.span, legal)
            assert trace.probabilities.dtype == probs.dtype
            assert np.array_equal(trace.probabilities, probs)
            assert trace.label == label


class TestNormalizeMany:
    """Classifying a whole input at once decides as each sentence alone does."""

    MIXED = "遇到危险请拨打911，会议定于上午10:30开始，总额1,000,000,000,000元"

    @staticmethod
    def dense_lines(seed=39, n=200):
        sentences = [s.text for s in generate_synthetic_corpus(DIST, 1000, seed=seed)]
        rng = random.Random(seed)
        return ["，".join(rng.sample(sentences, rng.randint(2, 8))) for _ in range(n)]

    def test_equals_one_sentence_at_a_time(self, tiny_system, forward_calls):
        texts = self.dense_lines() + ["大家好才是真的好", self.MIXED]
        many = normalize_many(texts, tiny_system)
        windows = sum(len(call) for call in forward_calls)
        assert len(forward_calls) == -(-windows // 16)
        seen = [count for call in forward_calls for count in call]
        assert seen == sorted(seen)  # NSW counts non-decreasing across the calls
        assert len(many) == len(texts)
        for text, (out, traces) in zip(texts, many):
            alone_out, alone_traces = normalize(text, tiny_system)
            assert out == alone_out
            assert [(t.span, t.route, t.label, t.sfw) for t in traces] == [
                (t.span, t.route, t.label, t.sfw) for t in alone_traces
            ]
            for got, want in zip(traces, alone_traces):
                assert (got.probabilities is None) == (want.probabilities is None)
                if want.probabilities is not None:
                    assert np.allclose(got.probabilities, want.probabilities, rtol=0.0, atol=1e-12)
        assert many[-2] == ("大家好才是真的好", [])
        assert [t.route for t in many[-1][1]] == [ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED]
        assert many[-1][1][2].sfw is None and many[-1][1][2].probabilities is None

    def test_reader_refusal_keeps_probabilities(self, tiny_system, tmp_path):
        # a format wider than its reader: the classifier picks the only legal
        # label, the reader refuses 10^12, the rules find nothing either
        path = tmp_path / "formats.txt"
        path.write_text(r"A_Read_No_Zero: \d{1,3}(?:,\d{3})+|\d{1,12}" "\n", encoding="utf-8")
        formats = LabelRegistry.from_file(str(path))
        system = replace(tiny_system, rules=compile_rules(SHIPPED_RULES, formats),
                         formats=formats)
        for out, traces in normalize_many([self.MIXED, self.MIXED], system):
            assert out.endswith("总额1,000,000,000,000元")
            assert [t.route for t in traces] == [ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED]
            assert traces[2].sfw is None and traces[2].label is None
            probs = traces[2].probabilities
            assert probs is not None and int(np.argmax(probs)) == system.formats.id_of("A_Read_No_Zero")

    def test_empty_input(self, tiny_system):
        assert normalize_many([], tiny_system) == []

    def test_rules_only_runs_no_forward_pass(self, rules_system, forward_calls):
        texts = self.dense_lines(n=50)
        many = normalize_many(texts, rules_system)
        assert forward_calls == []
        assert many == [normalize(text, rules_system) for text in texts]


class TestFormatOverride:
    def test_widened_format_holds_at_render_time(self, rules_system, tmp_path):
        path = tmp_path / "formats.txt"
        path.write_text(r"B_Time: (?:[01]?\d|2[0-4]):[0-5]\d" + "\n", encoding="utf-8")
        text = "rule: clock\n" r"nsw: \d{1,2}:\d{2}" "\nlabel: B_Time\n"
        formats = FormatRegistry.from_file(str(path))
        system = replace(rules_system, rules=parse_rules(text, formats), formats=formats)
        out, traces = normalize("晚上24:00关门", system)
        assert out == "晚上二十四点关门"
        assert traces[0].route == ROUTE_FALLBACK
        # the default registry rejects 24:00, so the span stays verbatim there
        defaults = rules_system.formats
        out, traces = normalize(
            "晚上24:00关门", replace(system, rules=parse_rules(text, defaults), formats=defaults)
        )
        assert out == "晚上24:00关门"
        assert traces[0].route == ROUTE_UNMATCHED

    def test_rules_must_share_the_systems_registry(self, rules_system, tmp_path):
        # shipped rules take B_Time's shape from the registry they were
        # compiled against; run with a wider one, they would miss 24:00
        path = tmp_path / "formats.txt"
        path.write_text(r"B_Time: (?:[01]?\d|2[0-4]):[0-5]\d" + "\n", encoding="utf-8")
        formats = LabelRegistry.from_file(str(path))
        with pytest.raises(ValueError, match="registry"):
            replace(rules_system, formats=formats)
        system = replace(
            rules_system, rules=compile_rules(SHIPPED_RULES, formats), formats=formats
        )
        out, traces = normalize("晚上24:00关门", system)
        assert out == "晚上二十四点关门"
        assert traces[0].route == ROUTE_FALLBACK


class TestRoutingStats:
    def test_all_priority(self, tiny_system):
        stats = routing_stats(["请拨打911", "快打110报警"], tiny_system)
        assert stats == (1.0, 0.0, 0.0)

    def test_no_priority(self, tiny_system):
        corpus = generate_synthetic_corpus(
            CorpusDistribution({"B_Percent": 0.5, "B_Date_YMD": 0.5}), 50, seed=36)
        # labeled sentences are accepted directly
        priority, neural, fallback = routing_stats(corpus, tiny_system)
        assert priority == 0.0
        assert neural == 1.0
        assert 0.0 <= fallback <= 1.0

    def test_partition_sums_to_one(self, tiny_system):
        texts = [s.text for s in generate_synthetic_corpus(DIST, 100, seed=37)]
        texts += ["请拨打911求助"]
        priority, neural, _ = routing_stats(texts, tiny_system)
        assert priority + neural == pytest.approx(1.0)
        assert priority > 0.0

    def test_empty(self, tiny_system):
        assert routing_stats(["没有数字"], tiny_system) == (0.0, 0.0, 0.0)

    def test_rules_only_scores_nothing(self, rules_system):
        # without a classifier no span is neural, whatever its route
        stats = routing_stats(["温度是25.3左右", "只有10%的学生", "请拨打911"], rules_system)
        assert stats == (pytest.approx(1 / 3), 0.0, 0.0)


class TestTraceOutput:
    def test_write_traces_line_format(self, tiny_system, tmp_path):
        path = tmp_path / "traces.jsonl"
        text = "会议定于上午10:30开始"
        out, traces = normalize(text, tiny_system)
        write_traces(str(path), [(text, traces)])
        lines = path.read_text("utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["text"] == text
        assert record["route"] in {ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_FALLBACK, ROUTE_UNMATCHED}
        assert record["start"] == 6 and record["end"] == 11


class TestSplitSentences:
    def test_splits_on_final_punctuation(self):
        parts = split_sentences("今天下雨。明天放晴！后天呢？")
        assert parts == ["今天下雨。", "明天放晴！", "后天呢？"]
        assert "".join(parts) == "今天下雨。明天放晴！后天呢？"

    def test_trailing_fragment_kept(self):
        assert split_sentences("没有标点的结尾") == ["没有标点的结尾"]


class TestSystemValidation:
    def test_label_count_mismatch_rejected(self, tiny_system):
        bad = replace(tiny_system.config, label_count=5)
        with pytest.raises(ValueError, match="label"):
            HybridSystem(
                rules=tiny_system.rules,
                priority=tiny_system.priority,
                params=tiny_system.params,
                config=bad,
                vocab=tiny_system.vocab,
                formats=tiny_system.formats,
            )

    def test_partial_classifier_rejected(self, tiny_system):
        with pytest.raises(ValueError, match="all set or all None"):
            replace(tiny_system, config=None)

    def test_wrong_tensor_shape_rejected(self, tiny_system):
        params = tiny_system.params.copy()
        params.embedding = params.embedding[:-1]  # a character id would index past it
        with pytest.raises(ValueError, match="embedding"):
            replace(tiny_system, params=params)

