import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_match_nsw, reference_window

from mtnorm import pipeline
from mtnorm.corpus import CorpusDistribution, LabeledSentence, data_path, generate_synthetic_corpus
from mtnorm.extractor import extract_nsw, priority_check
from mtnorm.labels import DEFAULT_REGISTRY, LabelRegistry
from mtnorm.neural import load_params, model
from mtnorm.reader import render
from mtnorm.rules import compile_rules, match_nsw, parse_rules
from mtnorm.pipeline import (
    ROUTE_FALLBACK,
    ROUTE_NEURAL,
    ROUTE_PRIORITY,
    ROUTE_UNMATCHED,
    HybridSystem,
    normalize,
    normalize_many,
    write_traces,
)

DIST = CorpusDistribution.default()
# A window's float32 probabilities alone and in a chunk agree to float32
# rounding only: sgemm kernels without AVX-512 round a row by its product's
# row count. test_neural_model.TestFrozenForward.TOLERANCE is the same bound.
FLOAT32_TOLERANCE = 1e-6


def classify_alone(system, text, span, legal):
    """One span classified on its own: the oracle's window, one forward pass."""
    chars, mask = reference_window(text, span.start, span.end, system.config.window)
    ids = [[system.vocab.id_of(ch) for ch in chars]]
    probs = model.predict_probs(system.encoder, ids, [mask], [legal])[0]
    return probs, int(np.argmax(probs))


def assert_equals_alone(texts, many, system):
    """``many``, the ``normalize_many`` result of ``texts``, decides as
    ``normalize`` of each text alone: probabilities to float32 rounding."""
    for text, (out, traces) in zip(texts, many):
        alone_out, alone_traces = normalize(text, system)
        assert out == alone_out, text
        assert [(t.span, t.route, t.label, t.sfw) for t in traces] == [
            (t.span, t.route, t.label, t.sfw) for t in alone_traces
        ], text
        for got, want in zip(traces, alone_traces):
            assert (got.probabilities is None) == (want.probabilities is None)
            if want.probabilities is not None:
                assert np.allclose(
                    got.probabilities, want.probabilities, rtol=0.0, atol=FLOAT32_TOLERANCE
                ), text


def definite(system, text, span):
    """Whether the span's ``match_nsw`` rule is a context rule whose reader accepts it."""
    rule = match_nsw(system.rules, text, span)
    if rule is None or not rule.context:
        return False
    try:
        render(text[span.start:span.end], rule.label)
    except ValueError:
        return False
    return True


@pytest.fixture
def swap_reader(monkeypatch):
    """Replace a shipped label's reader in the label table for one test.

    ``swap(system, name, read)`` returns ``system`` with its rules parsed
    afresh, so that the rules on the label's format hold ``read`` too.
    """

    def swap(system, name, read):
        swapped = replace(DEFAULT_REGISTRY.by_name(name), read=read)
        labels = list(DEFAULT_REGISTRY)
        labels[swapped.id] = swapped
        monkeypatch.setattr(DEFAULT_REGISTRY, "_labels", labels)
        monkeypatch.setattr(DEFAULT_REGISTRY, "_by_name", {**DEFAULT_REGISTRY._by_name, name: swapped})
        readers = list(DEFAULT_REGISTRY.readers)
        readers[swapped.id] = read
        monkeypatch.setattr(DEFAULT_REGISTRY, "readers", tuple(readers))
        return replace(system, rules=compile_rules(data_path("rules.txt")))

    return swap


def divide_by_zero(surface):
    return str(1 // 0)


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
            legal = DEFAULT_REGISTRY.legal_labels(surface)
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
                    assert DEFAULT_REGISTRY.verify(surface, trace.label)
        assert ROUTE_NEURAL in routes

    def test_no_mask_illegal_choice_falls_back(self, tiny_system):
        # the unmasked classifier picks A_Two_Liang for 3; its reader would
        # say 两, but the label is not legal for 3, so the rules decide
        liang = DEFAULT_REGISTRY.id_of("A_Two_Liang")
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
        """Non-priority, non-definite spans with at least ``least`` legal labels."""
        return [
            span for span in extract_nsw(text)
            if not priority_check(text[span.start:span.end], system.priority)
            and not definite(system, text, span)
            and sum(DEFAULT_REGISTRY.legal_labels(text[span.start:span.end])) >= least
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
        long_line = "，".join(sentences[:60])
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
                legal = DEFAULT_REGISTRY.legal_labels(surface)
                probs, label = classify_alone(tiny_system, text, trace.span, legal)
                assert np.allclose(trace.probabilities, probs, rtol=0.0, atol=FLOAT32_TOLERANCE)
                if trace.route == ROUTE_NEURAL:
                    assert trace.label == label

        _, traces = normalize(mixed, tiny_system)
        assert [t.route for t in traces] == [ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED]
        # 10^12 is past every label's format, so no label is legal and the
        # classifier never sees the span: verbatim, no probabilities
        assert traces[2].sfw is None and traces[2].label is None
        assert traces[2].probabilities is None


class TestDefiniteRules:
    """A span whose rule is a context rule takes that rule before the classifier."""

    @pytest.fixture
    def windows(self, monkeypatch, tiny_system):
        """Per ``Vocabulary.windows`` call, the spans it cut windows for."""
        calls = []
        real_windows = type(tiny_system.vocab).windows

        def counting_windows(vocab, text, spans, width):
            calls.append(list(spans))
            return real_windows(vocab, text, spans, width)

        monkeypatch.setattr(type(tiny_system.vocab), "windows", counting_windows)
        return calls

    @pytest.mark.parametrize("text, sfw, rule", [
        ("他1998年毕业", "他一九九八年毕业", "year_before_nian"),
        ("主队3-1领先", "主队三比一领先", "score_keyword_after"),
        ("我买了2个苹果", "我买了两个苹果", "liang_before_measure"),
        ("气温10-15度", "气温十到十五度", "range_with_unit"),
        ("本场比分是30-10", "本场比分是三十比十", "score_keyword_before"),
        ("这座桥全长350米", "这座桥全长三百五十米", "quantity_before_unit"),
        # 120 is on the priority list; a unit after it makes it a quantity
        ("大桥全长120米", "大桥全长一百二十米", "quantity_before_unit"),
        # the unit must follow the number directly: 个 decides, not 小时
        ("他等了2个小时", "他等了两个小时", "liang_before_measure"),
    ])
    def test_context_rule_takes_priority_route(self, tiny_system, windows, text, sfw, rule):
        out, traces = normalize(text, tiny_system)
        assert out == sfw
        assert windows == []
        [trace] = traces
        assert trace.route == ROUTE_PRIORITY and trace.probabilities is None
        match = match_nsw(tiny_system.rules, text, trace.span)
        assert match.name == rule and trace.label == match.label

    def test_two_before_a_unit_is_classified(self, tiny_system, windows):
        # 2 before a unit reads 两 (两米), so quantity_before_unit leaves it out
        text = "大桥全长2米"
        _, traces = normalize(text, tiny_system)
        assert windows == [[traces[0].span]]
        assert traces[0].probabilities is not None
        assert match_nsw(tiny_system.rules, text, traces[0].span).name == "plain_number"

    def test_year_without_nian_is_classified(self, tiny_system, windows):
        text = "他在1998毕业"
        _, traces = normalize(text, tiny_system)
        assert windows == [[traces[0].span]]
        assert traces[0].probabilities is not None
        assert traces[0].route == ROUTE_NEURAL

    def test_rules_only_route_unchanged(self, rules_system):
        _, traces = normalize("他1998年毕业", rules_system)
        assert traces[0].route == ROUTE_FALLBACK

    def test_refused_context_rule_goes_to_the_classifier(self, tiny_system, windows):
        # B_Time's reader refuses 1998, so the classifier decides the span
        rules = parse_rules("rule: year_as_time\ncontext_len: 1\nnsw: \\d{4}\npost: 年\nlabel: B_Time\n")
        system = replace(tiny_system, rules=rules)
        _, traces = normalize("他1998年毕业", system)
        assert len(windows) == 1
        assert traces[0].probabilities is not None
        assert traces[0].route in (ROUTE_NEURAL, ROUTE_UNMATCHED)

    def test_context_free_rule_first_is_not_definite(self, tiny_system, windows):
        # a context-free rule that sorts first answers match_nsw, so the
        # context rule behind it decides nothing
        rules = parse_rules(
            "rule: any_year\ncontext_len: 2\nnsw: \\d{4}\nlabel: A_Read_No_Zero\n\n"
            "rule: year_before_nian\ncontext_len: 1\nnsw: \\d{4}\npost: 年\n"
            "label: A_Spell_Keep_Zero\n"
        )
        system = replace(tiny_system, rules=rules)
        _, traces = normalize("他1998年毕业", system)
        assert len(windows) == 1
        assert traces[0].probabilities is not None


class TestOneLabelSpans:
    """A span with one legal label is decided without the classifier, as it would decide."""

    def test_no_forward_pass_and_classifier_probabilities(self, tiny_system, forward_calls):
        text = "只有10%的学生，今天是2019-10-01"
        out, traces = normalize(text, tiny_system)
        assert forward_calls == []
        assert out == "只有百分之十的学生，今天是二零一九年十月一日"
        assert [t.route for t in traces] == [ROUTE_NEURAL, ROUTE_NEURAL]
        for trace in traces:
            legal = DEFAULT_REGISTRY.legal_labels(text[trace.span.start:trace.span.end])
            assert sum(legal) == 1
            probs, label = classify_alone(tiny_system, text, trace.span, legal)
            assert trace.probabilities.dtype == probs.dtype
            assert np.array_equal(trace.probabilities, probs)
            assert trace.label == label

    def test_probabilities_are_read_only_one_hot_rows(self, tiny_system):
        texts = [s.text for s in generate_synthetic_corpus(DIST, 400, seed=23)]
        one_label = 0
        for text, (_, traces) in zip(texts, normalize_many(texts, tiny_system)):
            for trace in traces:
                legal = DEFAULT_REGISTRY.legal_labels(text[trace.span.start:trace.span.end])
                if trace.probabilities is None or sum(legal) != 1:
                    continue
                one_label += 1
                probs = trace.probabilities
                assert probs.dtype == np.float64 and not probs.flags.writeable
                assert np.array_equal(probs, np.array(legal, dtype=np.float64))
                with pytest.raises(ValueError, match="read-only"):
                    probs[0] = 0.5
        assert one_label > 50

    def test_reader_fault_takes_the_rule_fallback_with_the_one_hot(
        self, tiny_system, swap_reader
    ):
        # the rules keep B_Percent's own reader; only the label table's raises
        text = "只有10%的学生"
        _, before = normalize(text, tiny_system)
        assert before[0].route == ROUTE_NEURAL
        swap_reader(tiny_system, "B_Percent", divide_by_zero)
        out, traces = normalize(text, tiny_system)
        assert out == "只有百分之十的学生"
        assert traces[0].route == ROUTE_FALLBACK
        assert (traces[0].label, traces[0].sfw) == (before[0].label, before[0].sfw)
        assert np.array_equal(traces[0].probabilities, before[0].probabilities)
        assert traces[0].probabilities[before[0].label] == 1.0


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
        assert_equals_alone(texts, many, tiny_system)
        assert many[-2] == ("大家好才是真的好", [])
        assert [t.route for t in many[-1][1]] == [ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED]
        assert many[-1][1][2].sfw is None and many[-1][1][2].probabilities is None

    def test_one_rule_match_per_span(self, tiny_system, rules_system, monkeypatch):
        calls = []
        real_match = pipeline.match_nsw

        def counting_match(rs, text, span):
            calls.append(span)
            return real_match(rs, text, span)

        monkeypatch.setattr(pipeline, "match_nsw", counting_match)
        year_as_time = parse_rules(
            "rule: year_as_time\ncontext_len: 1\nnsw: \\d{4}\npost: 年\nlabel: B_Time\n"
        )
        runs = [
            # priority, neural and no-legal-label spans, and a definite one
            (tiny_system, [self.MIXED, "他1998年毕业"]),
            # a context rule whose reader refuses the span
            (replace(tiny_system, rules=year_as_time), ["他1998年毕业"]),
            (rules_system, self.dense_lines(n=50)),
        ]
        for system, texts in runs:
            del calls[:]
            spans = [t.span for _, traces in normalize_many(texts, system) for t in traces]
            assert calls == spans

    def test_routes_follow_the_reference_rule(self, tiny_system, rules_system):
        texts = self.dense_lines() + [self.MIXED]
        routes = {}
        for name, system in (("hybrid", tiny_system), ("rules", rules_system)):
            routes[name] = seen = set()
            for text, (_, traces) in zip(texts, normalize_many(texts, system)):
                for trace in traces:
                    seen.add(trace.route)
                    span = trace.span
                    surface = text[span.start : span.end]
                    rule = reference_match_nsw(system.rules.rules, text, span.start, span.end)
                    try:
                        sfw = rule and render(surface, rule.label)
                    except ValueError:
                        sfw = None
                    legal = DEFAULT_REGISTRY.legal_labels(surface)
                    decided = priority_check(surface, system.priority) or (
                        system.encoder is not None and sfw is not None and rule.context
                    )
                    scored = system.encoder is not None and not decided and any(legal)
                    assert (trace.route == ROUTE_PRIORITY) == (decided and sfw is not None)
                    assert (trace.probabilities is None) == (not scored)
                    if trace.route == ROUTE_NEURAL:
                        assert trace.label == int(np.argmax(np.where(legal, trace.probabilities, -1)))
                        assert trace.sfw == render(surface, trace.label)
                    elif sfw is None:
                        assert trace.route == ROUTE_UNMATCHED and trace.label is None
                    else:
                        assert trace.route != ROUTE_UNMATCHED
                        assert (trace.label, trace.sfw) == (rule.label, sfw)
        assert {ROUTE_PRIORITY, ROUTE_NEURAL, ROUTE_UNMATCHED} <= routes["hybrid"]
        assert routes["rules"] == {ROUTE_PRIORITY, ROUTE_FALLBACK, ROUTE_UNMATCHED}

    def test_reader_refusal_keeps_probabilities(self, tiny_system, swap_reader):
        # the reader of the label the classifier picks for 10:30 refuses:
        # the span takes the rule fallback with its probabilities kept
        _, before = normalize(self.MIXED, tiny_system)
        assert before[1].route == ROUTE_NEURAL
        picked = DEFAULT_REGISTRY.by_id(before[1].label)

        def refuse(surface):
            raise ValueError(f"cannot read {surface!r}")

        system = swap_reader(tiny_system, picked.name, refuse)
        for _, traces in normalize_many([self.MIXED, self.MIXED], system):
            assert traces[1].route in (ROUTE_FALLBACK, ROUTE_UNMATCHED)
            assert traces[1].label != picked.id
            probs = traces[1].probabilities
            assert np.allclose(probs, before[1].probabilities, rtol=0.0, atol=1e-12)

    def test_empty_input(self, tiny_system):
        assert normalize_many([], tiny_system) == []

    def test_rules_only_runs_no_forward_pass(self, rules_system, forward_calls):
        texts = self.dense_lines(n=50)
        many = normalize_many(texts, rules_system)
        assert forward_calls == []
        assert many == [normalize(text, rules_system) for text in texts]


class TestDifferentialFuzz:
    """Seeded random strings of NSW characters, Han units and full-width forms."""

    ALPHABET = "0123456789.:-~—/%,$年月日人组度元比分个３０％ "

    @pytest.fixture(scope="class")
    def texts(self):
        rng = random.Random(41)
        return [
            "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(1, 30)))
            for _ in range(1000)
        ]

    def test_batched_equals_alone_and_renders_no_digit(self, texts, tiny_system, rules_system):
        spans = {}
        for system in (tiny_system, rules_system):
            many = normalize_many(texts, system)  # never raises, whatever the input
            spans[system is tiny_system] = [[t.span for t in traces] for _, traces in many]
            assert_equals_alone(texts, many, system)
            for text, (_, traces) in zip(texts, many):
                for t in traces:
                    assert t.sfw is None or not any("0" <= ch <= "9" for ch in t.sfw), (text, t)
        # evaluate_golden zips the two systems' traces span by span
        assert spans[True] == spans[False]


class TestCommittedCheckpoint:
    """What the hybrid does with a committed checkpoint, pinned as one digest.

    ``tests/data/hybrid_small.npz`` (83,602 bytes) was trained with the CLI::

        mtnorm gen-corpus --n 5000 --seed 7 --out corpus.jsonl
        mtnorm train --corpus corpus.jsonl --config small.json --out hybrid_small.npz

    where ``small.json`` is ``{"model_dim": 16, "heads": 2, "ff_dim": 32,
    "epochs": 6, "seed": 0}``. Its inputs are the 3000 seed-7 stream
    sentences. The dense lines are not pinned with it: 3 of their 4348
    classified spans have margins below 1e-3, where float32 rounding
    could flip a label.
    """

    # sha256 of json.dumps([[output, [[start, end, route, label, sfw], ...]], ...],
    # ensure_ascii=False): probabilities are left out, since their float32
    # digits differ between BLAS kernels; the margin test below bounds that.
    DIGEST = "8e64cd51a372e016a50bde8aaa2a89b256d3ae16e65b8f4388d65d959433b378"
    CLASSIFIED_SPANS = 1351
    # The smallest top-1/top-2 margin measured is 0.124; float32 inference
    # differs between kernels by about 1e-6, far below this floor.
    MARGIN_FLOOR = 0.1

    @pytest.fixture(scope="class")
    def traced(self, rules_system):
        path = Path(__file__).with_name("data") / "hybrid_small.npz"
        params, config, vocab = load_params(str(path))
        system = replace(rules_system, params=params, config=config, vocab=vocab)
        texts = [s.text for s in generate_synthetic_corpus(DIST, 3000, seed=7)]
        return texts, normalize_many(texts, system)

    def test_classified_margins_clear_the_floor(self, traced):
        margins = []
        for text, (_, traces) in zip(*traced):
            for t in traces:
                surface = text[t.span.start : t.span.end]
                if t.probabilities is not None and sum(DEFAULT_REGISTRY.legal_labels(surface)) > 1:
                    second, first = np.sort(t.probabilities)[-2:]
                    margins.append(first - second)
        assert len(margins) == self.CLASSIFIED_SPANS
        # below the floor a kernel's rounding could flip a label, and the
        # digest would fail for that reason, not for a change in routing
        assert min(margins) > self.MARGIN_FLOOR

    def test_routes_labels_and_outputs_digest(self, traced):
        payload = json.dumps(
            [
                [out, [[t.span.start, t.span.end, t.route, t.label, t.sfw] for t in traces]]
                for out, traces in traced[1]
            ],
            ensure_ascii=False,
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == self.DIGEST


class TestReaderFaults:
    """A reader that raises anything fails only its own span, never the call."""

    def test_rule_route(self, rules_system, swap_reader):
        system = swap_reader(rules_system, "B_Percent", divide_by_zero)
        [(out, traces), (other, _)] = normalize_many(["只有10%的学生", "共有35人"], system)
        assert out == "只有10%的学生" and other == "共有三十五人"
        assert traces[0].route == ROUTE_UNMATCHED and traces[0].label is None

    def test_neural_route_takes_the_rule_fallback(self, tiny_system, swap_reader):
        # 10% has one legal label, so the neural route reads it first
        system = swap_reader(tiny_system, "B_Percent", divide_by_zero)
        [(out, traces), (other, _)] = normalize_many(["只有10%的学生", "共有35人"], system)
        assert out == "只有10%的学生" and other == "共有三十五人"
        assert traces[0].route == ROUTE_UNMATCHED
        assert traces[0].probabilities is not None

    def test_definite_check_leaves_the_span_to_the_classifier(self, tiny_system, swap_reader):
        system = swap_reader(tiny_system, "A_Spell_Keep_Zero", divide_by_zero)
        [(_, traces), (other, _)] = normalize_many(["他1998年毕业", "共有35人"], system)
        assert other == "共有三十五人"
        assert traces[0].route != ROUTE_PRIORITY and traces[0].probabilities is not None


class TestFormatOverride:
    def test_widened_format_holds_at_render_time(self, rules_system):
        # a rule's NSW pattern wider than its label's format matches 24:00,
        # but rendering checks B_Time's format, so the span stays verbatim
        text = "rule: clock\n" r"nsw: \d{1,2}:\d{2}" "\nlabel: B_Time\n"
        system = replace(rules_system, rules=parse_rules(text))
        out, traces = normalize("晚上24:00关门", system)
        assert out == "晚上24:00关门"
        assert traces[0].route == ROUTE_UNMATCHED
        out, traces = normalize("晚上23:00关门", system)
        assert out == "晚上二十三点关门"
        assert traces[0].route == ROUTE_FALLBACK

    def test_rules_must_share_the_systems_registry(self, rules_system):
        # rules, mask and readers all read the shipped label table, and the
        # system takes no other
        with pytest.raises(ValueError, match="label table"):
            replace(rules_system, formats=LabelRegistry())


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

