import ast
import dataclasses
import random
import re
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from mtnorm.corpus import (
    CorpusDistribution,
    CorpusError,
    LabeledSentence,
    NSWSpan,
    data_path,
    generate_synthetic_corpus,
    load_corpus,
    load_templates,
    oversample_expand,
    read_json,
    save_corpus,
    splice,
)
from mtnorm.evaluate import load_grid
from mtnorm.extractor import load_priority_list
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.legality import default_formats
from mtnorm.neural import ClassifierConfig
from mtnorm.neural.vocab import build_vocab
from mtnorm.neural.vocab import PAD_CHAR, PAD_ID
from mtnorm.rules import compile_rules

DIST = CorpusDistribution.default()


def label_id(name):
    return DEFAULT_REGISTRY.id_of(name)


class TestLineFormat:
    def test_single_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"text": "今天是2019-10-01", "spans": [[3, 13, "B_Date_YMD"]]}\n',
            encoding="utf-8",
        )
        sentences = load_corpus(str(path))
        assert len(sentences) == 1
        assert len(sentences[0].spans) == 1
        assert sentences[0].surface(sentences[0].spans[0]) == "2019-10-01"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(str(path)) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "spans": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "record",
        [
            '{"text": 5, "spans": []}',
            '{"spans": []}',
            '[1, 2]',
            '{"text": "共35人", "spans": [[1, 2.9, "A_Read_No_Zero"]]}',
            '{"text": "共35人", "spans": [["1", 3, "A_Read_No_Zero"]]}',
            '{"text": "共35人", "spans": [[true, 3, "A_Read_No_Zero"]]}',
            '{"text": "共35人", "spans": [[1, 3]]}',
            '{"text": "共35人", "spans": [[1, 3, "No_Such_Label"]]}',
            '{"text": "共35人", "spans": [[1, 3, 0]]}',
            '{"text": "共35人", "spans": {"1": 3}}',
            '{"text": "共35人", "spans": 7}',
            '{"text": "共35人", "spans": [[1, 3, "A_Read_No_Zero", 0]]}',
            b'{"text": "caf\xe9 35", "spans": []}',
            '{"text": "会议在10:30开始", "spans": [[3, 8, "A_Read_No_Zero"]]}',
        ],
        ids=[
            "text-not-string", "no-text", "not-object", "float-end", "string-start",
            "bool-start", "two-element-span", "unknown-label", "label-id", "spans-dict",
            "spans-int", "four-element-span", "not-utf-8", "surface-illegal-for-label",
        ],
    )
    def test_bad_record_rejected(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        good = '{"text": "共35人", "spans": [[1, 3, "A_Read_No_Zero"]]}'
        record = record if isinstance(record, bytes) else record.encode()
        path.write_bytes(good.encode() + b"\n" + record + b"\n")
        with pytest.raises(CorpusError, match=r"bad\.jsonl:2: "):
            load_corpus(str(path))

    def test_span_beyond_text_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "共3人", "spans": [[1, 9, "A_Read_No_Zero"]]}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(str(path))

    def test_overlapping_spans_rejected(self):
        with pytest.raises(CorpusError, match="overlap"):
            LabeledSentence("12345", (NSWSpan(0, 3, 0), NSWSpan(2, 5, 0)))

    def test_round_trip(self, tmp_path):
        corpus = generate_synthetic_corpus(DIST, 200, seed=11)
        path = tmp_path / "rt.jsonl"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path)) == corpus

    def test_unlabeled_span_cannot_be_saved(self, tmp_path):
        sentence = LabeledSentence("共100人", (NSWSpan(1, 4),))
        with pytest.raises(CorpusError, match="unlabeled"):
            save_corpus([sentence], str(tmp_path / "x.jsonl"))


@pytest.mark.parametrize(
    "load, content",
    [
        (load_templates, b'{"B_Percent": ["caf\xe9{NSW}"]}'),
        (load_templates, b'{"B_Percent": ["{NSW}"'),
        (load_templates, b'["{NSW}"]'),
        (load_templates, b'{"B_Percent": [5]}'),
        (load_templates, b'{"Nope": ["{NSW}"]}'),
        (load_templates, b'{"B_Percent": {"nsw": "percent", "templates": ["{NSW}"]}}'),
        (load_templates, b'{"B_Percent": ["{NSW}{NSW}"]}'),
        (load_grid, b'[{"name": "proposed"'),
        (compile_rules, b"rule: caf\xe9\nlabel: A_Read_No_Zero\n"),
        (load_priority_list, b"caf\xe9\n"),
    ],
    ids=[
        "templates-not-utf-8", "templates-truncated", "templates-list", "templates-int-template",
        "templates-unknown-label", "templates-old-layout", "templates-two-slots",
        "grid-truncated", "rules-not-utf-8", "priority-not-utf-8",
    ],
)
def test_input_fault_names_the_file(tmp_path, load, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: ")):
        load(str(path))


@pytest.mark.parametrize(
    "load, text",
    [
        (load_priority_list, "911\n"),
        (lambda path: compile_rules(path).rules, "rule: quantity\nlabel: A_Read_No_Zero\n"),
        (lambda path: read_json(path, lambda raw: ClassifierConfig(**raw)), '{"epochs": 2}'),
        (load_corpus, '{"text": "共100人", "spans": [[1, 4, "A_Read_No_Zero"]]}\n'),
    ],
    ids=["priority", "rules", "config", "corpus"],
)
def test_leading_byte_order_mark_dropped(tmp_path, load, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(str(marked)) == load(str(plain))


def test_every_shipped_data_file_is_read():
    # the package ships all of mtnorm/data: a file that no data_path("...")
    # call in src/ names is never read by the program
    src = Path(data_path("")).parents[1]
    named = {
        node.args[0].value
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "data_path"
        and isinstance(node.args[0], ast.Constant)
    }
    assert {path.name for path in Path(data_path("")).iterdir()} == named


def test_splice_replaces_spans_in_text_order():
    text = "从10:30到11点，共3人"
    spans = [NSWSpan(1, 6), NSWSpan(7, 9), NSWSpan(12, 13)]
    assert splice(text, zip(spans, ["十点半", "十一", ""])) == "从十点半到十一点，共人"
    assert splice(text, []) == text


def decoded_window(sentence, span, width):
    """``Vocabulary.windows`` for one span, its ids read back as characters."""
    vocab = build_vocab([sentence])
    ids, nsw = vocab.windows(sentence.text, [span], width)
    chars = {i: ch for ch, i in vocab.char_to_id.items()} | {PAD_ID: PAD_CHAR}
    return SimpleNamespace(
        chars="".join(chars[i] for i in ids[0]), nsw_mask=tuple(bool(b) for b in nsw[0])
    )


class TestExtractWindow:
    def test_exact_fit(self):
        sentence = LabeledSentence("abc123def", (NSWSpan(3, 6, 0),))
        window = decoded_window(sentence, sentence.spans[0], width=9)
        assert window.chars == "abc123def"
        assert window.nsw_mask == (False,) * 3 + (True,) * 3 + (False,) * 3

    def test_short_sentence_pads_both_sides(self):
        # left pad count = floor((W - len) / 2) computed over the full string
        sentence = LabeledSentence("123", (NSWSpan(0, 3, 0),))
        window = decoded_window(sentence, sentence.spans[0], width=9)
        assert window.chars == PAD_CHAR * 3 + "123" + PAD_CHAR * 3
        assert sum(window.nsw_mask) == 3

    def test_interior_window_no_padding(self):
        text = "甲" * 48 + "1234" + "乙" * 48
        sentence = LabeledSentence(text, (NSWSpan(48, 52, 0),))
        window = decoded_window(sentence, sentence.spans[0], width=30)
        assert len(window.chars) == 30
        assert PAD_CHAR not in window.chars
        assert "1234" in window.chars

    def test_right_bias_on_odd_context(self):
        sentence = LabeledSentence("ab12cdef", (NSWSpan(2, 4, 0),))
        window = decoded_window(sentence, sentence.spans[0], width=7)
        # 5 context positions: 2 left, 3 right
        assert window.chars == "ab12cde"

    def test_nsw_longer_than_window_keeps_head(self):
        sentence = LabeledSentence("x123456789y", (NSWSpan(1, 10, 0),))
        window = decoded_window(sentence, sentence.spans[0], width=4)
        assert window.chars == "1234"
        assert window.nsw_mask == (True,) * 4

    def test_length_preserving_property(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 60)
            start = rng.randrange(n)
            end = rng.randint(start + 1, n)
            text = "汉" * start + "5" * (end - start) + "字" * (n - end)
            sentence = LabeledSentence(text, (NSWSpan(start, end, 0),))
            width = rng.randint(1, 40)
            window = decoded_window(sentence, sentence.spans[0], width)
            assert len(window.chars) == width
            assert len(window.nsw_mask) == width


class TestDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(CorpusError, match="sum"):
            CorpusDistribution({"A_Read_No_Zero": 0.5})

    def test_default_is_top5_heavy(self):
        top5 = sum(sorted(DIST.proportions.values(), reverse=True)[:5])
        assert top5 >= 0.90


class TestGeneration:
    def test_deterministic(self):
        a = generate_synthetic_corpus(DIST, 300, seed=42)
        b = generate_synthetic_corpus(DIST, 300, seed=42)
        assert a == b

    def test_zero_samples(self):
        assert generate_synthetic_corpus(DIST, 0, seed=1) == []

    @pytest.mark.parametrize("n, seed, message", [
        (-3, 1, "sentence count must be >= 0, got -3"),
        (5, -1, "seed must be >= 0, got -1"),
    ])
    def test_negative_count_or_seed_refused(self, n, seed, message):
        # random.Random(-1) seeds as random.Random(1) would
        with pytest.raises(CorpusError, match=f"^{message}$"):
            generate_synthetic_corpus(DIST, n, seed=seed)

    def test_histogram_tracks_distribution(self):
        corpus = generate_synthetic_corpus(DIST, 10000, seed=7)
        hist = Counter(DEFAULT_REGISTRY.by_id(s.spans[0].label).name for s in corpus)
        for name, target in DIST.proportions.items():
            assert abs(hist.get(name, 0) / 10000 - target) < 0.02

    def test_surfaces_match_label_format(self):
        formats = default_formats()
        for sentence in generate_synthetic_corpus(DIST, 500, seed=13):
            span = sentence.spans[0]
            assert formats.verify(sentence.surface(span), span.label)

    def test_missing_template_is_config_error(self):
        dist = CorpusDistribution({"A_Read_No_Zero": 1.0})
        templates = {k: v for k, v in load_templates().items() if k != "A_Read_No_Zero"}
        with pytest.raises(CorpusError, match="no templates"):
            generate_synthetic_corpus(dist, 5, seed=1, templates=templates)
        with pytest.raises(CorpusError, match="no templates"):
            generate_synthetic_corpus(dist, 5, seed=1, templates={"A_Read_No_Zero": ()})

    def test_drawn_surface_outside_format_names_the_label(self, monkeypatch):
        lab = DEFAULT_REGISTRY.by_name("B_Percent")
        monkeypatch.setitem(DEFAULT_REGISTRY._by_name, lab.name,
                            dataclasses.replace(lab, draw=lambda rng: "10"))
        with pytest.raises(CorpusError, match="^B_Percent drew '10', which its format rejects$"):
            generate_synthetic_corpus(CorpusDistribution({"B_Percent": 1.0}), 1, seed=1)

    def test_ambiguous_surface_pairs_present(self):
        corpus = generate_synthetic_corpus(DIST, 10000, seed=7)
        surfaces = defaultdict(set)
        for s in corpus:
            surfaces[s.spans[0].label].add(s.surface(s.spans[0]))
        for a, b in (("B_Time", "B_Score_Ratio"), ("A_Read_No_Zero", "A_Spell_Keep_Zero")):
            assert surfaces[label_id(a)] & surfaces[label_id(b)]


class TestOversampling:
    def rare_corpus(self):
        corpus = generate_synthetic_corpus(DIST, 50, seed=2)
        rare = LabeledSentence("药品的推荐用量为3次/天", (NSWSpan(8, 12, label_id("B_Slash_Per")),))
        return corpus + [rare], rare

    def test_duplicate_factor(self):
        # the rare sentence comes last, so its three jittered copies and then
        # its three duplicates end the output
        corpus, rare = self.rare_corpus()
        out = oversample_expand(corpus, seed=1)
        assert out[: len(corpus)] == corpus
        assert out[-3:] == [rare] * 3
        assert all(s.spans == rare.spans for s in out[-6:-3])

    def test_digit_jitter_keeps_format(self):
        sentence = LabeledSentence("列车将在10:30准时发车", (NSWSpan(4, 9, label_id("B_Time")),))
        common = generate_synthetic_corpus(CorpusDistribution({"B_Percent": 1.0}), 40, seed=3)
        out = oversample_expand(common + [sentence], seed=3)
        assert len(out) == 47 and out[-3:] == [sentence] * 3
        jittered = out[41:44]
        assert any(s != sentence for s in jittered)
        formats = default_formats()
        for s in jittered:
            assert s.spans == sentence.spans
            assert formats.verify(s.surface(s.spans[0]), s.spans[0].label)

    def test_all_strategies_preserve_label_format(self):
        corpus = generate_synthetic_corpus(DIST, 400, seed=5)
        out = oversample_expand(corpus, seed=8)
        assert len(out) > len(corpus)
        formats = default_formats()
        for sentence in out:
            for span in sentence.spans:
                assert formats.verify(sentence.surface(span), span.label)

    def test_labels_unchanged(self):
        corpus, _ = self.rare_corpus()
        before = Counter(s.label for sent in corpus for s in sent.spans)
        out = oversample_expand(corpus, seed=4)
        after = Counter(s.label for sent in out for s in sent.spans)
        assert set(after) == set(before)
        for lab, count in before.items():
            assert after[lab] >= count
