"""Labeled-sentence data model, input files, synthesis and oversampling.

Every input file but the checkpoint is read here, by ``read_jsonl`` (one
JSON object per line, UTF-8), ``read_json`` or ``read_text``; each drops one
leading UTF-8 byte-order mark, and any fault raises ``CorpusError`` naming
the file. A corpus record is
``{"text": "...", "spans": [[start, end, "LabelName"], ...]}``
(``decode_sentence``, ``encode_spans``), with character offsets over
Unicode scalar values (never bytes, never substring search — repeated
surfaces stay unambiguous).

Synthesis fills a label's templates (``load_templates``: contexts only) with
surfaces drawn by the label itself (``PatternLabel.draw``), so a label's
format, reader and numeric domain all live in its row of the label table.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .labels import DEFAULT_REGISTRY


class CorpusError(ValueError):
    """Malformed input file or corpus data, or misconfigured generation."""


@dataclass(frozen=True)
class NSWSpan:
    """Character span of one NSW; ``label`` is a pattern id once known."""

    start: int
    end: int
    label: int | None = None

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise CorpusError(f"bad span bounds: ({self.start}, {self.end})")


@dataclass(frozen=True)
class LabeledSentence:
    text: str
    spans: tuple[NSWSpan, ...] = ()

    def __post_init__(self):
        spans = tuple(sorted(self.spans, key=lambda s: s.start))
        prev_end = 0
        for span in spans:
            if span.end > len(self.text):
                raise CorpusError(
                    f"span ({span.start}, {span.end}) exceeds text length {len(self.text)}"
                )
            if span.start < prev_end:
                raise CorpusError(f"overlapping span at {span.start} in {self.text!r}")
            prev_end = span.end
        object.__setattr__(self, "spans", spans)

    def surface(self, span: NSWSpan) -> str:
        return self.text[span.start : span.end]


# --------------------------------------------------------------------------
# Input files (JSON lines, JSON, text) and record files
# --------------------------------------------------------------------------

def data_path(name: str) -> str:
    """Path of a file shipped under ``mtnorm/data``."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def read_json(path: str, decode: Callable):
    """``decode`` of the file's JSON; a ``ValueError`` or ``TypeError`` names ``path``."""
    with open(path, "rb") as fh:  # decoded below, so bad UTF-8 is a ValueError the try names
        raw = fh.read()
    try:
        return decode(json.loads(raw.decode("utf-8-sig")))
    except (ValueError, TypeError) as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def read_text(path: str) -> str:
    """The file as ``decode_text`` decodes it; a decode fault names ``path``."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def decode_text(data: bytes, source: str) -> str:
    """UTF-8 bytes as text without a leading byte-order mark, newlines
    translated as text-mode ``open`` does; a decode fault names ``source``."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{source}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def encode_spans(sentence: LabeledSentence) -> list[list]:
    """``[start, end, LabelName]`` per span, the layout ``decode_sentence`` reads."""
    if any(span.label is None for span in sentence.spans):
        raise CorpusError(f"cannot save unlabeled span in {sentence.text!r}")
    return [[s.start, s.end, DEFAULT_REGISTRY.by_id(s.label).name] for s in sentence.spans]


def decode_sentence(record, text_key: str = "text") -> LabeledSentence:
    """The sentence of a record: its ``text_key`` string and optional ``spans``."""
    if not isinstance(record, dict) or not isinstance(record.get(text_key), str):
        raise CorpusError(f"record needs a string {text_key!r}: {record!r}")
    raw = record.get("spans", [])
    if not isinstance(raw, list):
        raise CorpusError(f"'spans' must be a list: {raw!r}")
    spans = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 3 and all(type(x) is int for x in item[:2])
                and isinstance(item[2], str) and item[2] in DEFAULT_REGISTRY):
            raise CorpusError(f"span is not [int start, int end, known LabelName]: {item!r}")
        spans.append(NSWSpan(item[0], item[1], DEFAULT_REGISTRY.id_of(item[2])))
    return LabeledSentence(record[text_key], tuple(spans))


def read_jsonl(path: str, decode: Callable) -> list:
    """``decode`` of each non-blank line's JSON; a ``ValueError`` names ``path:line``."""
    items = []
    with open(path, "rb") as fh:  # json.loads decodes each line, so bad UTF-8 names its line
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                items.append(decode(json.loads(line)))
            except ValueError as exc:  # CorpusError, JSONDecodeError and UnicodeDecodeError
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    return items


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """One JSON object per line; a NaN or infinite float raises ``ValueError``,
    since strict JSON has no literal for it."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n")


def splice(text: str, replacements: Iterable[tuple[NSWSpan, str]]) -> str:
    """``text`` with each span replaced; spans in text order, not overlapping."""
    parts, pos = [], 0
    for span, replacement in replacements:
        parts.append(text[pos : span.start])
        parts.append(replacement)
        pos = span.end
    parts.append(text[pos:])
    return "".join(parts)


def load_corpus(path: str) -> list[LabeledSentence]:
    """Corpus records whose every span surface is legal for the span's label."""

    def decode(record):
        sentence = decode_sentence(record)
        for span in sentence.spans:
            surface = sentence.surface(span)
            if not DEFAULT_REGISTRY.verify(surface, span.label):
                raise CorpusError(
                    f"span label {DEFAULT_REGISTRY.by_id(span.label).name} is illegal for "
                    f"{surface!r} in {sentence.text!r}"
                )
        return sentence

    return read_jsonl(path, decode)


def save_corpus(corpus: list[LabeledSentence], path: str) -> None:
    write_jsonl(path, ({"text": s.text, "spans": encode_spans(s)} for s in corpus))


# --------------------------------------------------------------------------
# Distribution and templates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusDistribution:
    """Label name -> target proportion, as a JSON object; must sum to 1."""

    proportions: dict[str, float]

    def __post_init__(self):
        if not isinstance(self.proportions, dict):
            raise CorpusError(f"label distribution must be an object: {self.proportions!r}")
        for name, p in self.proportions.items():
            if name not in DEFAULT_REGISTRY:
                raise CorpusError(f"unknown label name: {name}")
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
                raise CorpusError(f"bad proportion for {name}: {p!r}")
        total = sum(self.proportions.values())
        if abs(total - 1.0) > 1e-9:
            raise CorpusError(f"label proportions sum to {total}, not 1")

    @classmethod
    def default(cls) -> "CorpusDistribution":
        return read_json(data_path("distribution.json"), cls)


def load_templates(path: str | None = None) -> dict[str, tuple[str, ...]]:
    """Template registry (default: shipped): label name -> its {NSW}-slotted templates."""

    def decode(raw):
        if not isinstance(raw, dict):
            raise CorpusError(f"template registry must be an object: {raw!r}")
        for name, templates in raw.items():
            if name not in DEFAULT_REGISTRY:
                raise CorpusError(f"unknown label name: {name}")
            if not isinstance(templates, list):
                raise CorpusError(f"templates for {name} must be a list: {templates!r}")
            for tpl in templates:
                if not isinstance(tpl, str) or tpl.count("{NSW}") != 1:
                    raise CorpusError(f"template for {name} needs exactly one {{NSW}} slot: {tpl!r}")
        return {name: tuple(templates) for name, templates in raw.items()}

    return read_json(path or data_path("templates.json"), decode)


def generate_synthetic_corpus(
    dist: CorpusDistribution,
    n: int,
    seed: int,
    templates: dict[str, tuple[str, ...]] | None = None,
) -> list[LabeledSentence]:
    """Deterministic corpus following ``dist``: one template and one drawn surface a sentence.

    ``n`` and ``seed`` must be non-negative: ``random.Random`` seeds with
    an integer's absolute value, so a negative seed would silently repeat
    its positive twin.
    """
    if n < 0:
        raise CorpusError(f"sentence count must be >= 0, got {n}")
    if seed < 0:
        raise CorpusError(f"seed must be >= 0, got {seed}")
    if templates is None:
        templates = load_templates()
    names = [name for name, p in dist.proportions.items() if p > 0]
    weights = [dist.proportions[name] for name in names]
    by_name = {name: DEFAULT_REGISTRY.by_name(name) for name in names}
    for name in names:
        if not templates.get(name):
            raise CorpusError(f"label {name} has nonzero proportion but no templates")
    rng = random.Random(seed)
    corpus = []
    for _ in range(n):
        name = rng.choices(names, weights=weights, k=1)[0]
        template = rng.choice(templates[name])
        label = by_name[name]
        surface = label.draw(rng)
        if label.format.fullmatch(surface) is None:
            raise CorpusError(f"{name} drew {surface!r}, which its format rejects")
        start = template.index("{NSW}")
        text = template.replace("{NSW}", surface)
        corpus.append(LabeledSentence(text, (NSWSpan(start, start + len(surface), label.id),)))
    return corpus


# --------------------------------------------------------------------------
# Oversampling for rare labels
# --------------------------------------------------------------------------

def _jitter_digits(surface: str, pattern: re.Pattern, rng: random.Random) -> str:
    for _ in range(20):
        candidate = "".join(
            rng.choice("0123456789") if ch.isdigit() else ch for ch in surface
        )
        if pattern.fullmatch(candidate):
            return candidate
    return surface


def rare_labels(corpus: list[LabeledSentence]) -> set[int]:
    """Labels carried by fewer than 5% of the corpus's spans."""
    counts = Counter(span.label for sentence in corpus for span in sentence.spans)
    total = sum(counts.values())
    return {lab for lab, c in counts.items() if c / total < 0.05}


def oversample_expand(corpus: list[LabeledSentence], seed: int) -> list[LabeledSentence]:
    """Append augmented copies of sentences carrying under-represented labels.

    Each sentence with a ``rare_labels`` span gets three copies whose rare
    spans' digits are redrawn within their label's format, then three plain
    duplicates. Copies keep every span and label.
    """
    rare = rare_labels(corpus)
    rng = random.Random(seed)
    out = list(corpus)
    for sentence in corpus:
        if any(span.label in rare for span in sentence.spans):
            out.extend(_jitter_rare_spans(sentence, rare, rng) for _ in range(3))
            out.extend([sentence] * 3)
    return out


def _jitter_rare_spans(
    sentence: LabeledSentence, rare: set[int], rng: random.Random
) -> LabeledSentence:
    # digits are redrawn right to left, the order the seeded draws follow
    jittered = []
    for span in reversed(sentence.spans):
        if span.label in rare:
            label_format = DEFAULT_REGISTRY.by_id(span.label).format
            jittered.append((span, _jitter_digits(sentence.surface(span), label_format, rng)))
    return LabeledSentence(splice(sentence.text, reversed(jittered)), sentence.spans)
