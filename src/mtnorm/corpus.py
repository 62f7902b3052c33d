"""Labeled-sentence data model, corpus IO, synthesis and oversampling.

Corpus line format: one JSON object per line, UTF-8,
``{"text": "...", "spans": [[start, end, "LabelName"], ...]}`` with
character offsets over Unicode scalar values (never bytes, never substring
search — repeated surfaces stay unambiguous).
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .labels import DEFAULT_REGISTRY


class CorpusError(ValueError):
    """Malformed corpus data or misconfigured generation."""


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
        prev_end = 0
        for span in sorted(self.spans, key=lambda s: s.start):
            if span.end > len(self.text):
                raise CorpusError(
                    f"span ({span.start}, {span.end}) exceeds text length {len(self.text)}"
                )
            if span.start < prev_end:
                raise CorpusError(f"overlapping span at {span.start} in {self.text!r}")
            prev_end = span.end
        object.__setattr__(self, "spans", tuple(sorted(self.spans, key=lambda s: s.start)))

    def surface(self, span: NSWSpan) -> str:
        return self.text[span.start : span.end]


def validate_span_surface(surface: str) -> bool:
    from .extractor import NSW_SPAN_VALID

    return NSW_SPAN_VALID.fullmatch(surface) is not None


# --------------------------------------------------------------------------
# Line-format IO
# --------------------------------------------------------------------------

def load_corpus(path: str) -> list[LabeledSentence]:
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                text = record["text"]
                spans = tuple(
                    NSWSpan(int(s), int(e), DEFAULT_REGISTRY.id_of(name))
                    for s, e, name in record.get("spans", [])
                )
                sentence = LabeledSentence(text, spans)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            for span in sentence.spans:
                if not validate_span_surface(sentence.surface(span)):
                    raise CorpusError(
                        f"{path}:{lineno}: span surface {sentence.surface(span)!r} "
                        "does not look like an NSW"
                    )
            sentences.append(sentence)
    return sentences


def save_corpus(corpus: list[LabeledSentence], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in corpus:
            for span in sentence.spans:
                if span.label is None:
                    raise CorpusError(
                        f"cannot save unlabeled span at {span.start} in {sentence.text!r}"
                    )
            record = {
                "text": sentence.text,
                "spans": [
                    [s.start, s.end, DEFAULT_REGISTRY.by_id(s.label).name] for s in sentence.spans
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# --------------------------------------------------------------------------
# Distribution and templates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusDistribution:
    """Per-label target proportions; must sum to 1."""

    proportions: dict[str, float]

    def __post_init__(self):
        total = sum(self.proportions.values())
        if abs(total - 1.0) > 1e-9:
            raise CorpusError(f"label proportions sum to {total}, not 1")
        for name, p in self.proportions.items():
            if not 0.0 <= p <= 1.0:
                raise CorpusError(f"bad proportion for {name}: {p}")

    @classmethod
    def from_file(cls, path: str) -> "CorpusDistribution":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    @classmethod
    def default(cls) -> "CorpusDistribution":
        text = resources.files("mtnorm").joinpath("data/distribution.json").read_text("utf-8")
        return cls(json.loads(text))


@dataclass(frozen=True)
class LabelTemplates:
    nsw_spec: str
    templates: tuple[str, ...]


def load_templates(path: str | None = None) -> dict[str, LabelTemplates]:
    """Template registry: label -> {NSW}-slotted templates + surface generator."""
    if path is None:
        text = resources.files("mtnorm").joinpath("data/templates.json").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    raw = json.loads(text)
    registry = {}
    for name, entry in raw.items():
        templates = tuple(entry["templates"])
        for tpl in templates:
            if tpl.count("{NSW}") != 1:
                raise CorpusError(f"template for {name} needs exactly one {{NSW}} slot: {tpl!r}")
        registry[name] = LabelTemplates(entry["nsw"], templates)
    return registry


def _gen_surface(spec: str, rng: random.Random) -> str:
    kind, _, arg = spec.partition(":")
    if kind == "int":
        lo, hi = (int(x) for x in arg.split("-"))
        return str(rng.randint(lo, hi))
    if kind == "digits":
        lo, hi = (int(x) for x in arg.split("-"))
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(lo, hi)))
    if kind == "year":
        return str(rng.randint(1950, 2099))
    if kind == "time":
        return f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}"
    if kind == "date":
        return f"{rng.randint(1950, 2030)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    if kind == "score":
        sep = rng.choice("-:")
        hi = 30 if sep == ":" else 150
        return f"{rng.randint(0, hi)}{sep}{rng.randint(0, 59)}"
    if kind == "range":
        lo = rng.randint(0, 995)
        hi = rng.randint(lo + 1, lo + 200)
        if rng.random() < 0.2:
            return f"{lo}.{rng.randint(0, 9)}{rng.choice('-~—')}{hi}.{rng.randint(0, 9)}"
        return f"{lo}{rng.choice('-~—')}{hi}"
    if kind == "percent":
        if rng.random() < 0.3:
            return f"{rng.randint(0, 99)}.{rng.randint(0, 9)}%"
        return f"{rng.randint(0, 100)}%"
    if kind == "phone":
        return "1" + rng.choice("3456789") + "".join(rng.choice("0123456789") for _ in range(9))
    if kind == "two":
        return "2"
    if kind == "per":
        num = rng.randint(1, 99)
        left_unit = rng.choice(["", "人", "件", "次", "元", "公里", "毫克"])
        right_unit = rng.choice(["组", "天", "周", "小时", "人", "箱"])
        return f"{num}{left_unit}/{right_unit}"
    if kind == "dollar":
        return f"${rng.randint(1, 9999)}"
    raise CorpusError(f"unknown NSW generator spec: {spec!r}")


def generate_synthetic_corpus(
    dist: CorpusDistribution,
    n: int,
    seed: int,
    templates: dict[str, LabelTemplates] | None = None,
) -> list[LabeledSentence]:
    """Deterministic template-based corpus following ``dist``."""
    if templates is None:
        templates = load_templates()
    names = [name for name, p in dist.proportions.items() if p > 0]
    weights = [dist.proportions[name] for name in names]
    by_name = {name: DEFAULT_REGISTRY.by_name(name) for name in names}
    for name in names:
        if name not in templates:
            raise CorpusError(f"label {name} has nonzero proportion but no templates")
    rng = random.Random(seed)
    corpus = []
    for _ in range(n):
        name = rng.choices(names, weights=weights, k=1)[0]
        entry = templates[name]
        template = rng.choice(entry.templates)
        surface = _gen_surface(entry.nsw_spec, rng)
        if by_name[name].format.fullmatch(surface) is None:
            raise CorpusError(
                f"generator {entry.nsw_spec!r} produced {surface!r}, illegal for {name}"
            )
        start = template.index("{NSW}")
        text = template.replace("{NSW}", surface)
        span = NSWSpan(start, start + len(surface), by_name[name].id)
        corpus.append(LabeledSentence(text, (span,)))
    return corpus


# --------------------------------------------------------------------------
# Oversampling for rare labels
# --------------------------------------------------------------------------

def _jitter_digits(surface: str, pattern: re.Pattern, rng: random.Random) -> str:
    for _ in range(20):
        candidate = "".join(
            rng.choice("0123456789") if ch.isdigit() else ch for ch in surface
        )
        if pattern.fullmatch(candidate) and validate_span_surface(candidate):
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
    text = sentence.text
    for span in sorted(sentence.spans, key=lambda s: s.start, reverse=True):
        if span.label not in rare:
            continue
        label_format = DEFAULT_REGISTRY.by_id(span.label).format
        jittered = _jitter_digits(sentence.surface(span), label_format, rng)
        text = text[: span.start] + jittered + text[span.end :]
    return LabeledSentence(text, sentence.spans)
