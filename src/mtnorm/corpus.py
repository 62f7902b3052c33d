"""Labeled-sentence data model, context windows, and corpus synthesis.

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
from dataclasses import dataclass, replace
from importlib import resources

from .labels import DEFAULT_REGISTRY, LabelRegistry

PAD_CHAR = "\x00"

OVERSAMPLE_STRATEGIES = ("duplicate", "pad_prefix", "digit_jitter", "window_shift")


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


@dataclass(frozen=True)
class ContextWindow:
    """Fixed-width character window centered on an NSW."""

    chars: str
    nsw_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.chars) != len(self.nsw_mask):
            raise CorpusError("window chars and mask lengths differ")


def extract_window(sentence: LabeledSentence, span: NSWSpan, width: int = 30) -> ContextWindow:
    """Window of ``width`` chars centered on the span.

    Context splits evenly with the extra character on the right; positions
    outside the sentence read PAD_CHAR. An NSW longer than the window keeps
    its first ``width`` characters and drops context entirely.
    """
    text = sentence.text
    nsw_len = span.end - span.start
    if nsw_len >= width:
        chars = text[span.start : span.start + width]
        return ContextWindow(chars, (True,) * width)
    left = (width - nsw_len) // 2
    first = span.start - left
    chars = []
    mask = []
    for pos in range(first, first + width):
        if 0 <= pos < len(text):
            chars.append(text[pos])
        else:
            chars.append(PAD_CHAR)
        mask.append(span.start <= pos < span.end)
    return ContextWindow("".join(chars), tuple(mask))


def validate_span_surface(surface: str) -> bool:
    from .extractor import NSW_SPAN_VALID

    return NSW_SPAN_VALID.fullmatch(surface) is not None


# --------------------------------------------------------------------------
# Line-format IO
# --------------------------------------------------------------------------

def load_corpus(path: str, labels: LabelRegistry = DEFAULT_REGISTRY) -> list[LabeledSentence]:
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
                    NSWSpan(int(s), int(e), labels.id_of(name))
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


def save_corpus(
    corpus: list[LabeledSentence], path: str, labels: LabelRegistry = DEFAULT_REGISTRY
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in corpus:
            for span in sentence.spans:
                if span.label is None:
                    raise CorpusError(
                        f"cannot save unlabeled span at {span.start} in {sentence.text!r}"
                    )
            record = {
                "text": sentence.text,
                "spans": [[s.start, s.end, labels.by_id(s.label).name] for s in sentence.spans],
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
    labels: LabelRegistry = DEFAULT_REGISTRY,
) -> list[LabeledSentence]:
    """Deterministic template-based corpus following ``dist``."""
    if templates is None:
        templates = load_templates()
    names = [name for name, p in dist.proportions.items() if p > 0]
    weights = [dist.proportions[name] for name in names]
    by_name = {name: labels.by_name(name) for name in names}
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


def rare_labels(corpus: list[LabeledSentence], threshold: float = 0.05) -> set[int]:
    """Labels carried by fewer than ``threshold`` of the corpus's spans."""
    counts = Counter(span.label for sentence in corpus for span in sentence.spans)
    total = sum(counts.values())
    return {lab for lab, c in counts.items() if c / total < threshold}


def oversample_expand(
    corpus: list[LabeledSentence],
    strategies: set[str],
    seed: int,
    threshold: float = 0.05,
    factor: int = 3,
    labels: LabelRegistry = DEFAULT_REGISTRY,
) -> list[LabeledSentence]:
    """Append augmented copies of sentences carrying under-represented labels.

    ``factor`` copies per strategy per qualifying sentence; augmented spans
    keep their labels and still match their label's format.
    """
    for strategy in strategies:
        if strategy not in OVERSAMPLE_STRATEGIES:
            raise CorpusError(f"unknown oversampling strategy: {strategy!r}")
    rare = rare_labels(corpus, threshold)
    rng = random.Random(seed)
    out = list(corpus)
    for sentence in corpus:
        if not any(span.label in rare for span in sentence.spans):
            continue
        for strategy in sorted(strategies):
            for _ in range(factor):
                augmented = _augment(sentence, strategy, rng, rare, labels)
                if augmented is not None:
                    out.append(augmented)
    return out


def _augment(
    sentence: LabeledSentence,
    strategy: str,
    rng: random.Random,
    rare: set[int],
    labels: LabelRegistry,
) -> LabeledSentence | None:
    if strategy == "duplicate":
        return sentence
    if strategy == "pad_prefix":
        # Dropping leading characters turns them into window padding.
        room = min(span.start for span in sentence.spans)
        if room == 0:
            return None
        cut = rng.randint(1, min(3, room))
        spans = tuple(replace(s, start=s.start - cut, end=s.end - cut) for s in sentence.spans)
        return LabeledSentence(sentence.text[cut:], spans)
    if strategy == "window_shift":
        last_end = max(span.end for span in sentence.spans)
        room = len(sentence.text) - last_end
        if room == 0:
            return None
        cut = rng.randint(1, min(3, room))
        return LabeledSentence(sentence.text[:-cut], sentence.spans)
    if strategy == "digit_jitter":
        text = sentence.text
        for span in sorted(sentence.spans, key=lambda s: s.start, reverse=True):
            if span.label not in rare:
                continue
            jittered = _jitter_digits(sentence.surface(span), labels.by_id(span.label).format, rng)
            text = text[: span.start] + jittered + text[span.end :]
        return LabeledSentence(text, sentence.spans)
    raise CorpusError(f"unknown oversampling strategy: {strategy!r}")
