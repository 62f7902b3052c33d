"""End-to-end hybrid normalization.

Per sentence: extract NSW spans, route each one, classify the
classifier-routed spans against the original text (replacements would
shift the context other spans depend on), then splice the spoken forms
right-to-left so earlier indices stay valid. Routing per span: priority
surfaces go straight to the rules, and so does a span with no legal
label; every other span's window goes to the classifier, and its argmax
label is rendered, with rule fallback (the probabilities kept in the
trace) if rendering fails; a span nothing can handle stays verbatim. A
system without a classifier is the rules-only baseline: every
non-priority span takes the fallback route.

The classifier decides each span from its own window, so nothing ties a
forward pass to one sentence: ``normalize_many`` routes every span of
every input first and classifies all the classifier-routed windows
together, and ``normalize`` is its one-sentence case. The windows run
in chunks of at most 16, sorted by NSW count (``predict_probs``): the
forward pass pads each window to its chunk's largest NSW count, so
sorting leaves little padding, and small chunks keep the arrays in
cache.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import reader
from .corpus import LabeledSentence, NSWSpan, extract_window
from .extractor import PriorityList, extract_nsw, priority_check
from .labels import DEFAULT_REGISTRY, LabelRegistry
from .neural import ClassifierConfig, EncoderParams, Vocabulary, predict_probs
from .rules import RuleSet, match_nsw

ROUTE_PRIORITY = "priority_rule"
ROUTE_NEURAL = "neural"
ROUTE_FALLBACK = "fallback_rule"
ROUTE_UNMATCHED = "unmatched"

_SENTENCE_SPLIT = re.compile(r"[^。！？!?；;\n]*[。！？!?；;\n]?")


def split_sentences(text: str) -> list[str]:
    """Thin pre-step for raw documents: split after sentence-final punctuation."""
    return [m.group() for m in _SENTENCE_SPLIT.finditer(text) if m.group()]


@dataclass
class NormalizationTrace:
    """Audit record for one NSW: route taken, label chosen, rendering."""

    span: NSWSpan
    route: str
    label: int | None = None
    sfw: str | None = None
    probabilities: np.ndarray | None = None

    def to_record(self, labels: LabelRegistry = DEFAULT_REGISTRY) -> dict:
        return {
            "start": self.span.start,
            "end": self.span.end,
            "route": self.route,
            "label": None if self.label is None else labels.by_id(self.label).name,
            "sfw": self.sfw,
            "probabilities": None
            if self.probabilities is None
            else [round(float(p), 6) for p in self.probabilities],
        }


@dataclass
class HybridSystem:
    """Everything inference needs; ``formats`` is the label registry.

    ``params``, ``config`` and ``vocab`` are all set or all ``None``; with
    none of them the system runs rules only.
    """

    rules: RuleSet
    priority: PriorityList
    params: EncoderParams | None
    config: ClassifierConfig | None
    vocab: Vocabulary | None
    formats: LabelRegistry

    def __post_init__(self):
        classifier = (self.params, self.config, self.vocab)
        if None in classifier and any(part is not None for part in classifier):
            raise ValueError("params, config and vocab must be all set or all None")
        if self.config is None:
            return
        if self.config.label_count != len(self.formats):
            raise ValueError("classifier label count and label registry disagree")
        if self.vocab.pad_id != self.config.pad_id:
            raise ValueError("vocabulary pad_id disagrees with config.pad_id")
        self.params.check_shapes(self.config, self.vocab.size)


def _rule_route(sys: HybridSystem, text: str, span: NSWSpan, surface: str, route: str, probs=None):
    match = match_nsw(sys.rules, text, span)
    if match is not None:
        try:
            sfw = reader.render(surface, match.label, sys.formats).text
            return NormalizationTrace(span, route, match.label, sfw, probs)
        except ValueError:
            pass
    return NormalizationTrace(span, ROUTE_UNMATCHED, None, None, probs)


def classifier_mask(sys: HybridSystem, surface: str) -> list[bool] | None:
    """Legal labels the classifier chooses among; ``None`` leaves the span to the rules."""
    if sys.params is None:
        return None
    if not sys.config.use_mask:
        return [True] * len(sys.formats)
    legal = sys.formats.legal_labels(surface)
    return legal if any(legal) else None


def normalize_many(
    texts: list[str], sys: HybridSystem
) -> list[tuple[str, list[NormalizationTrace]]]:
    """Normalize many sentences; returns (output text, per-NSW traces) per input."""
    traced = []  # (text, traces) per input; classifier-routed traces are filled in below
    pending = []  # (traces, index, text, span, surface, legal mask) for the classifier
    windows = []
    for text in texts:
        spans = extract_nsw(text)
        traces: list[NormalizationTrace | None] = [None] * len(spans)
        sentence = None
        for i, span in enumerate(spans):
            surface = text[span.start : span.end]
            if priority_check(surface, sys.priority):
                traces[i] = _rule_route(sys, text, span, surface, ROUTE_PRIORITY)
                continue
            legal = classifier_mask(sys, surface)
            if legal is None:
                traces[i] = _rule_route(sys, text, span, surface, ROUTE_FALLBACK)
                continue
            if sentence is None:
                sentence = LabeledSentence(text, ())
            windows.append(extract_window(sentence, span, sys.config.window))
            pending.append((traces, i, text, span, surface, legal))
        traced.append((text, traces))

    if pending:
        probs = predict_probs(
            sys.params,
            [sys.vocab.window_ids(window) for window in windows],
            [window.nsw_mask for window in windows],
            [legal for *_, legal in pending],
            sys.config.pad_id,
        )
        for (traces, i, text, span, surface, _), p in zip(pending, probs):
            label = int(np.argmax(p))
            try:
                sfw = reader.render(surface, label, sys.formats).text
            except ValueError:
                traces[i] = _rule_route(sys, text, span, surface, ROUTE_FALLBACK, p)
                continue
            traces[i] = NormalizationTrace(span, ROUTE_NEURAL, label, sfw, p)

    return [(_splice(text, traces), traces) for text, traces in traced]


def normalize(text: str, sys: HybridSystem) -> tuple[str, list[NormalizationTrace]]:
    """Normalize one sentence; returns the output text and per-NSW traces."""
    return normalize_many([text], sys)[0]


def _splice(text: str, traces: list[NormalizationTrace]) -> str:
    """Replace spans right-to-left so earlier indices stay valid."""
    out = text
    for trace in reversed(traces):
        if trace.sfw is not None:
            out = out[: trace.span.start] + trace.sfw + out[trace.span.end :]
    return out


def routing_stats(corpus, sys: HybridSystem) -> tuple[float, float, float]:
    """(priority, neural, fallback) fractions over all extracted spans.

    ``corpus`` is a list of sentences (labeled or raw strings). Priority
    and neural partition the spans; fallback is the sub-fraction of
    neural-routed spans that failed verification and flowed back.
    """
    priority = neural = fallback = 0
    texts = [item if isinstance(item, str) else item.text for item in corpus]
    for text, (_, traces) in zip(texts, normalize_many(texts, sys)):
        for trace in traces:
            if priority_check(text[trace.span.start : trace.span.end], sys.priority):
                priority += 1
            else:
                neural += 1
                if trace.route != ROUTE_NEURAL:
                    fallback += 1
    total = priority + neural
    if total == 0:
        return 0.0, 0.0, 0.0
    return priority / total, neural / total, fallback / neural if neural else 0.0


def write_traces(path: str, traced: list[tuple[str, list[NormalizationTrace]]],
                 labels: LabelRegistry = DEFAULT_REGISTRY) -> None:
    """Line-delimited audit records, one JSON object per NSW."""
    with open(path, "w", encoding="utf-8") as fh:
        for text, traces in traced:
            for trace in traces:
                record = {"text": text, **trace.to_record(labels)}
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
