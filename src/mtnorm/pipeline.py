"""End-to-end hybrid normalization.

Per sentence: extract NSW spans, route each one, classify the
classifier-routed spans against the original text (replacements would
shift the context other spans depend on; ``Vocabulary.windows`` cuts
their windows from the text in one call), then splice the spoken forms
in with ``corpus.splice``. Each span's rule is matched once, by one
``match_nsw`` call before routing, and every route that needs a rule
takes that one. Routing per span: priority surfaces go straight to the
rule. With a classifier, so does a span whose rule is a context rule (a
``pre:`` or ``post:`` pattern), if that rule's reader accepts the
surface; these take the priority route too, before legality, windows
and the classifier. A span with no legal label takes the rule fallback.
A span with one legal label needs no classifier: its masked softmax
could only return that label's one-hot, so it gets that one-hot
directly. Every other span's window goes to the classifier. Each span's
legal labels are computed once, from the shipped label table
(``labels.DEFAULT_REGISTRY``): the chosen label is rendered by its
reader if the surface is legal for it, and otherwise, or if the reader
refuses, the span takes the rule fallback with its probabilities kept in
the trace; a span nothing can handle stays verbatim. A rule renders with
``Rule.read``. A reader that raises any exception, not only
``ValueError``, refuses just its own span. A system without a classifier
is the rules-only baseline: every non-priority span takes the fallback
route.

The classifier decides each span from its own window, so nothing ties a
forward pass to one sentence: ``normalize_many`` routes every span of
every input first and classifies all the classifier-routed windows
together, and ``normalize`` is its one-sentence case. The windows run
in chunks of at most 16, sorted by NSW count (``predict_probs``): the
forward pass pads each window to its chunk's largest NSW count, so
sorting leaves little padding, and small chunks keep the arrays in
cache. They run on the system's ``encoder``, the float32 inference form
of its parameters, frozen once when the system is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import NSWSpan, splice, write_jsonl
from .extractor import PriorityList, extract_nsw, priority_check
from .labels import DEFAULT_REGISTRY, LabelRegistry
from .neural import ClassifierConfig, EncoderParams, FrozenEncoder, Vocabulary, predict_probs
from .rules import Rule, RuleSet, match_nsw

ROUTE_PRIORITY = "priority_rule"
ROUTE_NEURAL = "neural"
ROUTE_FALLBACK = "fallback_rule"
ROUTE_UNMATCHED = "unmatched"


@dataclass
class NormalizationTrace:
    """Audit record for one NSW: route taken, label chosen, rendering."""

    span: NSWSpan
    route: str
    label: int | None = None
    sfw: str | None = None
    probabilities: np.ndarray | None = None

    def to_record(self) -> dict:
        return {
            "start": self.span.start,
            "end": self.span.end,
            "route": self.route,
            "label": None if self.label is None else DEFAULT_REGISTRY.by_id(self.label).name,
            "sfw": self.sfw,
            "probabilities": None
            if self.probabilities is None
            else [round(float(p), 6) for p in self.probabilities],
        }


@dataclass
class HybridSystem:
    """Everything inference needs; labels come from the shipped label table.

    ``formats`` must be that table, ``labels.DEFAULT_REGISTRY``; nothing
    reads the field, which stays only because the benchmark harness builds
    the system with it. ``params``, ``config`` and ``vocab`` are all set or
    all ``None``; with none of them the system runs rules only.
    ``encoder`` is ``params`` frozen for inference once, at construction:
    the classifier runs on it, and ``params`` stays the float64 object
    given.
    """

    rules: RuleSet
    priority: PriorityList
    params: EncoderParams | None
    config: ClassifierConfig | None
    vocab: Vocabulary | None
    formats: LabelRegistry
    encoder: FrozenEncoder | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.formats is not DEFAULT_REGISTRY:
            raise ValueError("formats must be the shipped label table, labels.DEFAULT_REGISTRY")
        classifier = (self.params, self.config, self.vocab)
        if None in classifier and any(part is not None for part in classifier):
            raise ValueError("params, config and vocab must be all set or all None")
        if self.config is None:
            return
        if self.config.label_count != len(DEFAULT_REGISTRY):
            raise ValueError("classifier label count and label table disagree")
        self.params.check_shapes(self.config, self.vocab.size)
        self.encoder = FrozenEncoder.freeze(self.params)


def _rule_route(rule: Rule | None, span: NSWSpan, surface: str, route: str, probs=None):
    if rule is not None:
        try:
            sfw = rule.read(surface)
        except Exception:  # a reader fault stays inside its span
            pass
        else:
            return NormalizationTrace(span, route, rule.label, sfw, probs)
    return NormalizationTrace(span, ROUTE_UNMATCHED, None, None, probs)


def _neural_route(
    rule: Rule | None, span: NSWSpan, surface: str, legal: list[bool], probs: np.ndarray
):
    """Render the argmax label if ``legal`` admits it, else take the rule fallback."""
    label = int(probs.argmax())
    if legal[label]:
        try:
            sfw = DEFAULT_REGISTRY.by_id(label).read(surface)
        except Exception:  # a reader fault stays inside its span
            pass
        else:
            return NormalizationTrace(span, ROUTE_NEURAL, label, sfw, probs)
    return _rule_route(rule, span, surface, ROUTE_FALLBACK, probs)


def normalize_many(
    texts: list[str], sys: HybridSystem
) -> list[tuple[str, list[NormalizationTrace]]]:
    """Normalize many sentences; returns (output text, per-NSW traces) per input."""
    traced = []  # (text, traces) per input; classifier-routed traces are filled in below
    pending = []  # (traces, index, rule, span, surface, legal labels) for the classifier
    windows = []  # (ids, NSW masks) of the classifier-routed spans, per input
    masks = []  # the classifier's label mask per pending span
    for text in texts:
        spans = extract_nsw(text)
        traces: list[NormalizationTrace | None] = [None] * len(spans)
        routed = []
        for i, span in enumerate(spans):
            surface = text[span.start : span.end]
            rule = match_nsw(sys.rules, text, span)
            if priority_check(surface, sys.priority):
                traces[i] = _rule_route(rule, span, surface, ROUTE_PRIORITY)
                continue
            if sys.encoder is None:
                traces[i] = _rule_route(rule, span, surface, ROUTE_FALLBACK)
                continue
            if rule is not None and rule.context:
                try:
                    sfw = rule.read(surface)
                except Exception:
                    pass  # the classifier decides, as for any other span
                else:
                    traces[i] = NormalizationTrace(span, ROUTE_PRIORITY, rule.label, sfw)
                    continue
            legal = DEFAULT_REGISTRY.legal_labels(surface)
            mask = legal if sys.config.use_mask else [True] * len(legal)
            choices = sum(mask)
            if choices == 0:
                traces[i] = _rule_route(rule, span, surface, ROUTE_FALLBACK)
            elif choices == 1:
                # the masked softmax of any logits: exactly 1.0 there, 0.0 elsewhere
                onehot = np.array(mask, dtype=np.float64)
                traces[i] = _neural_route(rule, span, surface, legal, onehot)
            else:
                routed.append(span)
                pending.append((traces, i, rule, span, surface, legal))
                masks.append(mask)
        if routed:
            windows.append(sys.vocab.windows(text, routed, sys.config.window))
        traced.append((text, traces))

    if pending:
        ids, nsw = windows[0] if len(windows) == 1 else map(np.concatenate, zip(*windows))
        probs = predict_probs(sys.encoder, ids, nsw, masks)
        for (traces, i, rule, span, surface, legal), p in zip(pending, probs):
            traces[i] = _neural_route(rule, span, surface, legal, p)

    return [
        (splice(text, ((t.span, t.sfw) for t in traces if t.sfw is not None)), traces)
        for text, traces in traced
    ]


def normalize(text: str, sys: HybridSystem) -> tuple[str, list[NormalizationTrace]]:
    """Normalize one sentence; returns the output text and per-NSW traces."""
    return normalize_many([text], sys)[0]


def routing_stats(corpus, sys: HybridSystem) -> tuple[float, float, float]:
    """(priority, neural, fallback) fractions over all extracted spans.

    ``corpus`` is a list of sentences (labeled or raw strings). Read from
    the traces: priority is the ``priority_rule`` share (with a classifier,
    context-rule spans too) and neural the share that was scored (the
    traces with probabilities, a one-hot for a span with one legal label);
    fallback is the sub-fraction of the scored spans that the neural route
    did not render. Spans with no legal label, and every non-priority span
    of a system without a classifier, are in neither.
    """
    texts = [item if isinstance(item, str) else item.text for item in corpus]
    traces = [trace for _, traced in normalize_many(texts, sys) for trace in traced]
    if not traces:
        return 0.0, 0.0, 0.0
    priority = sum(trace.route == ROUTE_PRIORITY for trace in traces)
    neural = sum(trace.probabilities is not None for trace in traces)
    fallback = neural - sum(trace.route == ROUTE_NEURAL for trace in traces)
    return priority / len(traces), neural / len(traces), fallback / neural if neural else 0.0


def write_traces(path: str, traced: list[tuple[str, list[NormalizationTrace]]]) -> None:
    """Line-delimited audit records, one JSON object per NSW."""
    records = ({"text": text, **trace.to_record()} for text, traces in traced for trace in traces)
    write_jsonl(path, records)
