"""Metrics and experiment harnesses.

Per-label precision/recall/F1 with zero denominators scored 0, exact-match
pattern accuracy, character-exact sentence accuracy, golden-set comparison
of the hybrid system against the rule-only baseline, and the ablation grid
runner, which trains one model per entry and scores each with that
comparison. A golden set is a list of (``LabeledSentence``, reference
output) pairs, stored as corpus records whose text key is ``"input"``,
plus a ``"reference"`` string.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from . import pipeline, reader
from .corpus import CorpusError, LabeledSentence, decode_sentence, encode_spans, oversample_expand
from .corpus import read_json, read_jsonl, splice, write_jsonl
from .labels import DEFAULT_REGISTRY
from .neural import ClassifierConfig, train


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int


def pattern_metrics(
    predictions: list[tuple[int, int]],
) -> tuple[dict[str, LabelMetrics], float]:
    """Per-label precision/recall/F1 and overall accuracy from (gold, predicted) pairs."""
    if not predictions:
        raise ValueError("no predictions to score")
    tp: dict[int, int] = {}
    fp: dict[int, int] = {}
    fn: dict[int, int] = {}
    correct = 0
    for gold, pred in predictions:
        if gold == pred:
            correct += 1
            tp[gold] = tp.get(gold, 0) + 1
        else:
            fp[pred] = fp.get(pred, 0) + 1
            fn[gold] = fn.get(gold, 0) + 1
    per_label = {}
    for lab in DEFAULT_REGISTRY:
        t, p, n = tp.get(lab.id, 0), fp.get(lab.id, 0), fn.get(lab.id, 0)
        precision = t / (t + p) if t + p else 0.0
        recall = t / (t + n) if t + n else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[lab.name] = LabelMetrics(precision, recall, f1, support=t + n)
    return per_label, correct / len(predictions)


def sentence_accuracy(pairs: list[tuple[str, str]]) -> float:
    """Fraction of exactly equal (system output, reference) pairs."""
    if not pairs:
        raise ValueError("no sentence pairs to score")
    return sum(1 for out, ref in pairs if out == ref) / len(pairs)


# --------------------------------------------------------------------------
# Golden sets: labelled input sentences with reference outputs
# --------------------------------------------------------------------------

Golden = list[tuple[LabeledSentence, str]]  # (input with gold spans, reference) per record


def reference_sfw(sentence: LabeledSentence) -> str:
    """Reference output: every gold span rendered by its own label's reader."""
    sfws = ((span, reader.render(sentence.surface(span), span.label)) for span in sentence.spans)
    return splice(sentence.text, sfws)


def build_golden(corpus: list[LabeledSentence]) -> Golden:
    return [(sentence, reference_sfw(sentence)) for sentence in corpus]


def save_golden(golden: Golden, path: str) -> None:
    records = ({"input": s.text, "reference": ref, "spans": encode_spans(s)} for s, ref in golden)
    write_jsonl(path, records)


def load_golden(path: str) -> Golden:
    """Gold spans skip the label check, so spans the extractor never finds load."""

    def decode(record):
        sentence = decode_sentence(record, "input")
        if not isinstance(record.get("reference"), str):
            raise CorpusError(f"record needs a string 'reference': {record!r}")
        return sentence, record["reference"]

    return read_jsonl(path, decode)


@dataclass
class GoldenReport:
    hybrid_sentence_accuracy: float
    rules_sentence_accuracy: float
    hybrid_pattern_accuracy: float
    rules_pattern_accuracy: float
    per_label: dict[str, LabelMetrics]
    unextracted_gold_spans: int


def evaluate_golden(golden: Golden, sys: pipeline.HybridSystem) -> GoldenReport:
    """Hybrid vs rule-only on a golden set; pattern metrics from hybrid traces.

    The baseline is the same system with the classifier removed. Gold spans
    at offsets no extracted span has are counted, not scored.
    """
    rules_sys = replace(sys, params=None, config=None, vocab=None)
    texts = [sentence.text for sentence, _ in golden]
    hybrid_pairs, rule_pairs = [], []
    hybrid_span_pairs, rule_span_pairs = [], []
    unextracted = 0
    for (sentence, reference), (hybrid_out, hybrid_traces), (rules_out, rule_traces) in zip(
        golden, pipeline.normalize_many(texts, sys), pipeline.normalize_many(texts, rules_sys)
    ):
        hybrid_pairs.append((hybrid_out, reference))
        rule_pairs.append((rules_out, reference))
        gold_by_span = {(s.start, s.end): s.label for s in sentence.spans}
        # both systems extract the same spans; only their labels differ
        for hybrid, rules in zip(hybrid_traces, rule_traces):
            gold = gold_by_span.pop((hybrid.span.start, hybrid.span.end), None)
            if gold is not None:
                hybrid_span_pairs.append((gold, -1 if hybrid.label is None else hybrid.label))
                rule_span_pairs.append((gold, -1 if rules.label is None else rules.label))
        unextracted += len(gold_by_span)
    if hybrid_span_pairs:
        per_label, hybrid_acc = pattern_metrics(hybrid_span_pairs)
        _, rules_acc = pattern_metrics(rule_span_pairs)
    else:  # golden records without gold spans still score sentences
        per_label, hybrid_acc, rules_acc = {}, float("nan"), float("nan")
    return GoldenReport(
        hybrid_sentence_accuracy=sentence_accuracy(hybrid_pairs),
        rules_sentence_accuracy=sentence_accuracy(rule_pairs),
        hybrid_pattern_accuracy=hybrid_acc,
        rules_pattern_accuracy=rules_acc,
        per_label=per_label,
        unextracted_gold_spans=unextracted,
    )


def golden_report_records(report: GoldenReport) -> list[dict]:
    """Machine-readable line records mirroring the aligned table.

    A pattern accuracy with no gold span to score is ``null``, where the
    table prints ``nan``: JSON has no NaN.
    """

    def defined(accuracy: float) -> float | None:
        return None if math.isnan(accuracy) else accuracy

    records = [
        {"record": "system", "name": "rules",
         "sentence_accuracy": report.rules_sentence_accuracy,
         "pattern_accuracy": defined(report.rules_pattern_accuracy)},
        {"record": "system", "name": "hybrid",
         "sentence_accuracy": report.hybrid_sentence_accuracy,
         "pattern_accuracy": defined(report.hybrid_pattern_accuracy)},
        {"record": "unextracted_gold_spans", "count": report.unextracted_gold_spans},
    ]
    return records + [
        {"record": "label", "name": name, **asdict(m)} for name, m in report.per_label.items()
    ]


def format_golden_report(report: GoldenReport) -> str:
    lines = [
        f"{'system':24s}  {'sentence acc':>12s}  {'pattern acc':>11s}",
        f"{'rule-based baseline':24s}  {report.rules_sentence_accuracy:12.4f}  "
        f"{report.rules_pattern_accuracy:11.4f}",
        f"{'hybrid system':24s}  {report.hybrid_sentence_accuracy:12.4f}  "
        f"{report.hybrid_pattern_accuracy:11.4f}",
        f"gold spans no extracted span matches (not scored): {report.unextracted_gold_spans}",
        "",
        f"{'pattern':20s}  {'precision':>9s}  {'recall':>7s}  {'F1':>7s}  {'support':>7s}",
    ]
    lines += [
        f"{name:20s}  {m.precision:9.3f}  {m.recall:7.3f}  {m.f1:7.3f}  {m.support:7d}"
        for name, m in report.per_label.items()
        if m.support
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Ablation grid
# --------------------------------------------------------------------------

ABLATION_GRID = (
    {"name": "proposed"},
    {"name": "max_window", "window": "max"},
    {"name": "ce_loss", "alpha": 1.0, "gamma": 0.0},
    {"name": "no_mask", "use_mask": False},
    {"name": "data_expansion", "expand": True},
)


def load_grid(path: str) -> list[dict]:
    def decode(grid):
        if not isinstance(grid, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str) for e in grid
        ):
            raise CorpusError("ablation grid must be a list of objects with a string 'name'")
        return grid

    return read_json(path, decode)


def run_ablation(
    grid: list[dict],
    corpus: list[LabeledSentence],
    golden: Golden,
    system: pipeline.HybridSystem,
    seed: int,
    base_config: ClassifierConfig | None = None,
) -> list[tuple[str, GoldenReport | str]]:
    """Train one model per grid entry on ``corpus`` and score it with
    ``evaluate_golden``, as ``system``'s classifier.

    An entry is a name plus the config fields it changes, and two knobs of
    its own: ``"window": "max"`` is the longest corpus sentence, and
    ``"expand": true`` trains on ``oversample_expand`` of the corpus, drawn
    with the entry's seed. Each entry gives its name with its report, or
    with its error message.
    """
    base = replace(base_config or ClassifierConfig(), seed=seed)
    results = []
    for entry in grid:
        entry = dict(entry)
        name = entry.pop("name")
        try:
            expand = entry.pop("expand", False)
            if not isinstance(expand, bool):
                raise TypeError(f"expand must be true or false, not {expand!r}")
            if entry.get("window") == "max":
                entry["window"] = max(len(s.text) for s in corpus)
            config = replace(base, **entry)
            result = train(oversample_expand(corpus, config.seed) if expand else corpus, config)
            trained = replace(system, params=result.params, config=config, vocab=result.vocab)
            results.append((name, evaluate_golden(golden, trained)))
        except Exception as exc:  # keep the grid running past a bad entry
            results.append((name, str(exc)))
    return results
