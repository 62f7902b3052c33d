"""Metrics and experiment harnesses.

Per-label precision/recall/F1 with zero denominators scored 0, exact-match
pattern accuracy, character-exact sentence accuracy, the deterministic
80/10/10 split, golden-set comparison of the hybrid system against the
rule-only baseline, and the ablation grid runner.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from . import pipeline, reader
from .corpus import LabeledSentence, oversample_expand, rare_labels
from .labels import DEFAULT_REGISTRY
from .neural import ClassifierConfig, make_training_batch, predict_batch, train


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


def split_corpus(
    corpus: list[LabeledSentence], seed: int
) -> tuple[list[LabeledSentence], list[LabeledSentence], list[LabeledSentence]]:
    """Deterministic 80/10/10 train/dev/test split by seeded shuffle."""
    order = list(corpus)
    random.Random(seed).shuffle(order)
    n = len(order)
    a, b = int(n * 0.8), int(n * 0.9)
    return order[:a], order[a:b], order[b:]


# --------------------------------------------------------------------------
# Golden sets: (input, reference) sentence pairs with gold spans
# --------------------------------------------------------------------------

def reference_sfw(sentence: LabeledSentence) -> str:
    """Reference output: every gold span rendered by its own label's reader."""
    out = sentence.text
    for span in sorted(sentence.spans, key=lambda s: s.start, reverse=True):
        sfw = reader.render(sentence.surface(span), span.label)
        out = out[: span.start] + sfw + out[span.end :]
    return out


def build_golden(corpus: list[LabeledSentence]) -> list[dict]:
    records = []
    for sentence in corpus:
        records.append(
            {
                "input": sentence.text,
                "reference": reference_sfw(sentence),
                "spans": [
                    [s.start, s.end, DEFAULT_REGISTRY.by_id(s.label).name] for s in sentence.spans
                ],
            }
        )
    return records


def load_golden(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                record["input"], record["reference"]
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: bad golden record: {exc}") from exc
            records.append(record)
    return records


@dataclass
class GoldenReport:
    hybrid_sentence_accuracy: float
    rules_sentence_accuracy: float
    hybrid_pattern_accuracy: float
    rules_pattern_accuracy: float
    per_label: dict[str, LabelMetrics]


def evaluate_golden(records: list[dict], sys: pipeline.HybridSystem) -> GoldenReport:
    """Hybrid vs rule-only on a golden set; pattern metrics from hybrid traces.

    The baseline is the same system with the classifier removed.
    """
    rules_sys = replace(sys, params=None, config=None, vocab=None)
    texts = [record["input"] for record in records]
    hybrid_pairs, rule_pairs = [], []
    hybrid_span_pairs, rule_span_pairs = [], []
    for record, (hybrid_out, hybrid_traces), (rules_out, rule_traces) in zip(
        records, pipeline.normalize_many(texts, sys), pipeline.normalize_many(texts, rules_sys)
    ):
        reference = record["reference"]
        hybrid_pairs.append((hybrid_out, reference))
        rule_pairs.append((rules_out, reference))
        gold_by_span = {
            (int(s), int(e)): DEFAULT_REGISTRY.id_of(name)
            for s, e, name in record.get("spans", [])
        }
        for traces, sink in ((hybrid_traces, hybrid_span_pairs), (rule_traces, rule_span_pairs)):
            for trace in traces:
                gold = gold_by_span.get((trace.span.start, trace.span.end))
                if gold is not None:
                    sink.append((gold, -1 if trace.label is None else trace.label))
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
    )


def golden_report_records(report: GoldenReport) -> list[dict]:
    """Machine-readable line records mirroring the aligned table."""
    records = [
        {"record": "system", "name": "rules",
         "sentence_accuracy": report.rules_sentence_accuracy,
         "pattern_accuracy": report.rules_pattern_accuracy},
        {"record": "system", "name": "hybrid",
         "sentence_accuracy": report.hybrid_sentence_accuracy,
         "pattern_accuracy": report.hybrid_pattern_accuracy},
    ]
    for name, m in report.per_label.items():
        records.append(
            {"record": "label", "name": name, "precision": m.precision,
             "recall": m.recall, "f1": m.f1, "support": m.support}
        )
    return records


def save_records(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def format_golden_report(report: GoldenReport) -> str:
    lines = [
        f"{'system':24s}  {'sentence acc':>12s}  {'pattern acc':>11s}",
        f"{'rule-based baseline':24s}  {report.rules_sentence_accuracy:12.4f}  "
        f"{report.rules_pattern_accuracy:11.4f}",
        f"{'hybrid system':24s}  {report.hybrid_sentence_accuracy:12.4f}  "
        f"{report.hybrid_pattern_accuracy:11.4f}",
        "",
        f"{'pattern':20s}  {'precision':>9s}  {'recall':>7s}  {'F1':>7s}  {'support':>7s}",
    ]
    for name, m in report.per_label.items():
        if m.support == 0:
            continue
        lines.append(
            f"{name:20s}  {m.precision:9.3f}  {m.recall:7.3f}  {m.f1:7.3f}  {m.support:7d}"
        )
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


@dataclass
class AblationRow:
    name: str
    accuracy: float | None
    rare_recall: float | None
    error: str | None = None


def load_grid(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        grid = json.load(fh)
    if not isinstance(grid, list) or not all(isinstance(e, dict) and "name" in e for e in grid):
        raise ValueError(f"{path}: ablation grid must be a list of objects with a 'name'")
    return grid


def macro_recall(predictions: list[tuple[int, int]], label_ids: set[int]) -> float:
    """Mean recall over the given labels (labels without gold samples skipped)."""
    recalls = []
    for lab in sorted(label_ids):
        gold = [(g, p) for g, p in predictions if g == lab]
        if gold:
            recalls.append(sum(1 for g, p in gold if g == p) / len(gold))
    return sum(recalls) / len(recalls) if recalls else 0.0


def run_ablation(
    grid: list[dict],
    corpus: list[LabeledSentence],
    seed: int,
    base_config: ClassifierConfig | None = None,
) -> list[AblationRow]:
    """Train and score one model per grid entry on a shared split."""
    base = base_config or ClassifierConfig(label_count=len(DEFAULT_REGISTRY))
    train_set, dev_set, test_set = split_corpus(corpus, seed)
    held_out = dev_set + test_set
    rare = rare_labels(corpus)
    rows = []
    for entry in grid:
        entry = dict(entry)
        name = entry.pop("name")
        expand = entry.pop("expand", False)
        window = entry.pop("window", base.window)
        if window == "max":
            window = max(len(s.text) for s in corpus)
        try:
            config = replace(base, seed=seed, window=int(window), **entry)
            train_corpus = train_set
            if expand:
                train_corpus = oversample_expand(train_set, seed)
            result = train(train_corpus, config)
            batch = make_training_batch(held_out, result.vocab, config)
            predicted = predict_batch(result.params, batch, config)
            pairs = list(zip(batch.targets.tolist(), predicted.tolist()))
            _, accuracy = pattern_metrics(pairs)
            row = AblationRow(name, accuracy, macro_recall(pairs, rare))
        except Exception as exc:  # keep the grid running past a bad entry
            row = AblationRow(name, None, None, error=str(exc))
        rows.append(row)
    return rows


def ablation_records(rows: list[AblationRow]) -> list[dict]:
    return [
        {"record": "ablation", "name": r.name, "accuracy": r.accuracy,
         "rare_recall": r.rare_recall, "error": r.error}
        for r in rows
    ]


def format_ablation_rows(rows: list[AblationRow]) -> str:
    lines = [f"{'setup':18s}  {'accuracy':>8s}  {'rare recall':>11s}"]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.name:18s}  {'failed':>8s}  ({row.error})")
        else:
            lines.append(f"{row.name:18s}  {row.accuracy:8.4f}  {row.rare_recall:11.4f}")
    return "\n".join(lines)
