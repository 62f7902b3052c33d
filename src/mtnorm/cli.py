"""Command-line entry point.

Subcommands: gen-corpus, train, classify, normalize, evaluate, ablate.
Every command exits 0 on success and nonzero with a one-line diagnostic on
stderr otherwise; all randomness is controlled by explicit --seed flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import corpus as corpus_mod
from . import evaluate as eval_mod
from . import pipeline
from .extractor import PriorityList, load_priority_list
from .labels import DEFAULT_REGISTRY
from .neural import ClassifierConfig, load_params, save_params, train
from .rules import RuleSet, compile_rules


def _read_lines(path: str | None) -> list[str]:
    if path is None or path == "-":
        text = corpus_mod.decode_text(sys.stdin.buffer.read(), "<stdin>")
    else:
        text = corpus_mod.read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def _read_config(path: str) -> ClassifierConfig:
    return corpus_mod.read_json(path, lambda raw: ClassifierConfig(**raw))


def _write_lines(path: str | None, lines: list[str]) -> None:
    if path is None or path == "-":
        for line in lines:
            print(line)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def cmd_gen_corpus(args) -> int:
    dist = (
        corpus_mod.read_json(args.dist, corpus_mod.CorpusDistribution)
        if args.dist
        else corpus_mod.CorpusDistribution.default()
    )
    templates = corpus_mod.load_templates(args.templates) if args.templates else None
    generated = corpus_mod.generate_synthetic_corpus(dist, args.n, args.seed, templates)
    corpus_mod.save_corpus(generated, args.out)
    print(f"wrote {len(generated)} sentences to {args.out}")
    if args.golden_out:
        eval_mod.save_golden(eval_mod.build_golden(generated), args.golden_out)
        print(f"wrote golden pairs to {args.golden_out}")
    return 0


def cmd_train(args) -> int:
    config = _read_config(args.config) if args.config else ClassifierConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    data = corpus_mod.load_corpus(args.corpus)
    result = train(data, config, log=print)
    save_params(args.out, result.params, config, result.vocab)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_classify(args) -> int:
    # With no priority surfaces and no rules, every span with a legal label is
    # scored: 911 and the year in 1998年 too.
    system = _build_system(args, args.model, PriorityList(), RuleSet([]))
    texts = [args.text] if args.text is not None else _read_lines(args.infile)
    for text, (_, traces) in zip(texts, pipeline.normalize_many(texts, system)):
        for trace in traces:
            surface = text[trace.span.start : trace.span.end]
            probs = trace.probabilities
            if probs is None:
                print(f"{surface}\t<no legal label>")
                continue
            top = sorted(
                ((float(p), lab.name) for p, lab in zip(probs, DEFAULT_REGISTRY)), reverse=True
            )[:3]
            ranked = "  ".join(f"{name}={p:.4f}" for p, name in top)
            print(f"{surface}\t{DEFAULT_REGISTRY.by_id(int(probs.argmax())).name}\t{ranked}")
    return 0


def _build_system(
    args, model: str | None, priority: PriorityList | None = None, rules: RuleSet | None = None
) -> pipeline.HybridSystem:
    params, config, vocab = load_params(model) if model else (None, None, None)
    if priority is None:
        priority = load_priority_list(args.priority or corpus_mod.data_path("priority.txt"))
    if rules is None:
        rules = compile_rules(args.rules or corpus_mod.data_path("rules.txt"))
    return pipeline.HybridSystem(
        rules=rules,
        priority=priority,
        params=params,
        config=config,
        vocab=vocab,
        formats=DEFAULT_REGISTRY,
    )


def cmd_normalize(args) -> int:
    if args.rules_only == bool(args.model):
        print("normalize: give exactly one of --model and --rules-only", file=sys.stderr)
        return 2
    system = _build_system(args, args.model)
    texts = [args.text] if args.text is not None else _read_lines(args.infile)
    results = pipeline.normalize_many(texts, system)
    _write_lines(args.out, [out for out, _ in results])
    if args.trace:
        traced = [(text, traces) for text, (_, traces) in zip(texts, results)]
        pipeline.write_traces(args.trace, traced)
    return 0


def cmd_evaluate(args) -> int:
    system = _build_system(args, args.model)
    report = eval_mod.evaluate_golden(eval_mod.load_golden(args.golden), system)
    print(eval_mod.format_golden_report(report))
    if args.report:
        corpus_mod.write_jsonl(args.report, eval_mod.golden_report_records(report))
    return 0


def cmd_ablate(args) -> int:
    data = corpus_mod.load_corpus(args.corpus)
    grid = eval_mod.load_grid(args.grid) if args.grid else list(eval_mod.ABLATION_GRID)
    base = _read_config(args.config) if args.config else None
    rows = eval_mod.run_ablation(grid, data, args.seed, base_config=base)
    print(eval_mod.format_ablation_rows(rows))
    if args.report:
        corpus_mod.write_jsonl(args.report, eval_mod.ablation_records(rows))
    return 0


def _add_input(parser: argparse.ArgumentParser) -> None:
    """``--text`` or ``--in``, never both; with neither, lines come from stdin."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--text")
    group.add_argument("--in", dest="infile", help="input file, one sentence per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic labeled corpus")
    p.add_argument("--dist", help="label distribution JSON (default: shipped)")
    p.add_argument("--templates", help="template registry JSON (default: shipped)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--golden-out", help="also write (input, reference) golden pairs")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train the pattern classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="classifier config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="per-NSW labels and probabilities")
    p.add_argument("--model", required=True)
    _add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="run the full pipeline (or rules only)")
    p.add_argument("--model")
    p.add_argument("--rules")
    p.add_argument("--priority")
    _add_input(p)
    p.add_argument("--out")
    p.add_argument("--trace", help="write per-NSW trace records here")
    p.add_argument("--rules-only", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("evaluate", help="score hybrid vs rules on a golden set")
    p.add_argument("--golden", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rules")
    p.add_argument("--priority")
    p.add_argument("--report", help="also write machine-readable line records here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score the ablation grid")
    p.add_argument("--grid", help="grid JSON (default: shipped grid)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="base classifier config JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", help="also write machine-readable line records here")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"mtnorm {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
