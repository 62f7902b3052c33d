"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import random
import time

import numpy as np
import pytest

from gradcheck import gradient_check
from oracles import brute_force_best_rule, parse_han_number, reference_focal_loss

from mtnorm import evaluate as ev
from mtnorm import pipeline
from mtnorm.corpus import CorpusDistribution, NSWSpan, generate_synthetic_corpus
from mtnorm.extractor import extract_nsw
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import ClassifierConfig, make_training_batch, predict_batch, train
from mtnorm.neural.loss import focal_loss_vec
from mtnorm.neural.model import TrainingBatch, init_params, masked_softmax
from mtnorm.neural.vocab import PAD_ID
from mtnorm.reader import read_number_positional, render
from mtnorm.rules import match_nsw, parse_rules

RARE_LABELS = ("B_Range", "B_Score_Ratio", "A_One_Yao_Spell", "A_Two_Liang", "B_Slash_Per")

AMBIGUITY_DIST = CorpusDistribution(
    {
        "B_Score_Ratio": 0.25,
        "B_Time": 0.20,
        "B_Range": 0.15,
        "A_Read_No_Zero": 0.15,
        "A_Spell_Keep_Zero": 0.10,
        "B_Percent": 0.10,
        "B_Date_YMD": 0.05,
    }
)


def test_c1_focal_loss_closed_form():
    want = reference_focal_loss("0.5", "0.5", 4)
    got = float(focal_loss_vec(np.asarray([0.5]), 0.5, 4.0)[0])
    assert abs(got - want) < 1e-9
    grid = np.linspace(0.001, 0.999, 1000)
    worst = max(
        abs(got_p - reference_focal_loss(float(p), 1, 0))
        for p, got_p in zip(grid, focal_loss_vec(grid, 1.0, 0.0))
    )
    assert worst < 1e-12
    print(f"\nACCEPTANCE C1 focal loss closed form: PASS "
          f"(|f(0.5)-{want:.12f}| = {abs(got - want):.2e}, CE grid worst {worst:.2e})")


def test_c2_gradient_correctness():
    config = ClassifierConfig(
        window=10, heads=2, model_dim=8, ff_dim=16, label_count=4,
        alpha=0.5, gamma=4.0, seed=3,
    )
    params = init_params(config, vocab_size=24, rng=np.random.default_rng(3))
    rng = np.random.default_rng(5)
    ids = rng.integers(2, 24, size=(6, 10))
    ids[:, -2:] = PAD_ID
    nsw = np.zeros((6, 10), dtype=bool)
    nsw[:, 3:6] = True
    legal = np.ones((6, 4), dtype=bool)
    legal[0, 2:] = False
    targets = np.asarray([1, 0, 2, 3, 1, 2])
    batch = TrainingBatch(ids, nsw, legal, targets)
    n_tensors = len(params.tensors())
    coords = 8  # 16 tensors x 8 coordinates = 128 >= 100, every tensor covered
    start = time.time()
    err = gradient_check(params, batch, config, eps=1e-4, coords_per_tensor=coords)
    elapsed = time.time() - start
    assert err <= 1e-3
    assert elapsed < 30
    print(f"\nACCEPTANCE C2 gradient correctness: PASS "
          f"(max rel err {err:.2e} over {n_tensors * coords} coords, {elapsed:.1f}s)")


def test_c3_masked_softmax_exactness():
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    for _ in range(10000):
        n = int(rng.integers(2, 36))
        logits = rng.normal(scale=8.0, size=n)
        legal = rng.random(n) > rng.random()
        legal[int(rng.integers(0, n))] = True
        probs = masked_softmax(logits, legal)[0]
        assert np.all(probs[~legal] == 0.0)
        worst_sum = max(worst_sum, abs(probs[legal].sum() - 1.0))
        assert worst_sum <= 1e-9
    forced = masked_softmax(np.asarray([3.0, -1.0]), np.asarray([False, True]))[0]
    assert forced[1] == 1.0 and forced[0] == 0.0
    print(f"\nACCEPTANCE C3 masked softmax: PASS "
          f"(10000 random pairs, worst legal-sum deviation {worst_sum:.2e})")


def test_c4_numeral_oracle(fixture_rows):
    start = time.time()
    for surface, label, expected in fixture_rows:
        assert render(surface, label) == expected, (surface, label)
    for n in range(10**6):
        sfw = read_number_positional(str(n))
        if parse_han_number(sfw) != n:
            raise AssertionError(f"round-trip failed at {n}: {sfw}")
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE C4 numeral oracle: PASS "
          f"({len(fixture_rows)} fixtures exact, round-trip n<10^6, {elapsed:.0f}s)")


def test_c5_rule_engine_laws():
    keywords = ["比分", "气温", "时间", "票价", "编号", "热线"]
    tails = ["领先", "度", "点", "元", "号", "开通"]
    nsw_patterns = [r"\d+", r"\d+-\d+", r"\d+%", r"\d{2}", r"\d+:\d+", r"\d{3}"]
    bodies = ["30-10", "100", "15%", "10:30", "42", "911"]
    rng = random.Random(20250808)
    checked = 0
    for _ in range(1000):
        specs = []
        for i in range(rng.randint(1, 9)):
            specs.append(
                {
                    "name": f"r{i:02d}",
                    "priority": rng.randint(0, 9),
                    "context_len": rng.randint(0, 4),
                    "pre": rng.choice([""] * 3 + keywords),
                    "nsw": rng.choice(nsw_patterns),
                    "post": rng.choice([""] * 3 + tails),
                    "label": "A_Read_No_Zero",
                }
            )
            if specs[-1]["pre"] or specs[-1]["post"]:
                # a context pattern needs a window: parse_rules rejects context_len 0
                specs[-1]["context_len"] = max(1, specs[-1]["context_len"])
        text_parts = (
            rng.choice(["", "比分", "气温是", "在", "编号共计", "热线"]),
            rng.choice(bodies),
            rng.choice(["", "领先", "度", "元整", "号房间", "开通了"]),
        )
        text = "".join(text_parts)
        start, end = len(text_parts[0]), len(text_parts[0]) + len(text_parts[1])
        blocks = [
            f"rule: {s['name']}\npriority: {s['priority']}\ncontext_len: {s['context_len']}\n"
            f"pre: {s['pre']}\nnsw: {s['nsw']}\npost: {s['post']}\nlabel: {s['label']}\n"
            for s in specs
        ]
        rs = parse_rules("\n".join(blocks))
        got = match_nsw(rs, text, NSWSpan(start, end))
        want = brute_force_best_rule(specs, text, start, end)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.name == want["name"]
            checked += 1
    assert checked > 100  # the sampler must actually exercise matches
    print(f"\nACCEPTANCE C5 rule engine laws: PASS "
          f"(1000 random instances vs brute force, {checked} with matches)")


@pytest.fixture(scope="module")
def imbalanced_runs():
    corpus = generate_synthetic_corpus(CorpusDistribution.default(), 5000, seed=7)
    top5 = sum(sorted(CorpusDistribution.default().proportions.values(), reverse=True)[:5])
    assert top5 >= 0.90
    # a seeded 80/20 split: the first 80% trains, the rest is held out
    order = list(corpus)
    random.Random(7).shuffle(order)
    train_set, held = order[:4000], order[4000:]
    results = {}
    for key, (alpha, gamma) in (("focal", (0.5, 4.0)), ("ce", (1.0, 0.0))):
        config = ClassifierConfig(
            label_count=len(DEFAULT_REGISTRY), alpha=alpha, gamma=gamma, epochs=6, seed=11
        )
        start = time.time()
        result = train(train_set, config)
        elapsed = time.time() - start
        batch = make_training_batch(held, result.vocab, config)
        predicted = predict_batch(result.params, batch, config)
        pairs = list(zip(batch.targets.tolist(), predicted.tolist()))
        per_label, accuracy = ev.pattern_metrics(pairs)
        recalls = [m.recall for lab, m in per_label.items() if lab in RARE_LABELS and m.support]
        results[key] = {
            "accuracy": accuracy,
            "rare_recall": sum(recalls) / len(recalls),
            "seconds": elapsed,
        }
    return results


def test_c6_classifier_learnability(imbalanced_runs):
    focal = imbalanced_runs["focal"]
    ce = imbalanced_runs["ce"]
    assert focal["accuracy"] >= 0.90
    assert focal["seconds"] < 600
    assert focal["rare_recall"] >= ce["rare_recall"]
    print(f"\nACCEPTANCE C6 classifier learnability: PASS "
          f"(focal acc {focal['accuracy']:.4f} in {focal['seconds']:.0f}s; rare recall "
          f"focal {focal['rare_recall']:.4f} >= ce {ce['rare_recall']:.4f})")


@pytest.fixture(scope="module")
def ambiguity_system(ruleset, priority_list, formats):
    corpus = generate_synthetic_corpus(AMBIGUITY_DIST, 3000, seed=21)
    config = ClassifierConfig(label_count=len(DEFAULT_REGISTRY), epochs=8, seed=5)
    result = train(corpus, config)
    return pipeline.HybridSystem(
        rules=ruleset, priority=priority_list, params=result.params,
        config=config, vocab=result.vocab, formats=formats,
    )


def test_c7_hybrid_beats_rules(ambiguity_system):
    golden_corpus = generate_synthetic_corpus(AMBIGUITY_DIST, 600, seed=22)
    records = ev.build_golden(golden_corpus)
    report = ev.evaluate_golden(records, ambiguity_system)
    print("\n" + ev.format_golden_report(report))
    gap = report.hybrid_sentence_accuracy - report.rules_sentence_accuracy
    assert gap >= 0.01
    print(f"ACCEPTANCE C7 hybrid >= rules: PASS "
          f"(hybrid {report.hybrid_sentence_accuracy:.4f} vs rules "
          f"{report.rules_sentence_accuracy:.4f}, gap {gap * 100:.1f}pp)")


def test_c8_context_preservation(tiny_system):
    corpus = generate_synthetic_corpus(CorpusDistribution.default(), 10000, seed=9)
    idempotent_checked = 0
    for sentence in corpus:
        text = sentence.text
        out, traces = pipeline.normalize(text, tiny_system)
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
        if not extract_nsw(out):
            again, _ = pipeline.normalize(out, tiny_system)
            assert again == out
            idempotent_checked += 1
    assert idempotent_checked > 5000
    print(f"\nACCEPTANCE C8 context preservation: PASS "
          f"(10000 sentences, idempotence on {idempotent_checked} NSW-free outputs)")


def test_c9_ablation_harness(rules_system):
    corpus = generate_synthetic_corpus(CorpusDistribution.default(), 400, seed=13)
    golden = ev.build_golden(generate_synthetic_corpus(CorpusDistribution.default(), 200, seed=14))
    base = ClassifierConfig(
        model_dim=16, heads=2, ff_dim=32, label_count=len(DEFAULT_REGISTRY),
        epochs=2, batch_size=32,
    )
    grid = list(ev.ABLATION_GRID)
    names = [entry["name"] for entry in grid]
    assert names == ["proposed", "max_window", "ce_loss", "no_mask", "data_expansion"]
    first = ev.run_ablation(grid, corpus, golden, rules_system, seed=2, base_config=base)
    second = ev.run_ablation(grid, corpus, golden, rules_system, seed=2, base_config=base)
    assert [name for name, _ in first] == names
    for (name, a), (_, b) in zip(first, second):
        assert isinstance(a, ev.GoldenReport), (name, a)
        assert a == b
        print(f"\n{name}:\n{ev.format_golden_report(a)}")
    print("ACCEPTANCE C9 ablation harness: PASS "
          "(5-entry grid, deterministic per-seed, no absolute values asserted)")
