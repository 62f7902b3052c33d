import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_window

from mtnorm import evaluate as ev
from mtnorm.cli import main
from mtnorm.corpus import (
    CorpusDistribution,
    LabeledSentence,
    generate_synthetic_corpus,
    load_corpus,
)
from mtnorm.extractor import extract_nsw
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import ClassifierConfig, FrozenEncoder, load_params, predict_probs, save_params
from mtnorm.neural.model import init_params
from mtnorm.neural.vocab import build_vocab

TINY_CONFIG = {
    "model_dim": 16, "heads": 2, "ff_dim": 32, "epochs": 2,
    "batch_size": 32, "seed": 9, "label_count": 11,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    corpus = root / "corpus.jsonl"
    golden = root / "golden.jsonl"
    assert main([
        "gen-corpus", "--n", "400", "--seed", "4",
        "--out", str(corpus), "--golden-out", str(golden),
    ]) == 0
    model = root / "model.npz"
    assert main([
        "train", "--corpus", str(corpus), "--config", str(config), "--out", str(model)
    ]) == 0
    return {"root": root, "config": config, "corpus": corpus, "golden": golden, "model": model}


class TestGenCorpus:
    def test_deterministic(self, workspace):
        again = workspace["root"] / "again.jsonl"
        assert main(["gen-corpus", "--n", "400", "--seed", "4", "--out", str(again)]) == 0
        assert again.read_text("utf-8") == workspace["corpus"].read_text("utf-8")

    def test_custom_distribution(self, workspace, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text('{"B_Percent": 1.0}', encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--dist", str(dist), "--n", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        for line in out.read_text("utf-8").splitlines():
            assert json.loads(line)["spans"][0][2] == "B_Percent"

    def test_bad_distribution_fails_cleanly(self, tmp_path, capsys):
        dist = tmp_path / "dist.json"
        dist.write_text('{"B_Percent": 0.2}', encoding="utf-8")
        code = main(["gen-corpus", "--dist", str(dist), "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "mtnorm gen-corpus:" in capsys.readouterr().err

    def test_bad_templates_fail_with_no_sentences(self, tmp_path, capsys):
        templates = tmp_path / "templates.json"
        templates.write_text('{"B_Percent": {"nsw": "bogus", "templates": ["{NSW}"]}}',
                             encoding="utf-8")
        out = tmp_path / "x.jsonl"
        assert main(["gen-corpus", "--templates", str(templates), "--n", "0", "--seed", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"mtnorm gen-corpus: {templates}: ")
        assert not out.exists()


class TestTrain:
    def test_same_seed_identical_checkpoints(self, workspace):
        other = workspace["root"] / "model2.npz"
        assert main([
            "train", "--corpus", str(workspace["corpus"]),
            "--config", str(workspace["config"]), "--out", str(other)
        ]) == 0
        a, _, _ = load_params(str(workspace["model"]))
        b, _, _ = load_params(str(other))
        for name, tensor in a.tensors().items():
            assert np.array_equal(b.tensors()[name], tensor)

    def test_corpus_without_spans_fails_with_cause(self, tmp_path, capsys):
        corpus = tmp_path / "plain.jsonl"
        corpus.write_text('{"text": "今天天气好", "spans": []}\n', encoding="utf-8")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "x.npz")]) == 1
        assert "mtnorm train: training corpus has no NSW spans" in capsys.readouterr().err

    def test_illegal_gold_label_names_the_surface(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            workspace["corpus"].read_text("utf-8")
            + '{"text": "会议在10:30开始", "spans": [[3, 8, "A_Read_No_Zero"]]}\n',
            encoding="utf-8",
        )
        code = main(["train", "--corpus", str(corpus), "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"mtnorm train: {corpus}:401: span label A_Read_No_Zero is illegal for '10:30' "
            "in '会议在10:30开始'\n"
        )
        assert not (tmp_path / "x.npz").exists()

    def test_unknown_config_field_fails_with_cause(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "pretrained_vectors": None}), "utf-8")
        code = main(["train", "--corpus", str(workspace["corpus"]), "--config", str(config),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mtnorm train: ") and "pretrained_vectors" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value", [("batch_size", 0), ("heads", 0), ("epochs", -1), ("label_count", 12)]
    )
    def test_config_that_breaks_training_fails_with_cause(
        self, workspace, tmp_path, capsys, field, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, field: value}), "utf-8")
        code = main(["train", "--corpus", str(workspace["corpus"]), "--config", str(config),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mtnorm train: ") and field in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.npz").exists()

    def test_negative_seed_flag_refused_before_the_corpus(self, workspace, capsys):
        # The corpus path does not exist: the seed is refused before it is read.
        assert main(["train", "--corpus", "/nonexistent.jsonl", "--seed", "-1",
                     "--out", str(workspace["root"] / "x.npz")]) == 1
        assert capsys.readouterr().err == "mtnorm train: seed must be >= 0\n"
        assert not (workspace["root"] / "x.npz").exists()

    def test_negative_config_seed_names_the_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "seed": -3}), "utf-8")
        code = main(["train", "--corpus", str(workspace["corpus"]), "--config", str(config),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 1
        assert capsys.readouterr().err == f"mtnorm train: {config}: seed must be >= 0\n"
        assert not (tmp_path / "x.npz").exists()

    def test_missing_corpus_fails(self, workspace, capsys):
        assert main(["train", "--corpus", "/nonexistent.jsonl",
                     "--out", str(workspace["root"] / "x.npz")]) == 1
        assert "mtnorm train:" in capsys.readouterr().err


class TestNormalize:
    def test_rules_only_fixture(self, capsys):
        assert main(["normalize", "--rules-only", "--text", "今天是2019-10-01"]) == 0
        assert capsys.readouterr().out.strip() == "今天是二零一九年十月一日"

    def test_no_nsw_identity(self, workspace, capsys):
        assert main(["normalize", "--model", str(workspace["model"]),
                     "--text", "大家好才是真的好"]) == 0
        assert capsys.readouterr().out.strip() == "大家好才是真的好"

    def test_file_io_and_trace(self, workspace):
        infile = workspace["root"] / "in.txt"
        outfile = workspace["root"] / "out.txt"
        trace = workspace["root"] / "trace.jsonl"
        infile.write_text("只有10%的学生参加了投票\n遇到紧急情况请拨打911求助\n", encoding="utf-8")
        assert main(["normalize", "--model", str(workspace["model"]),
                     "--in", str(infile), "--out", str(outfile), "--trace", str(trace)]) == 0
        lines = outfile.read_text("utf-8").splitlines()
        assert lines[0] == "只有百分之十的学生参加了投票"
        assert lines[1] == "遇到紧急情况请拨打九幺幺求助"
        records = [json.loads(l) for l in trace.read_text("utf-8").splitlines()]
        assert records[1]["route"] == "priority_rule"
        assert records[1]["sfw"] == "九幺幺"

    @pytest.mark.parametrize("mode", ["rules_only", "hybrid"])
    def test_bad_span_stays_verbatim(self, workspace, tmp_path, mode):
        # 10^12 is beyond the positional reader: only that span is skipped
        infile, outfile, trace = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "t.jsonl"
        infile.write_text("总额1,000,000,000,000元\n只有10%的学生\n", encoding="utf-8")
        system = ["--rules-only"] if mode == "rules_only" else ["--model", str(workspace["model"])]
        assert main(["normalize", *system, "--in", str(infile), "--out", str(outfile),
                     "--trace", str(trace)]) == 0
        assert outfile.read_text("utf-8").splitlines() == ["总额1,000,000,000,000元", "只有百分之十的学生"]
        record = json.loads(trace.read_text("utf-8").splitlines()[0])
        assert record["route"] == "unmatched"
        assert record["sfw"] is None

    def test_rules_only_honours_priority(self, tmp_path):
        trace = tmp_path / "t.jsonl"

        def routes(*extra):
            assert main(["normalize", "--rules-only", "--text", "请拨打911，10:30见",
                         "--trace", str(trace), *extra]) == 0
            return [json.loads(l)["route"] for l in trace.read_text("utf-8").splitlines()]

        assert routes() == ["priority_rule", "fallback_rule"]
        priority = tmp_path / "priority.txt"
        priority.write_text("10:30\n", encoding="utf-8")
        assert routes("--priority", str(priority)) == ["fallback_rule", "priority_rule"]

    def test_rules_only_matches_evaluate_baseline(self, workspace, tmp_path, rules_system):
        # lines of 2-8 joined sentences; evaluate_golden scores its rules
        # baseline against the CLI output, so accuracy 1.0 means every line agrees
        sentences = [s.text for s in generate_synthetic_corpus(
            CorpusDistribution.default(), 300, seed=12)]
        rng = random.Random(12)
        lines = []
        while sentences:
            k = rng.randint(2, 8)
            lines.append("".join(sentences[:k]))
            sentences = sentences[k:]
        infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
        infile.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["normalize", "--rules-only", "--in", str(infile), "--out", str(outfile)]) == 0
        outputs = outfile.read_text("utf-8").splitlines()
        assert len(outputs) == len(lines)
        params, config, vocab = load_params(str(workspace["model"]))
        system = replace(rules_system, params=params, config=config, vocab=vocab)
        golden = [(LabeledSentence(i), o) for i, o in zip(lines, outputs)]
        assert ev.evaluate_golden(golden, system).rules_sentence_accuracy == 1.0

    def test_model_required_without_rules_only(self, capsys):
        assert main(["normalize", "--text", "共100人"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_model_with_rules_only_rejected(self, capsys):
        assert main(["normalize", "--rules-only", "--model", "/nonexistent.npz",
                     "--text", "共100人"]) == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--rules-only" in err and err.count("\n") == 1

    def test_text_and_in_exclusive(self, tmp_path, capsys):
        # --text used to win silently over --in
        infile = tmp_path / "in.txt"
        infile.write_text("共3人\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["normalize", "--rules-only", "--text", "共100人", "--in", str(infile)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --in: not allowed with argument --text" in captured.err

    def test_input_lines_split_as_text_mode(self, tmp_path):
        # \r\n and a lone \r end lines; a blank line stays; a last newline adds none
        infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
        infile.write_bytes("共3人\r\n\r\n只有10%\r共5人\n".encode())
        assert main(["normalize", "--rules-only", "--in", str(infile), "--out", str(outfile)]) == 0
        assert outfile.read_text("utf-8").split("\n") == ["共三人", "", "只有百分之十", "共五人", ""]


def normalize_stdin(data: bytes) -> subprocess.CompletedProcess:
    """``mtnorm normalize --rules-only`` in a fresh process, ``data`` on its stdin."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run(
        [sys.executable, "-m", "mtnorm.cli", "normalize", "--rules-only"],
        input=data, env=env, capture_output=True,
    )


class TestStdin:
    """Standard input is decoded as an ``--in`` file is."""

    def test_byte_order_mark_dropped(self, tmp_path):
        data = b"\xef\xbb\xbf" + "共有35人\r\n只有10%\r共5人\n".encode()
        result = normalize_stdin(data)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "共有三十五人\n只有百分之十\n共五人\n".encode()
        infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
        infile.write_bytes(data)
        assert main(["normalize", "--rules-only", "--in", str(infile), "--out", str(outfile)]) == 0
        assert outfile.read_bytes() == result.stdout

    def test_bad_utf8_named(self):
        result = normalize_stdin("共有35人".encode() + b"\xff\n")
        assert result.returncode == 1 and result.stdout == b""
        err = result.stderr.decode()
        assert err.startswith("mtnorm normalize: <stdin>: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1


class TestClassify:
    def test_text_and_in_exclusive(self, workspace, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "--model", str(workspace["model"]), "--in", "/nonexistent.txt",
                  "--text", "只有10%的学生"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --text: not allowed with argument --in" in captured.err

    def test_labels_and_probabilities_printed(self, workspace, capsys):
        assert main(["classify", "--model", str(workspace["model"]),
                     "--text", "只有10%的学生参加了投票"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("10%\t")
        assert "B_Percent" in out

    def test_encoder_frozen_once(self, workspace, monkeypatch, capsys):
        freeze = FrozenEncoder.freeze.__func__
        calls = []

        def counting_freeze(cls, *args, **kwargs):
            calls.append(args)
            return freeze(cls, *args, **kwargs)

        monkeypatch.setattr(FrozenEncoder, "freeze", classmethod(counting_freeze))
        assert main(["classify", "--model", str(workspace["model"]), "--text", "共100人"]) == 0
        assert len(calls) == 1

    def test_priority_surface_classified(self, workspace, capsys):
        # classify shows the classifier's view of every span, priority surfaces too
        assert main(["classify", "--model", str(workspace["model"]),
                     "--text", "请拨打911"]) == 0
        surface, label, ranked = capsys.readouterr().out.rstrip("\n").split("\t")
        assert surface == "911" and label in DEFAULT_REGISTRY
        shown = [item.split("=") for item in ranked.split("  ")]
        assert len(shown) == 3 and shown[0][0] == label
        assert [float(p) for _, p in shown] == sorted((float(p) for _, p in shown), reverse=True)

    def test_no_legal_label_reported(self, workspace, capsys):
        assert main(["classify", "--model", str(workspace["model"]),
                     "--text", "温度是25.3左右"]) == 0
        assert "<no legal label>" in capsys.readouterr().out

    def test_unmasked_checkpoint_matches_normalize(self, workspace, tmp_path, capsys):
        # use_mask=False: every label is a candidate, as in normalize and training
        config = ClassifierConfig(**{**TINY_CONFIG, "use_mask": False})
        vocab = build_vocab(load_corpus(str(workspace["corpus"])))
        model = tmp_path / "unmasked.npz"
        save_params(str(model), init_params(config, vocab.size, np.random.default_rng(4)),
                    config, vocab)
        text = "上午10:30开始，时间10:30:45"
        assert main(["classify", "--model", str(model), "--text", text]) == 0
        printed = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        trace = tmp_path / "trace.jsonl"
        assert main(["normalize", "--model", str(model), "--text", text,
                     "--trace", str(trace)]) == 0
        records = [json.loads(l) for l in trace.read_text("utf-8").splitlines()]
        assert [row[0] for row in printed] == ["10:30", "10:30:45"]
        assert len(records) == 2
        names = [lab.name for lab in DEFAULT_REGISTRY]
        for (surface, label, ranked), record in zip(printed, records):
            assert text[record["start"] : record["end"]] == surface
            probs = record["probabilities"]
            assert probs is not None and min(probs) > 0
            assert label == names[int(np.argmax(probs))]
            top = sorted(zip(probs, names), reverse=True)[:3]
            shown = [item.split("=") for item in ranked.split("  ")]
            assert [name for name, _ in shown] == [name for _, name in top]
            for (_, p_shown), (p_trace, _) in zip(shown, top):
                assert abs(float(p_shown) - p_trace) < 1e-4


def dense_file_lines(n_lines, seed):
    """Lines of 2-8 generated sentences joined by '，' and ended by '。'."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 8) for _ in range(n_lines)]
    sentences = iter(generate_synthetic_corpus(CorpusDistribution.default(), sum(sizes), seed))
    return [
        "，".join(next(sentences).text for _ in range(size)) + "。" for size in sizes
    ]


def classifier_view(model, texts):
    """``classify``'s lines computed from the classifier alone.

    Every span with a legal label is scored: a one-hot for one legal label,
    and otherwise its window, with every ambiguous window of ``texts`` in one
    ``predict_probs`` call in text order. Rules and priority surfaces play
    no part.
    """
    params, config, vocab = load_params(str(model))
    encoder = FrozenEncoder.freeze(params)
    spans, ids, nsw, masks = [], [], [], []
    for text in texts:
        for span in extract_nsw(text):
            surface = text[span.start : span.end]
            legal = DEFAULT_REGISTRY.legal_labels(surface)
            spans.append((surface, legal))
            if sum(legal) > 1:
                chars, mask = reference_window(text, span.start, span.end, config.window)
                ids.append([vocab.id_of(ch) for ch in chars])
                nsw.append(mask)
                masks.append(legal)
    probs = iter(predict_probs(encoder, np.array(ids), np.array(nsw), masks) if ids else [])
    lines = []
    for surface, legal in spans:
        if not any(legal):
            lines.append(f"{surface}\t<no legal label>")
            continue
        p = next(probs) if sum(legal) > 1 else np.array(legal, dtype=np.float64)
        top = sorted(((float(x), lab.name) for x, lab in zip(p, DEFAULT_REGISTRY)), reverse=True)[:3]
        ranked = "  ".join(f"{name}={x:.4f}" for x, name in top)
        lines.append(f"{surface}\t{DEFAULT_REGISTRY.by_id(int(p.argmax())).name}\t{ranked}")
    return lines


class TestClassifyScoresEverySpan:
    def test_context_rule_surfaces_scored(self, workspace, capsys):
        # the hybrid decides these by their context rules; classify still scores them
        text = "他1998年毕业，主队3-1领先，买了2个苹果，气温10-15度"
        assert main(["classify", "--model", str(workspace["model"]), "--text", text]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in printed] == ["1998", "3-1", "2", "10-15"]
        assert printed == classifier_view(workspace["model"], [text])

    def test_dense_files(self, workspace, tmp_path, capsys):
        lines = dense_file_lines(2000, seed=7)
        for k in range(20):
            chunk = lines[k * 100 : (k + 1) * 100]
            path = tmp_path / f"in-{k}.txt"
            path.write_text("".join(line + "\n" for line in chunk), encoding="utf-8")
            assert main(["classify", "--model", str(workspace["model"]), "--in", str(path)]) == 0
            assert capsys.readouterr().out.splitlines() == classifier_view(workspace["model"], chunk)


class TestEvaluate:
    def test_report_prints_both_systems(self, workspace, capsys):
        assert main(["evaluate", "--golden", str(workspace["golden"]),
                     "--model", str(workspace["model"])]) == 0
        out = capsys.readouterr().out
        assert "rule-based baseline" in out
        assert "hybrid system" in out

    def test_machine_readable_records(self, workspace):
        report = workspace["root"] / "report.jsonl"
        assert main(["evaluate", "--golden", str(workspace["golden"]),
                     "--model", str(workspace["model"]), "--report", str(report)]) == 0
        records = [json.loads(l) for l in report.read_text("utf-8").splitlines()]
        systems = [r for r in records if r["record"] == "system"]
        assert {r["name"] for r in systems} == {"rules", "hybrid"}
        assert any(r["record"] == "label" for r in records)
        [unextracted] = [r for r in records if r["record"] == "unextracted_gold_spans"]
        assert isinstance(unextracted["count"], int)


class TestAblate:
    def test_grid_rows_printed(self, workspace, capsys):
        grid = workspace["root"] / "grid.json"
        grid.write_text(json.dumps([{"name": "proposed"}, {"name": "ce", "alpha": 1.0,
                                                           "gamma": 0.0}]), encoding="utf-8")
        assert main(["ablate", "--grid", str(grid), "--corpus", str(workspace["corpus"]),
                     "--config", str(workspace["config"]), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "proposed" in out and "ce" in out

    def test_negative_seed_refused_before_training(self, workspace, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a negative seed")

        monkeypatch.setattr(ev, "train", no_training)
        assert main(["ablate", "--corpus", str(workspace["corpus"]),
                     "--config", str(workspace["config"]), "--seed", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "mtnorm ablate: seed must be >= 0\n"
        assert captured.out == ""

    def test_bad_grid_fails_cleanly(self, workspace, capsys):
        grid = workspace["root"] / "badgrid.json"
        grid.write_text('{"not": "a list"}', encoding="utf-8")
        assert main(["ablate", "--grid", str(grid), "--corpus", str(workspace["corpus"]),
                     "--seed", "3"]) == 1
        assert "mtnorm ablate:" in capsys.readouterr().err



NOT_UTF8 = b'{"B_Percent": "caf\xe9"}\n'
TRUNCATED = b'{"B_Percent": ["{NSW}"'
TRAIN = ["train", "--out", "x.npz"]
ABLATE = ["ablate", "--seed", "3"]
GEN = ["gen-corpus", "--n", "5", "--seed", "1", "--out", "c.jsonl"]
RULES_ONLY = ["normalize", "--rules-only"]


class TestInputFiles:
    @pytest.mark.parametrize(
        "argv, option, content",
        [
            (TRAIN, "--config", NOT_UTF8),
            (TRAIN, "--config", TRUNCATED),
            (TRAIN, "--config", b"[1, 2]"),
            (TRAIN, "--config", b'{"window": "x"}'),
            (TRAIN, "--config", b'{"use_mask": "no", "epochs": 1}'),
            (TRAIN, "--config", b'{"learning_rate": Infinity, "gamma": Infinity}'),
            (ABLATE, "--config", TRUNCATED),
            (GEN, "--dist", NOT_UTF8),
            (GEN, "--dist", TRUNCATED),
            (GEN, "--dist", b"[1, 2]"),
            (GEN, "--dist", b'{"B_Percent": "1"}'),
            (GEN, "--dist", b'{"Nope": 1.0}'),
            (GEN, "--templates", NOT_UTF8),
            (GEN, "--templates", TRUNCATED),
            (GEN, "--templates", b'["{NSW}"]'),
            (GEN, "--templates", b'{"B_Percent": "{NSW}"}'),
            (GEN, "--templates", b'{"B_Percent": [5]}'),
            (GEN, "--templates", b'{"Nope": ["{NSW}"]}'),
            (GEN, "--templates", b'{"B_Percent": {"nsw": "percent", "templates": ["{NSW}"]}}'),
            (ABLATE, "--grid", NOT_UTF8),
            (ABLATE, "--grid", TRUNCATED),
            (ABLATE, "--grid", b'[{"name": 5}]'),
            (RULES_ONLY, "--in", b"caf\xe9 35\n"),
            (RULES_ONLY, "--rules", b"rule: caf\xe9\nlabel: A_Read_No_Zero\n"),
            (RULES_ONLY, "--priority", b"caf\xe9\n"),
        ],
        ids=[
            "config-not-utf-8", "config-truncated", "config-list", "config-str-window",
            "config-str-use-mask", "config-infinite-rates", "ablate-config-truncated",
            "dist-not-utf-8", "dist-truncated", "dist-list", "dist-str-proportion",
            "dist-unknown-label", "templates-not-utf-8", "templates-truncated", "templates-list",
            "templates-entry-not-list", "templates-int-template", "templates-unknown-label",
            "templates-old-layout", "grid-not-utf-8", "grid-truncated", "grid-int-name",
            "in-not-utf-8", "rules-not-utf-8", "priority-not-utf-8",
        ],
    )
    def test_bad_file_names_its_path(self, workspace, tmp_path, monkeypatch, capsys,
                                     argv, option, content):
        monkeypatch.chdir(tmp_path)  # where a command that got past its input would write
        path = tmp_path / "input"
        path.write_bytes(content)
        if argv in (TRAIN, ABLATE):
            argv = [*argv, "--corpus", str(workspace["corpus"])]
        assert main([*argv, option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mtnorm {argv[0]}: {path}: ")
        assert err.count("\n") == 1
