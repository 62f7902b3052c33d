"""Inputs, gold references, the shared checkpoint and the four workloads.

Every input is generated from the shipped distribution and templates under
the workload seed. The program under test only ever sees the inputs; gold
references come from ``evaluate.reference_sfw`` and are computed outside
every timed region. No generated input is filtered: an input the program
cannot handle shows as a failed operation, not as a smaller workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

from hostspeed import dispatch_probe, kernel_probe

# Imported by run.py after it has put the checkout's src/ on sys.path.
from mtnorm import cli, corpus, evaluate, extractor, legality, neural, pipeline, rules
from mtnorm.labels import DEFAULT_REGISTRY

# The hybrid workloads classify with this checkpoint. It is trained by the
# code under test, once per checkout, outside every timed region, and keyed
# by a hash of the sources so a changed program never reuses a stale model.
CHECKPOINT_CORPUS = {"n": 5000, "seed": 7}
CHECKPOINT_CONFIG = {"epochs": 6, "seed": 0}

# Sizes per workload. "full" is what BENCHMARK.json runs; "tiny" is the smoke
# check. File workloads use several files so accuracy rests on many lines
# while each timed call stays short enough to give a median.
SIZES = {
    "full": {
        "stream_hybrid": {"sentences": 3000, "block": 200},
        "file_hybrid": {"files": 20, "lines": 100},
        "file_rules": {"files": 10, "lines": 500},
        "train": {"sentences": 1000, "held_out": 500, "epochs": 3},
    },
    "tiny": {
        "stream_hybrid": {"sentences": 60, "block": 20},
        "file_hybrid": {"files": 2, "lines": 10},
        "file_rules": {"files": 2, "lines": 20},
        "train": {"sentences": 60, "held_out": 30, "epochs": 1},
    },
}

# Correctness floors: below these the outputs are wrong, not merely less
# accurate. Measured values sit well above them (see perfbench/README.md).
ACCURACY_FLOOR = {
    "stream_hybrid": 0.95,
    "file_hybrid": 0.8,
    "file_rules": 0.8,
    "train": 0.5,
}


def data_path(name: str) -> str:
    return str(resources.files("mtnorm").joinpath(f"data/{name}"))


def build_system(params, config, vocab) -> pipeline.HybridSystem:
    """The hybrid the CLI builds: shipped rules, priority list and formats."""
    return pipeline.HybridSystem(
        rules=rules.compile_rules(data_path("rules.txt")),
        priority=extractor.load_priority_list(data_path("priority.txt")),
        params=params,
        config=config,
        vocab=vocab,
        formats=legality.default_formats(),
    )


# --------------------------------------------------------------------------
# Checkpoint
# --------------------------------------------------------------------------

def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([CHECKPOINT_CORPUS, CHECKPOINT_CONFIG]).encode())
    for path in sorted((src / "mtnorm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_checkpoint(src: Path, cache: Path) -> tuple[Path, float]:
    """Path of the hybrid checkpoint, training it first if absent; (path, build_s)."""
    path = cache / f"checkpoint-{source_digest(src)}.npz"
    if path.exists():
        return path, 0.0
    cache.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    data = corpus.generate_synthetic_corpus(
        corpus.CorpusDistribution.default(), CHECKPOINT_CORPUS["n"], CHECKPOINT_CORPUS["seed"]
    )
    config = neural.ClassifierConfig(label_count=len(DEFAULT_REGISTRY), **CHECKPOINT_CONFIG)
    result = neural.train(data, config)
    tmp = cache / f"{path.stem}.{os.getpid()}.tmp.npz"
    neural.save_params(str(tmp), result.params, config, result.vocab)
    os.replace(tmp, path)
    return path, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def generate(n: int, seed: int) -> list[corpus.LabeledSentence]:
    return corpus.generate_synthetic_corpus(corpus.CorpusDistribution.default(), n, seed)


def dense_lines(n_lines: int, seed: int) -> list[corpus.LabeledSentence]:
    """Dense file lines: 2-8 generated sentences joined by '，', ended by '。'.

    Full-width punctuation is outside the NSW symbol set, so neighbouring
    spans never merge; the classifier window does see the other clauses.
    """
    rng = random.Random(seed)
    sizes = [rng.randint(2, 8) for _ in range(n_lines)]
    sentences = iter(generate(sum(sizes), seed))
    lines = []
    for size in sizes:
        text, spans = "", []
        for k in range(size):
            s = next(sentences)
            offset = len(text)
            spans += [corpus.NSWSpan(sp.start + offset, sp.end + offset, sp.label) for sp in s.spans]
            text += s.text + ("。" if k == size - 1 else "，")
        lines.append(corpus.LabeledSentence(text, tuple(spans)))
    return lines


def span_hits(gold: corpus.LabeledSentence, records) -> int:
    """Gold spans whose trace record has the same offsets and label."""
    got = {(r["start"], r["end"]): r["label"] for r in records}
    return sum(
        got.get((s.start, s.end)) == DEFAULT_REGISTRY.by_id(s.label).name for s in gold.spans
    )


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass
class Block:
    """One timed block of work: ``lines`` input lines holding ``nsw`` spans.

    ``latencies_ms`` holds one value per request inside the block; the
    block runs between host probes ``probes[index]`` and ``probes[index+1]``.
    """

    seconds: float
    lines: int
    nsw: int
    latencies_ms: list[float]
    index: int


@dataclass
class Outcome:
    """Operations attempted and failed, and timed blocks with host probes."""

    probe: Callable[[], float]
    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    blocks: list[Block] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    consistent: bool = True

    def fail(self, exc: BaseException | str, n: int = 1) -> None:
        self.failed += n
        key = exc if isinstance(exc, str) else type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + n

    def __post_init__(self):
        self.probes.append(self.probe())

    def block(self, seconds: float, lines: int, nsw: int, latencies_ms: list[float]) -> None:
        """Record a block, then probe the host (outside the timed region)."""
        self.blocks.append(Block(seconds, lines, nsw, latencies_ms, len(self.probes) - 1))
        self.probes.append(self.probe())


class Workload:
    """One workload: ``prepare`` is set-up, ``warm`` is the untimed
    correctness pass, ``timed_pass`` runs every unit once and times it."""

    name: str
    requests: int  # latency samples per timed pass, in the same order each pass
    probe = staticmethod(dispatch_probe)

    def __init__(self, root: Path, seed: int, size: str, checkpoint: Path | None):
        self.seed, self.checkpoint = seed, checkpoint
        self.size = SIZES[size][self.name]
        self.work = root / ".perfbench" / "work" / self.name


class StreamHybrid(Workload):
    """One pipeline.normalize call per single-NSW sentence, closed loop."""

    name = "stream_hybrid"

    def prepare(self) -> None:
        self.system = build_system(*neural.load_params(str(self.checkpoint)))
        self.inputs = generate(self.size["sentences"], self.seed)
        self.texts = [s.text for s in self.inputs]
        self.requests = len(self.texts)

    def warm(self, out: Outcome) -> dict:
        self.expected, records = [], []
        for text in self.texts:
            out.attempted += 1
            try:
                result, traces = pipeline.normalize(text, self.system)
            except Exception as exc:  # one bad sentence fails only itself
                out.fail(exc)
                result, traces = None, []
            self.expected.append(result)
            records.append([t.to_record() for t in traces])
        refs = [evaluate.reference_sfw(s) for s in self.inputs]
        return accuracy(self.inputs, refs, self.expected, records)

    def timed_pass(self, out: Outcome) -> None:
        size, clock = self.size["block"], time.perf_counter
        for first in range(0, len(self.texts), size):
            texts = self.texts[first : first + size]
            latencies, results = [], []
            for text in texts:
                t0 = clock()
                try:
                    result = pipeline.normalize(text, self.system)[0]
                except Exception as exc:
                    result = exc
                latencies.append(clock() - t0)
                results.append(result)
            out.block(sum(latencies), len(texts), len(texts), [t * 1e3 for t in latencies])
            out.attempted += len(texts)
            for result, expected in zip(results, self.expected[first:]):
                if isinstance(result, Exception):
                    out.fail(result)
                elif result != expected:
                    out.consistent = False


class FileWorkload(Workload):
    """cli.main normalize over generated multi-sentence files, one call per file."""

    rules_only = False

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        n_files, n_lines = self.size["files"], self.size["lines"]
        lines = dense_lines(n_files * n_lines, self.seed)
        self.files = []
        self.requests = n_files
        for k in range(n_files):
            chunk = lines[k * n_lines : (k + 1) * n_lines]
            path = self.work / f"in-{k}.txt"
            path.write_text("".join(s.text + "\n" for s in chunk), encoding="utf-8")
            self.files.append((path, self.work / f"out-{k}.txt", chunk))

    def argv(self, src: Path, dst: Path, trace: Path | None = None) -> list[str]:
        argv = ["normalize", "--in", str(src), "--out", str(dst)]
        argv += ["--rules-only"] if self.rules_only else ["--model", str(self.checkpoint)]
        return argv + (["--trace", str(trace)] if trace else [])

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def read_output(self, dst: Path, n_in: int, out: Outcome) -> list[str] | None:
        produced = dst.read_text(encoding="utf-8").split("\n")[:-1]
        if len(produced) != n_in:
            out.consistent = False
            out.fail("line_count_mismatch", n_in)
            return None
        return produced

    def warm(self, out: Outcome) -> dict:
        self.expected, inputs, outputs, records = [], [], [], []
        for k, (src, dst, chunk) in enumerate(self.files):
            trace = self.work / f"trace-{k}.jsonl"
            out.attempted += len(chunk)
            dst.unlink(missing_ok=True)
            code = self.call(self.argv(src, dst, trace))
            produced = None
            if code != 0:
                out.fail(f"exit_{code}", len(chunk))
            else:
                produced = self.read_output(dst, len(chunk), out)
            self.expected.append(produced)
            inputs += chunk
            outputs += produced or [None] * len(chunk)
            by_line: dict[str, list] = {}
            if produced is not None:
                for raw in trace.read_text(encoding="utf-8").splitlines():
                    rec = json.loads(raw)
                    by_line.setdefault(rec["text"], []).append(rec)
            records += [by_line.get(s.text, []) for s in chunk]
        refs = [evaluate.reference_sfw(s) for s in inputs]
        return accuracy(inputs, refs, outputs, records)

    def timed_pass(self, out: Outcome) -> None:
        for k, (src, dst, chunk) in enumerate(self.files):
            argv = self.argv(src, dst)
            t0 = time.perf_counter()
            code = self.call(argv)
            dt = time.perf_counter() - t0
            # A file is one request; its latency is reported per line.
            nsw = sum(len(s.spans) for s in chunk)
            out.block(dt, len(chunk), nsw, [dt * 1e3 / len(chunk)])
            out.attempted += len(chunk)
            if code != 0:
                out.fail(f"exit_{code}", len(chunk))
                continue
            produced = self.read_output(dst, len(chunk), out)
            if produced is not None and produced != self.expected[k]:
                out.consistent = False


class FileHybrid(FileWorkload):
    name = "file_hybrid"
    probe = staticmethod(kernel_probe)


class FileRules(FileWorkload):
    name = "file_rules"
    rules_only = True


class Train(Workload):
    """neural.train with the default ClassifierConfig for a fixed epoch count."""

    name = "train"
    probe = staticmethod(kernel_probe)

    def prepare(self) -> None:
        data = generate(self.size["sentences"] + self.size["held_out"], self.seed)
        self.train_set = data[: self.size["sentences"]]
        self.held_out = data[self.size["sentences"] :]
        self.config = neural.ClassifierConfig(
            label_count=len(DEFAULT_REGISTRY), epochs=self.size["epochs"]
        )
        self.n_samples = sum(len(s.spans) for s in self.train_set)
        self.requests = self.config.epochs
        self.steps = math.ceil(self.n_samples / self.config.batch_size) * self.config.epochs

    def train_once(self, out: Outcome | None):
        """One seeded training run; each epoch is a block (the log hook ends it)."""
        start = [time.perf_counter()]

        def epoch_done(_msg):
            dt = time.perf_counter() - start[0]
            if out is not None:
                out.block(dt, self.n_samples, self.n_samples, [dt * 1e3 / self.n_samples])
            start[0] = time.perf_counter()

        try:
            return neural.train(self.train_set, self.config, log=epoch_done)
        except neural.TrainingDiverged as exc:  # a non-finite step
            return exc

    def warm(self, out: Outcome) -> dict:
        out.attempted += self.steps
        result = self.train_once(None)
        if isinstance(result, Exception):
            out.fail(result)
            self.expected = None
            return {"sentence_accuracy": 0.0, "pattern_accuracy": 0.0}
        self.expected = result.params
        batch = neural.make_training_batch(self.held_out, result.vocab, self.config)
        predicted = neural.predict_batch(result.params, batch, self.config)
        pattern = float((predicted == batch.targets).mean())
        system = build_system(result.params, self.config, result.vocab)
        outputs = [pipeline.normalize(s.text, system)[0] for s in self.held_out]
        refs = [evaluate.reference_sfw(s) for s in self.held_out]
        sentence = sum(o == r for o, r in zip(outputs, refs)) / len(refs)
        return {"sentence_accuracy": sentence, "pattern_accuracy": pattern}

    def timed_pass(self, out: Outcome) -> None:
        out.attempted += self.steps
        result = self.train_once(out)
        if isinstance(result, Exception):
            out.fail(result)
        elif self.expected is not None:
            for name, tensor in result.params.tensors().items():
                if not (tensor == getattr(self.expected, name)).all():
                    out.consistent = False
                    break


def accuracy(inputs, refs, outputs, records) -> dict:
    """Sentence exact match and gold-span label match over a warm pass."""
    n_spans = sum(len(s.spans) for s in inputs)
    sentence = sum(o is not None and o == r for o, r in zip(outputs, refs)) / len(refs)
    pattern = sum(span_hits(s, rec) for s, rec in zip(inputs, records)) / max(n_spans, 1)
    return {"sentence_accuracy": sentence, "pattern_accuracy": pattern}


REGISTRY = {cls.name: cls for cls in (StreamHybrid, FileHybrid, FileRules, Train)}
