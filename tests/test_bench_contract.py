"""The mtnorm names the benchmark harness calls, resolved from the package.

``perfbench/workloads.py`` and ``perfbench/run.py`` call these. Removing or
renaming one breaks the benchmark while the rest of the suite stays green,
so each is listed here explicitly. So are the tracer's layer targets
(``perfbench/spans.py``): the tracer reports a missing one as absent and
its per-layer metrics then read 0, so a refactor that moved one would
silently zero a layer's numbers.
"""

import dataclasses
import importlib
import inspect
import json
from importlib import resources

import pytest

from mtnorm.cli import build_parser

CALLED = (
    ("mtnorm.cli", "main"),
    ("mtnorm.corpus", "CorpusDistribution.default"),
    ("mtnorm.corpus", "LabeledSentence"),
    ("mtnorm.corpus", "NSWSpan"),
    ("mtnorm.corpus", "generate_synthetic_corpus"),
    ("mtnorm.evaluate", "reference_sfw"),
    ("mtnorm.extractor", "load_priority_list"),
    ("mtnorm.labels", "DEFAULT_REGISTRY.by_id"),
    ("mtnorm.legality", "default_formats"),
    ("mtnorm.neural", "ClassifierConfig"),
    ("mtnorm.neural", "TrainingDiverged"),
    ("mtnorm.neural", "load_params"),
    ("mtnorm.neural", "make_training_batch"),
    ("mtnorm.neural", "predict_batch"),
    ("mtnorm.neural", "save_params"),
    ("mtnorm.neural", "train"),
    ("mtnorm.pipeline", "HybridSystem"),
    ("mtnorm.pipeline", "normalize"),
    ("mtnorm.rules", "compile_rules"),
)

# (module, attribute) of every layer perfbench/spans.py wraps
TRACED = (
    ("mtnorm.neural.model", "forward_batch"),
    ("mtnorm.neural.model", "backward_batch"),
    ("mtnorm.neural.train", "AdamState.step"),
    ("mtnorm.neural.train", "make_training_batch"),
    ("mtnorm.neural.train", "train"),
    ("mtnorm.cli", "main"),
    ("mtnorm.pipeline", "normalize"),
    ("mtnorm.rules", "match_nsw"),
    ("mtnorm.reader", "render"),
    ("mtnorm.extractor", "extract_nsw"),
    ("mtnorm.extractor", "priority_check"),
    ("mtnorm.legality", "FormatRegistry.legal_labels"),
    ("mtnorm.legality", "FormatRegistry.verify"),
)


def resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", CALLED, ids=[f"{m}.{a}" for m, a in CALLED])
def test_called_name_resolves(module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_layer_resolves(module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize(
    "attr, arity", [("make_training_batch", 3), ("predict_batch", 3), ("train", 2)]
)
def test_positional_calls_bind(attr, arity):
    # workloads.py calls these with this many positional arguments and no others
    inspect.signature(resolve("mtnorm.neural", attr)).bind(*[None] * arity)


def test_keyword_construction():
    from mtnorm.neural import ClassifierConfig
    from mtnorm.pipeline import HybridSystem

    config = ClassifierConfig(label_count=11, epochs=6, seed=0)
    for field in ("window", "heads", "model_dim", "ff_dim", "batch_size", "epochs"):
        assert hasattr(config, field)
    fields = {f.name for f in dataclasses.fields(HybridSystem)}
    assert fields >= {"rules", "priority", "params", "config", "vocab", "formats"}


def test_float64_params_accepted(tmp_path):
    # workloads.py passes the float64 EncoderParams that train and
    # load_params return to predict_batch and HybridSystem
    import numpy as np

    from mtnorm import legality, neural, pipeline
    from mtnorm.corpus import CorpusDistribution, generate_synthetic_corpus
    from mtnorm.extractor import load_priority_list
    from mtnorm.labels import DEFAULT_REGISTRY
    from mtnorm.rules import compile_rules

    data = resources.files("mtnorm").joinpath("data")
    corpus = generate_synthetic_corpus(CorpusDistribution.default(), 40, seed=1)
    config = neural.ClassifierConfig(
        model_dim=16, heads=2, ff_dim=32, label_count=len(DEFAULT_REGISTRY), epochs=1
    )
    result = neural.train(corpus, config)
    path = str(tmp_path / "m.npz")
    neural.save_params(path, result.params, config, result.vocab)
    loaded, _, loaded_vocab = neural.load_params(path)
    for params, vocab in ((result.params, result.vocab), (loaded, loaded_vocab)):
        assert all(t.dtype == np.float64 for t in params.tensors().values())
        batch = neural.make_training_batch(corpus, vocab, config)
        assert neural.predict_batch(params, batch, config).shape == (len(batch),)
        system = pipeline.HybridSystem(
            rules=compile_rules(str(data.joinpath("rules.txt"))),
            priority=load_priority_list(str(data.joinpath("priority.txt"))),
            params=params,
            config=config,
            vocab=vocab,
            formats=legality.default_formats(),
        )
        assert system.params is params
        pipeline.normalize(corpus[0].text, system)


@pytest.mark.parametrize("mode", [["--rules-only"], ["--model", "m.npz"]])
def test_normalize_options(mode):
    args = build_parser().parse_args(
        ["normalize", "--in", "in.txt", "--out", "out.txt", *mode, "--trace", "t.jsonl"]
    )
    assert (args.infile, args.out, args.trace) == ("in.txt", "out.txt", "t.jsonl")


def test_trace_record_keys(tmp_path, capsys):
    # workloads.py groups --trace records by "text" and scores pattern
    # accuracy by comparing "start", "end" and the "label" name to gold spans
    from mtnorm.cli import main
    from mtnorm.labels import DEFAULT_REGISTRY

    text, trace = "会议定于上午10:30开始", tmp_path / "trace.jsonl"
    assert main(["normalize", "--rules-only", "--text", text, "--trace", str(trace)]) == 0
    [record] = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
    assert (record["text"], record["start"], record["end"]) == (text, 6, 11)
    assert record["label"] in DEFAULT_REGISTRY


@pytest.mark.parametrize("name", ["rules.txt", "priority.txt"])
def test_shipped_data_files(name):
    assert resources.files("mtnorm").joinpath(f"data/{name}").is_file()
