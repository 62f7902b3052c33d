import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles.py importable as a module

from mtnorm import corpus as cm
from mtnorm import legality, pipeline
from mtnorm.extractor import load_priority_list
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.neural import ClassifierConfig, model, train
from mtnorm.rules import compile_rules


def data_path(name: str) -> str:
    return str(resources.files("mtnorm").joinpath(f"data/{name}"))


@pytest.fixture(scope="session")
def ruleset():
    return compile_rules(data_path("rules.txt"))


@pytest.fixture(scope="session")
def priority_list():
    return load_priority_list(data_path("priority.txt"))


@pytest.fixture(scope="session")
def formats():
    return legality.default_formats()


@pytest.fixture(scope="session")
def rules_system(ruleset, priority_list, formats):
    """The rules-only baseline: the shipped system with no classifier."""
    return pipeline.HybridSystem(
        rules=ruleset, priority=priority_list, params=None, config=None, vocab=None,
        formats=formats,
    )


@pytest.fixture(scope="session")
def fixture_rows():
    rows = []
    text = Path(__file__).with_name("fixtures.tsv").read_text("utf-8")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        surface, label, expected = line.split("\t")
        rows.append((surface, label, expected))
    assert len(rows) >= 200
    return rows


@pytest.fixture(scope="session")
def tiny_config():
    return ClassifierConfig(
        model_dim=32, heads=4, ff_dim=64, label_count=len(DEFAULT_REGISTRY), epochs=4, seed=5
    )


@pytest.fixture(scope="session")
def tiny_system(ruleset, priority_list, formats, tiny_config):
    """Small but competent hybrid system shared across pipeline-level tests."""
    corpus = cm.generate_synthetic_corpus(cm.CorpusDistribution.default(), 1200, seed=3)
    result = train(corpus, tiny_config)
    assert result.history[-1]["accuracy"] > 0.95
    return pipeline.HybridSystem(
        rules=ruleset,
        priority=priority_list,
        params=result.params,
        config=tiny_config,
        vocab=result.vocab,
        formats=formats,
    )


@pytest.fixture
def forward_calls(monkeypatch):
    """Per ``forward_batch`` call, the NSW count of each window it ran."""
    calls = []
    real_forward = model.forward_batch

    def counting_forward(encoder, ids, nsw, *rest):
        calls.append(np.asarray(nsw, dtype=bool).sum(axis=1).tolist())
        return real_forward(encoder, ids, nsw, *rest)

    monkeypatch.setattr(model, "forward_batch", counting_forward)
    return calls
