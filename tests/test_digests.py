"""Rules-only behaviour and oversampling pinned as sha256 digests over seeded data.

The lines are the benchmark's file inputs in miniature: 2-8 generated
sentences joined by '，' and ended by '。', seed 7. Three things are hashed:
the ``normalize_many`` outputs with their ``to_record()`` traces, the
``reference_sfw`` gold outputs, and the bytes ``write_traces`` writes for
those traces. Rules-only traces hold no floats, so the digests do not
depend on the machine or the numpy version, and no checkpoint is needed.
A fourth digest covers ``oversample_expand`` of the 3000-sentence seed-7
corpus at seed 7, the training set's digit-jitter path. A fifth covers the
numeral readers alone: ``read_number_positional`` and both ``spell_digits``
tables over every value below 10^5, 10^12 - 1 and 20,000 seeded values
below 10^12.

A change that alters rules-only behaviour or the generated data on purpose
updates these digests and says what moved; any other change must leave them
as they are.
"""

import hashlib
import json
import random

import pytest

from mtnorm import pipeline, reader
from mtnorm.corpus import (
    CorpusDistribution,
    LabeledSentence,
    NSWSpan,
    encode_spans,
    generate_synthetic_corpus,
    oversample_expand,
)
from mtnorm.evaluate import reference_sfw

OUTPUTS_AND_TRACES = "796578dfecc77cd04c6345eaac760f24122a7e10cbd091fcff7a39456bc5fda1"
REFERENCES = "56713d41bbcf5421622ac77f87cd69340950051f32e6a2d19079b723a55f8931"
TRACE_FILE = "4c796a0013f8e946f19714c27934cc3062c2225299c0de06e01d2760aa3fd6b4"
OVERSAMPLED = "a88c89fff508779ab1de2629d361b62097b17391fc7a7a18bffec99da44303d7"
READINGS = "1a759f76eae25154e34b587b1de3094f485073dce84500965157fedbcef556f1"


def dense_lines(n_lines, seed):
    """Labelled lines of 2-8 generated sentences, gold spans shifted to line offsets."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 8) for _ in range(n_lines)]
    sentences = iter(generate_synthetic_corpus(CorpusDistribution.default(), sum(sizes), seed))
    lines = []
    for size in sizes:
        text, spans = "", []
        for k in range(size):
            sentence = next(sentences)
            offset = len(text)
            spans += [NSWSpan(s.start + offset, s.end + offset, s.label) for s in sentence.spans]
            text += sentence.text + ("。" if k == size - 1 else "，")
        lines.append(LabeledSentence(text, tuple(spans)))
    return lines


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def lines():
    return dense_lines(2000, seed=7)


@pytest.fixture(scope="module")
def traced(lines, rules_system):
    texts = [line.text for line in lines]
    return texts, pipeline.normalize_many(texts, rules_system)


def test_outputs_and_traces(traced):
    _, results = traced
    payload = [[out, [trace.to_record() for trace in traces]] for out, traces in results]
    assert sha256(json.dumps(payload, ensure_ascii=False).encode()) == OUTPUTS_AND_TRACES


def test_references(lines):
    payload = "\n".join(reference_sfw(line) for line in lines)
    assert sha256(payload.encode()) == REFERENCES


def test_trace_file_bytes(traced, tmp_path):
    texts, results = traced
    path = tmp_path / "trace.jsonl"
    pipeline.write_traces(str(path), [(text, traces) for text, (_, traces) in zip(texts, results)])
    assert sha256(path.read_bytes()) == TRACE_FILE


def test_oversample_expand():
    corpus = generate_synthetic_corpus(CorpusDistribution.default(), 3000, seed=7)
    payload = [[s.text, encode_spans(s)] for s in oversample_expand(corpus, seed=7)]
    assert sha256(json.dumps(payload, ensure_ascii=False).encode()) == OVERSAMPLED


def test_readings():
    rng = random.Random(28)
    values = [*range(100_000), 10**12 - 1, *(rng.randrange(10**12) for _ in range(20_000))]
    payload = []
    for n in values:
        s = str(n)
        payload.append([
            s,
            reader.read_number_positional(s),
            reader.spell_digits(s),
            reader.spell_digits(s, use_yao=True),
        ])
    assert sha256(json.dumps(payload, ensure_ascii=False).encode()) == READINGS
    assert reader._read_group.cache_info().currsize <= 9999
