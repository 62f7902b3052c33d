"""Versioned checkpoint files: tensors plus config and vocabulary.

The container is a numpy .npz archive (self-describing shapes). A
``format_version`` entry gates loading, and every tensor shape is checked
against the stored config before the model is accepted.

``load_params`` reads only the layout ``save_params`` writes. A file in an
older layout (config ``pad_id`` or ``pretrained_vectors``, vocabulary
``pad_id`` / ``unk_id``) is rejected with the key named, as is any other
malformed file: every failure to load is a ``CheckpointError``.
"""

from __future__ import annotations

import json

import numpy as np

from .model import ClassifierConfig, EncoderParams
from .vocab import Vocabulary

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_params(path: str, params: EncoderParams, config: ClassifierConfig, vocab: Vocabulary) -> None:
    np.savez(
        path,
        format_version=np.asarray(FORMAT_VERSION),
        config_json=np.asarray(config.to_json()),
        vocab_json=np.asarray(json.dumps({"char_to_id": vocab.char_to_id}, ensure_ascii=False)),
        **params.tensors(),
    )


def load_params(path: str) -> tuple[EncoderParams, ClassifierConfig, Vocabulary]:
    try:
        # np.load leaves a file it opened itself unclosed when the archive is bad
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            if "format_version" not in archive:
                raise ValueError("not a classifier checkpoint")
            version = int(archive["format_version"])
            if version != FORMAT_VERSION:
                raise ValueError(f"format version {version} unsupported (expected {FORMAT_VERSION})")
            config = ClassifierConfig(**json.loads(str(archive["config_json"])))
            raw_vocab = json.loads(str(archive["vocab_json"]))
            if raw_vocab.keys() != {"char_to_id"}:
                raise ValueError(f"vocabulary keys {sorted(raw_vocab)} are not ['char_to_id']")
            if not all(type(i) is int for i in raw_vocab["char_to_id"].values()):
                raise ValueError("character ids must be integers")
            vocab = Vocabulary(raw_vocab["char_to_id"])
            fields = EncoderParams.__dataclass_fields__
            params = EncoderParams(**{name: archive[name] for name in fields})
        params.check_shapes(config, vocab.size)
        params.check_finite()
    except Exception as exc:
        # the file is outside input: whatever it breaks (zip, JSON, keys, types,
        # values) is reported as the file's fault, with the cause chained
        raise CheckpointError(f"{path}: {exc}") from exc
    return params, config, vocab
