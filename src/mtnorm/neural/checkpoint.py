"""Versioned checkpoint files: tensors plus config and vocabulary.

The container is a numpy .npz archive (self-describing shapes). A
``format_version`` entry gates loading, and every tensor shape is checked
against the stored config before the model is accepted.

Older files also hold ``pad_id`` (config) and ``pad_id`` / ``unk_id``
(vocabulary): the fixed ids load as saved, and the swapped pair loads with
embedding rows 0 and 1 swapped, an exact equivalent.
"""

from __future__ import annotations

import json
from contextlib import ExitStack

import numpy as np

from .model import ClassifierConfig, EncoderParams
from .vocab import PAD_ID, UNK_ID, Vocabulary

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
    # np.load leaves a file it opened itself unclosed when the archive is bad
    with ExitStack() as stack:
        try:
            fh = stack.enter_context(open(path, "rb"))
            archive = stack.enter_context(np.load(fh, allow_pickle=False))
        except Exception as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        try:
            version = int(archive["format_version"])
        except KeyError:
            raise CheckpointError(f"{path}: not a classifier checkpoint") from None
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
            )
        raw_config = json.loads(str(archive["config_json"]))
        # A removed config field, null in every checkpoint saved with it; vectors it
        # named would already be in ``embedding``.
        raw_config.pop("pretrained_vectors", None)
        raw_vocab = json.loads(str(archive["vocab_json"]))
        reserved = (
            raw_config.pop("pad_id", PAD_ID),
            raw_vocab.get("pad_id", PAD_ID),
            raw_vocab.get("unk_id", UNK_ID),
        )
        if reserved not in ((PAD_ID, PAD_ID, UNK_ID), (UNK_ID, UNK_ID, PAD_ID)):
            # attention would mask the wrong keys without any other error
            raise CheckpointError(f"{path}: config pad_id, vocabulary pad_id and unk_id "
                                  f"{reserved} are not the reserved ids (1, 1, 0) or (0, 0, 1)")
        try:
            config = ClassifierConfig(**raw_config)
            vocab = Vocabulary({k: int(v) for k, v in raw_vocab["char_to_id"].items()})
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        field_names = EncoderParams.__dataclass_fields__
        tensors = {}
        for name in field_names:
            if name not in archive:
                raise CheckpointError(f"{path}: missing tensor {name}")
            tensors[name] = archive[name]
    params = EncoderParams(**tensors)
    try:
        params.check_shapes(config, vocab.size)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if reserved[0] != PAD_ID:
        params.embedding[[PAD_ID, UNK_ID]] = params.embedding[[UNK_ID, PAD_ID]]
    params.check_finite()
    return params, config, vocab
