"""Character vocabulary for the pattern classifier, and its window builder.

Ids 0 and 1 are reserved; one of them is the padding code and the other
catches unknown characters, so the pad-with-0 ablation only swaps which
embedding row absorbs padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable

import numpy as np

from ..corpus import LabeledSentence, NSWSpan

# The character that ``id_of`` reads as padding, wherever it occurs.
PAD_CHAR = "\x00"


@dataclass(frozen=True)
class Vocabulary:
    char_to_id: dict[str, int]
    pad_id: int = 1
    unk_id: int = 0

    def __post_init__(self):
        if {self.pad_id, self.unk_id} != {0, 1}:
            raise ValueError("pad_id and unk_id must be the reserved ids 0 and 1, one each")
        ids = sorted(self.char_to_id.values())
        if ids and (ids[0] < 2 or len(set(ids)) != len(ids) or ids[-1] != len(ids) + 1):
            raise ValueError("character ids must be dense in [2, V)")

    @property
    def size(self) -> int:
        return len(self.char_to_id) + 2

    def id_of(self, char: str) -> int:
        if char == PAD_CHAR:
            return self.pad_id
        return self.char_to_id.get(char, self.unk_id)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        """``id_of`` as one dict, for encoding whole texts."""
        return {**self.char_to_id, PAD_CHAR: self.pad_id}

    def windows(
        self, text: str, spans: Iterable[NSWSpan], width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Window ids and NSW masks, ``(len(spans), width)`` each, for spans of one text.

        A window is centred on its span, with the extra context character
        on the right; positions outside the text read ``pad_id``. An NSW
        at least ``width`` long keeps its first ``width`` characters. The
        padded text is encoded once as a list and every window sliced from
        it; a mask is built from its head, NSW and tail lengths. Both
        arrays are C-contiguous and writable.
        """
        codes = [self.pad_id] * width
        codes += map(self._lookup.get, text, repeat(self.unk_id))
        codes += [self.pad_id] * width
        ids: list[int] = []
        nsw = bytearray()  # one byte per mask position, read as bool
        for span in spans:
            start, length = span.start, span.end - span.start
            head = max(0, (width - length) // 2)  # context before the NSW
            first = start - head + width  # the window's first index in codes
            ids += codes[first : first + width]
            length = min(length, width)
            nsw += bytes(head) + b"\x01" * length + bytes(width - head - length)
        shape = (-1, width)
        return np.array(ids, dtype=np.int64).reshape(shape), np.frombuffer(nsw, dtype=bool).reshape(shape)


def build_vocab(corpus: Iterable[LabeledSentence], pad_id: int = 1) -> Vocabulary:
    """Dense vocabulary over every character seen in the corpus."""
    chars = sorted({ch for sentence in corpus for ch in sentence.text})
    mapping = {ch: i + 2 for i, ch in enumerate(chars)}
    return Vocabulary(mapping, pad_id=pad_id, unk_id=1 - pad_id)
