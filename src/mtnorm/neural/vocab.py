"""Character vocabulary for the pattern classifier, and its window builder.

Ids 0 and 1 are reserved: ``UNK_ID`` reads every character the vocabulary
does not know and ``PAD_ID`` pads windows past the text's ends. Attention
gives padding keys no weight, so the padding row reaches no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable

import numpy as np

from ..corpus import LabeledSentence, NSWSpan

UNK_ID = 0
PAD_ID = 1
# The character that ``id_of`` reads as padding, wherever it occurs.
PAD_CHAR = "\x00"


@dataclass(frozen=True)
class Vocabulary:
    char_to_id: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.char_to_id.values())
        if ids and (ids[0] < 2 or len(set(ids)) != len(ids) or ids[-1] != len(ids) + 1):
            raise ValueError("character ids must be dense in [2, V)")

    @property
    def size(self) -> int:
        return len(self.char_to_id) + 2

    def id_of(self, char: str) -> int:
        return self._lookup.get(char, UNK_ID)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        """Every id but ``UNK_ID`` as one dict, for encoding whole texts."""
        return {**self.char_to_id, PAD_CHAR: PAD_ID}

    def windows(
        self, text: str, spans: Iterable[NSWSpan], width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Window ids and NSW masks, ``(len(spans), width)`` each, for spans of one text.

        A window is centred on its span, with the extra context character
        on the right; positions outside the text read ``PAD_ID``. An NSW
        at least ``width`` long keeps its first ``width`` characters. The
        padded text is encoded once as a list and every window sliced from
        it; a mask is built from its head, NSW and tail lengths. Both
        arrays are C-contiguous and writable.
        """
        codes = [PAD_ID] * width
        codes += map(self._lookup.get, text, repeat(UNK_ID))
        codes += [PAD_ID] * width
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


def build_vocab(corpus: Iterable[LabeledSentence]) -> Vocabulary:
    """Dense vocabulary over every character seen in the corpus."""
    chars = sorted({ch for sentence in corpus for ch in sentence.text})
    mapping = {ch: i + 2 for i, ch in enumerate(chars)}
    return Vocabulary(mapping)
