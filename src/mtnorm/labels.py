"""Pattern label taxonomy: the closed set of NSW categories the system knows.

Each label owns a full-match surface format and exactly one reader from
:mod:`mtnorm.reader`. The registry is the one table the rules, the
classifier's softmax mask and the post-classification verifier share, so
they can never drift apart. The shipped set covers the ten core patterns
plus a dollar-amount example of registry extension; the registry accepts up
to ``MAX_LABELS`` entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from . import reader

MAX_LABELS = 36

# Full-match patterns over NSW surface strings. Deliberately overlapping:
# a bare digit string is format-legal for several labels and only context
# can pick one, which is what the classifier is for.
_NUM = r"\d{1,12}"
_NUM_COMMA = r"\d{1,3}(?:,\d{3}){1,3}"  # the positional reader stops at 10^12
_DEC = r"\d{1,12}(?:\.\d{1,6})?"
_HAN = r"[一-鿿]"


@dataclass(frozen=True)
class PatternLabel:
    """One pattern group: dense id, unique name, surface format, reader, blurb."""

    id: int
    name: str
    format: re.Pattern
    read: Callable[[str], str]
    description: str = ""


class LabelRegistry:
    """Dense, ordered registry of pattern labels (name and id unique)."""

    def __init__(self):
        self._labels: list[PatternLabel] = []
        self._by_name: dict[str, PatternLabel] = {}

    def register(
        self, name: str, pattern: str, read: Callable[[str], str], description: str = ""
    ) -> PatternLabel:
        if name in self._by_name:
            raise ValueError(f"duplicate label name: {name}")
        if len(self._labels) >= MAX_LABELS:
            raise ValueError(f"label registry is full ({MAX_LABELS} entries)")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"bad pattern for {name}: {exc}") from exc
        lab = PatternLabel(len(self._labels), name, compiled, read, description)
        self._labels.append(lab)
        self._by_name[name] = lab
        return lab

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def by_id(self, label_id: int) -> PatternLabel:
        if not 0 <= label_id < len(self._labels):
            raise KeyError(f"unknown label id: {label_id}")
        return self._labels[label_id]

    def by_name(self, name: str) -> PatternLabel:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown label name: {name}") from None

    def id_of(self, name: str) -> int:
        return self.by_name(name).id

    def legal_labels(self, surface: str) -> list[bool]:
        """Per-label admissibility flags for an NSW surface."""
        return [lab.format.fullmatch(surface) is not None for lab in self._labels]

    def verify(self, surface: str, label_id: int) -> bool:
        return self.by_id(label_id).format.fullmatch(surface) is not None

    @classmethod
    def from_file(cls, path: str) -> LabelRegistry:
        """The shipped labels with formats overridden from a file.

        The file holds ``name: pattern`` lines (rule-file grammar: # comments
        allowed). Every label keeps its id, name and reader.
        """
        overrides: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                name, sep, pattern = line.partition(":")
                if not sep or not pattern.strip():
                    raise ValueError(f"{path}:{lineno}: expected 'label: pattern'")
                name = name.strip()
                if name not in DEFAULT_REGISTRY:
                    raise ValueError(f"{path}:{lineno}: unknown label {name!r}")
                overrides[name] = pattern.strip()
        reg = cls()
        for lab in DEFAULT_REGISTRY:
            reg.register(
                lab.name, overrides.get(lab.name, lab.format.pattern), lab.read, lab.description
            )
        return reg


def default_registry() -> LabelRegistry:
    """Build the shipped taxonomy."""
    reg = LabelRegistry()
    reg.register(
        "A_Read_No_Zero",
        rf"(?:{_NUM_COMMA}|{_NUM})",
        reader.render_read,
        "positional number reading, e.g. 200 people",
    )
    reg.register(
        "A_Spell_Keep_Zero",
        _NUM,
        reader.render_spell,
        "digit-by-digit spelling keeping zeros, e.g. the 2020 conference",
    )
    reg.register(
        "B_Percent",
        rf"{_DEC}%",
        reader.render_percent,
        "percentage, e.g. only 10% of students voted",
    )
    reg.register(
        "B_Range",
        rf"{_DEC}[-~—]{_DEC}",
        reader.render_range,
        "numeric range, e.g. about 10-15 degrees",
    )
    reg.register(
        "B_Score_Ratio",
        r"\d{1,3}[-:]\d{1,3}",
        reader.render_score,
        "game score or ratio, e.g. 30-10 leading",
    )
    reg.register(
        "B_Slash_Per",
        rf"{_DEC}{_HAN}{{0,3}}/{_HAN}{{1,3}}",
        reader.render_per,
        "per-unit quantity, e.g. five people/group",
    )
    reg.register(
        "B_Time",
        r"(?:[01]?\d|2[0-3]):[0-5]\d",
        reader.render_time,
        "clock time, e.g. it starts at 10:30",
    )
    reg.register(
        "B_Date_YMD",
        r"\d{4}-(?:0?[1-9]|1[0-2])-(?:0?[1-9]|[12]\d|3[01])",
        reader.render_date,
        "dashed date, e.g. today is 2019-10-01",
    )
    reg.register(
        "A_Two_Liang",
        r"2",
        reader.render_liang,
        "standalone 2 read as liang, e.g. 2 people",
    )
    reg.register(
        "A_One_Yao_Spell",
        _NUM,
        reader.render_yao,
        "digit-by-digit with 1 read as yao, e.g. call 911",
    )
    # Registry extension example beyond the core ten.
    reg.register(
        "B_Dollar",
        rf"\${_DEC}",
        reader.render_dollar,
        "dollar amount, e.g. $20",
    )
    return reg


DEFAULT_REGISTRY = default_registry()
