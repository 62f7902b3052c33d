"""Pattern label taxonomy: the closed set of NSW categories the system knows.

Each label owns a full-match surface format, exactly one reader from
:mod:`mtnorm.reader` and the generator that draws its synthetic surfaces.
``DEFAULT_REGISTRY`` is the one label table: the rules, the classifier's
softmax mask, the post-classification verifier, ``reader.render``, corpus IO
and synthesis, and the metrics all read it directly, so they can never
drift apart. The shipped set covers the ten core patterns plus a
dollar-amount example of registry extension.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

from . import reader

# Full-match patterns over NSW surface strings. Deliberately overlapping:
# a bare digit string is format-legal for several labels and only context
# can pick one, which is what the classifier is for.
_NUM = r"\d{1,12}"
_NUM_COMMA = r"\d{1,3}(?:,\d{3}){1,3}"  # the positional reader stops at 10^12
_DEC = r"\d{1,12}(?:\.\d{1,6})?"
_HAN = r"[一-鿿]"


@dataclass(frozen=True)
class PatternLabel:
    """One pattern group: dense id, unique name, surface format, reader, generator, blurb."""

    id: int
    name: str
    format: re.Pattern
    read: Callable[[str], str]
    draw: Callable[[random.Random], str]
    description: str = ""


class LabelRegistry:
    """Dense, ordered registry of pattern labels (name and id unique)."""

    def __init__(self):
        self._labels: list[PatternLabel] = []
        self._by_name: dict[str, PatternLabel] = {}

    def register(
        self,
        name: str,
        pattern: str,
        read: Callable[[str], str],
        draw: Callable[[random.Random], str],
        description: str = "",
    ) -> PatternLabel:
        if name in self._by_name:
            raise ValueError(f"duplicate label name: {name}")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"bad pattern for {name}: {exc}") from exc
        lab = PatternLabel(len(self._labels), name, compiled, read, draw, description)
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


# Synthetic-surface generators. Each draws only surfaces its label's format
# accepts, and corpus synthesis checks every draw.

def _draw_percent(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"{rng.randint(0, 99)}.{rng.randint(0, 9)}%"
    return f"{rng.randint(0, 100)}%"


def _draw_range(rng: random.Random) -> str:
    lo = rng.randint(0, 995)
    hi = rng.randint(lo + 1, lo + 200)
    if rng.random() < 0.2:
        return f"{lo}.{rng.randint(0, 9)}{rng.choice('-~—')}{hi}.{rng.randint(0, 9)}"
    return f"{lo}{rng.choice('-~—')}{hi}"


def _draw_score(rng: random.Random) -> str:
    sep = rng.choice("-:")
    hi = 30 if sep == ":" else 150
    return f"{rng.randint(0, hi)}{sep}{rng.randint(0, 59)}"


def _draw_per(rng: random.Random) -> str:
    num = rng.randint(1, 99)
    left_unit = rng.choice(["", "人", "件", "次", "元", "公里", "毫克"])
    right_unit = rng.choice(["组", "天", "周", "小时", "人", "箱"])
    return f"{num}{left_unit}/{right_unit}"


def default_registry() -> LabelRegistry:
    """Build the shipped taxonomy."""
    reg = LabelRegistry()
    reg.register(
        "A_Read_No_Zero",
        rf"(?:{_NUM_COMMA}|{_NUM})",
        reader.render_read,
        lambda rng: str(rng.randint(0, 99999)),
        "positional number reading, e.g. 200 people",
    )
    reg.register(
        "A_Spell_Keep_Zero",
        _NUM,
        reader.render_spell,
        lambda rng: str(rng.randint(1950, 2099)),
        "digit-by-digit spelling keeping zeros, e.g. the 2020 conference",
    )
    reg.register(
        "B_Percent",
        rf"{_DEC}%",
        reader.render_percent,
        _draw_percent,
        "percentage, e.g. only 10% of students voted",
    )
    reg.register(
        "B_Range",
        rf"{_DEC}[-~—]{_DEC}",
        reader.render_range,
        _draw_range,
        "numeric range, e.g. about 10-15 degrees",
    )
    reg.register(
        "B_Score_Ratio",
        r"\d{1,3}[-:]\d{1,3}",
        reader.render_score,
        _draw_score,
        "game score or ratio, e.g. 30-10 leading",
    )
    reg.register(
        "B_Slash_Per",
        rf"{_DEC}{_HAN}{{0,3}}/{_HAN}{{1,3}}",
        reader.render_per,
        _draw_per,
        "per-unit quantity, e.g. five people/group",
    )
    reg.register(
        "B_Time",
        r"(?:[01]?\d|2[0-3]):[0-5]\d",
        reader.render_time,
        lambda rng: f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}",
        "clock time, e.g. it starts at 10:30",
    )
    reg.register(
        "B_Date_YMD",
        r"\d{4}-(?:0?[1-9]|1[0-2])-(?:0?[1-9]|[12]\d|3[01])",
        reader.render_date,
        lambda rng: f"{rng.randint(1950, 2030)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "dashed date, e.g. today is 2019-10-01",
    )
    reg.register(
        "A_Two_Liang",
        r"2",
        reader.render_liang,
        lambda rng: "2",
        "standalone 2 read as liang, e.g. 2 people",
    )
    reg.register(
        "A_One_Yao_Spell",
        _NUM,
        reader.render_yao,
        lambda rng: "1" + rng.choice("3456789") + "".join(rng.choice("0123456789") for _ in range(9)),
        "digit-by-digit with 1 read as yao, e.g. call 911",
    )
    # Registry extension example beyond the core ten.
    reg.register(
        "B_Dollar",
        rf"\${_DEC}",
        reader.render_dollar,
        lambda rng: f"${rng.randint(1, 9999)}",
        "dollar amount, e.g. $20",
    )
    return reg


DEFAULT_REGISTRY = default_registry()
