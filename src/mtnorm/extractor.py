"""Find digit/symbol NSW spans in raw text, plus the priority check.

The scan pattern takes maximal left-to-right runs of digits interleaved
with the symbols of ``NSW_SYMBOLS`` (``. : - ~ — / % , $``). A span must
start with a digit (optionally a leading $) and end with a digit or %, so
adjacent punctuation never leaks in; pure-symbol runs are never spans.
A corpus span is checked against its own label's format, not this pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import NSWSpan, read_text

NSW_SYMBOLS = ".:-~—/%,$"

NSW_SCAN = re.compile(rf"\$?\d(?:[\d{re.escape(NSW_SYMBOLS)}]*[\d%])?")


def extract_nsw(text: str) -> list[NSWSpan]:
    """Maximal non-overlapping digit/symbol spans, leftmost-longest."""
    return [NSWSpan(m.start(), m.end()) for m in NSW_SCAN.finditer(text)]


@dataclass
class PriorityList:
    """Definite NSW surfaces that bypass the classifier."""

    exact_strings: frozenset[str] = frozenset()
    user_patterns: list[re.Pattern] = field(default_factory=list)


def priority_check(surface: str, pl: PriorityList) -> bool:
    """Whether the surface is one of the exact strings or fully matches a pattern."""
    if surface in pl.exact_strings:
        return True
    for pattern in pl.user_patterns:
        if pattern.fullmatch(surface):
            return True
    return False


def load_priority_list(path: str) -> PriorityList:
    """One entry per line; ``re:``-prefixed lines are full-match patterns."""
    exact: set[str] = set()
    patterns: list[re.Pattern] = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("re:"):
            try:
                patterns.append(re.compile(line[3:].strip()))
            except re.error as exc:
                raise ValueError(f"{path}:{lineno}: bad pattern: {exc}") from exc
        else:
            exact.add(line)
    return PriorityList(frozenset(exact), patterns)
