"""Find digit/symbol NSW spans in raw text, plus the priority check.

The scan pattern takes maximal left-to-right runs of digits interleaved
with the symbol set ``. : - ~ — / % , $``. A span must start with a digit
(optionally a leading $) and end with a digit or %, so adjacent
punctuation never leaks in; pure-symbol runs are never spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import NSWSpan

NSW_SYMBOLS = ".:-~—/%,$"

NSW_SCAN = re.compile(r"\$?\d(?:[\d.:\-~—/%,$]*[\d%])?")

# Corpus spans may additionally carry a per-unit tail (5人/组); the scanner
# itself never crosses Han characters.
NSW_SPAN_VALID = re.compile(
    NSW_SCAN.pattern + r"|\d+(?:\.\d+)?[一-鿿]{0,3}/[一-鿿]{1,3}"
)


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
    return surface in pl.exact_strings or any(p.fullmatch(surface) for p in pl.user_patterns)


def load_priority_list(path: str) -> PriorityList:
    """One entry per line; ``re:``-prefixed lines are full-match patterns."""
    exact: set[str] = set()
    patterns: list[re.Pattern] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
