"""Prioritized context-pattern rules: the pipeline's priority and fallback route.

Matching walks rules by declared context length, longest first, so more
specific context always beats higher priority at a shorter length;
priority breaks ties within a length, rule name breaks exact ties. The
order is derived from the rule fields, never from file position.

A rule's ``label:`` names a label of the shipped label table, and its NSW
shape defaults to that label's format, so rules, classifier mask and
readers share one surface domain; an explicit ``nsw:`` narrows it.

A rule with a ``pre:`` or ``post:`` pattern is a context rule
(``Rule.context``) and needs a positive ``context_len`` to search in. When
``match_nsw``'s answer is a context rule, the hybrid takes it as definite
and skips the classifier. It asks ``match_nsw`` over the set's
``context_prefix``, the match-order prefix that ends at the last context
rule: every context rule lies in it, so a match past it, or no match, is
never a context rule, and the prefix gives the same answer for less walking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import NSWSpan, read_text
from .labels import DEFAULT_REGISTRY


class RuleError(ValueError):
    """Bad rule file or unresolvable rule configuration."""


@dataclass(frozen=True)
class Rule:
    name: str
    priority: int
    pre_pattern: re.Pattern
    nsw_pattern: re.Pattern
    post_pattern: re.Pattern
    context_len: int
    label: int

    def sort_key(self):
        # Descending specificity, descending priority, stable by name.
        return (-self.context_len, -self.priority, self.name)

    @property
    def context(self) -> bool:
        """Whether the rule has a ``pre:`` or ``post:`` pattern."""
        return bool(self.pre_pattern.pattern or self.post_pattern.pattern)


class RuleSet:
    """Rules indexed in match order; immutable after construction.

    ``match_nsw`` walks ``_matchers``: per rule in match order, its NSW
    ``fullmatch``, its context length and its pre and post ``search``, or
    ``None`` for an empty pattern, which always matches.
    ``context_prefix`` holds the rules up to and including the last context
    rule in match order: the set itself when that is its last rule (or it
    is empty), else a new ``RuleSet`` of that prefix.
    """

    def __init__(self, rules: list[Rule]):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise RuleError(f"duplicate rule name: {dupe}")
        self.rules: tuple[Rule, ...] = tuple(sorted(rules, key=Rule.sort_key))
        self._matchers = tuple(
            (
                rule,
                rule.nsw_pattern.fullmatch,
                rule.context_len,
                rule.pre_pattern.search if rule.pre_pattern.pattern else None,
                rule.post_pattern.search if rule.post_pattern.pattern else None,
            )
            for rule in self.rules
        )
        last = max((i for i, rule in enumerate(self.rules) if rule.context), default=-1)
        self.context_prefix = (
            self if last == len(self.rules) - 1 else RuleSet(self.rules[: last + 1])
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


_RULE_FIELDS = {"priority", "context_len", "pre", "nsw", "post", "label"}


def parse_rules(text: str, source: str = "<rules>") -> RuleSet:
    records: list[tuple[int, str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise RuleError(f"{source}:{lineno}: expected 'field: value', got {raw!r}")
        if key == "rule":
            if not value:
                raise RuleError(f"{source}:{lineno}: rule needs a name")
            current = {}
            records.append((lineno, value, current))
        elif current is None:
            raise RuleError(f"{source}:{lineno}: field outside a rule record")
        elif key in _RULE_FIELDS:
            current[key] = value
        else:
            raise RuleError(f"{source}:{lineno}: unknown field {key!r}")

    rules = []
    for lineno, name, fields in records:
        label_name = fields.get("label", "")
        if label_name not in DEFAULT_REGISTRY:
            raise RuleError(f"{source}:{lineno}: rule {name}: unknown label {label_name!r}")
        try:
            rules.append(
                Rule(
                    name=name,
                    priority=int(fields.get("priority", "0")),
                    pre_pattern=re.compile(fields.get("pre", "")),
                    nsw_pattern=re.compile(
                        fields.get("nsw") or DEFAULT_REGISTRY.by_name(label_name).format
                    ),
                    post_pattern=re.compile(fields.get("post", "")),
                    context_len=int(fields.get("context_len", "0")),
                    label=DEFAULT_REGISTRY.id_of(label_name),
                )
            )
        except re.error as exc:
            raise RuleError(f"{source}:{lineno}: rule {name}: bad pattern: {exc}") from exc
        except ValueError as exc:
            raise RuleError(f"{source}:{lineno}: rule {name}: {exc}") from exc
        if rules[-1].context_len < 0:
            raise RuleError(f"{source}:{lineno}: rule {name}: context_len must be >= 0")
        if rules[-1].context_len == 0 and rules[-1].context:
            raise RuleError(
                f"{source}:{lineno}: rule {name}: a pre or post pattern needs context_len >= 1"
            )
    return RuleSet(rules)


def compile_rules(path: str) -> RuleSet:
    return parse_rules(read_text(path), source=path)


def match_nsw(rs: RuleSet, text: str, span: NSWSpan) -> Rule | None:
    """First rule in specificity order whose patterns all match at the span.

    The NSW pattern must match the whole surface; the pre and post patterns
    search the up to ``context_len`` characters before and after it.
    """
    start, end = span.start, span.end
    surface = text[start:end]
    for rule, fullmatch, context_len, pre, post in rs._matchers:
        if fullmatch(surface) is None:
            continue
        if pre is not None and pre(text[max(0, start - context_len) : start]) is None:
            continue
        if post is not None and post(text[end : end + context_len]) is None:
            continue
        return rule
    return None
