"""Prioritized context-pattern rules: the pipeline's priority and fallback route.

Matching walks rules by declared context length, longest first, so more
specific context always beats higher priority at a shorter length;
priority breaks ties within a length, rule name breaks exact ties. The
order is derived from the rule fields, never from file position.

A rule's ``label:`` names a label of the shipped label table, and its NSW
shape defaults to that label's format, so rules, classifier mask and
readers share one surface domain; an explicit ``nsw:`` narrows it. A rule
reads the surfaces it matches (``Rule.read``): a rule on its label's format
holds the label's reader, since the match checked that format; a rule with
its own ``nsw:`` goes through ``reader.render``, which checks the label's
format first.

A ``RuleSet`` joins its rules' NSW patterns, in match order and each in
one capturing group, into one alternation per start index: the one from
index ``i`` holds the rules from ``i`` on, and its ``fullmatch`` picks the
first of them whose NSW matches the whole surface (``lastindex``). So every
NSW pattern must be able to stand as one group of an alternation:
``parse_rules`` refuses a capturing group (write ``(?:...)``) and a global
inline flag such as ``(?i)`` (write ``(?i:...)``). Matching a span costs
one alternation call, plus one more after each context rule whose NSW
matches but whose context fails.

A rule with a ``pre:`` or ``post:`` pattern is a context rule
(``Rule.context``) and needs a positive ``context_len`` to search in. When
``match_nsw``'s answer is a context rule, the hybrid takes it as definite
and skips the classifier.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Callable

from . import reader
from .corpus import NSWSpan, read_text
from .labels import DEFAULT_REGISTRY


class RuleError(ValueError):
    """Bad rule file or unresolvable rule configuration."""


@dataclass(frozen=True)
class Rule:
    """One rule record; ``read`` gives the spoken form of a surface it matched.

    On its label's format, ``read`` is the label's reader; with its own
    ``nsw:`` pattern, which may admit surfaces the format does not, it is
    ``reader.render``, which checks the format first. A surface the format
    rejects, or that the reader cannot read, raises ``ValueError``.
    """

    name: str
    priority: int
    pre_pattern: re.Pattern
    nsw_pattern: re.Pattern
    post_pattern: re.Pattern
    context_len: int
    label: int
    read: Callable[[str], str] = field(repr=False, compare=False)

    def sort_key(self):
        # Descending specificity, descending priority, stable by name.
        return (-self.context_len, -self.priority, self.name)

    @property
    def context(self) -> bool:
        """Whether the rule has a ``pre:`` or ``post:`` pattern."""
        return bool(self.pre_pattern.pattern or self.post_pattern.pattern)


class RuleSet:
    """Rules indexed in match order; immutable after construction.

    ``_alternations[i]`` is the ``fullmatch`` of the alternation of the NSW
    patterns of the rules from index ``i`` on; a match's ``lastindex`` is
    the rule's position in it, counted from 1. ``_contexts`` holds per rule
    in match order the rule, its context length and its pre and post
    ``search``, or ``None`` for an empty pattern, which always matches.
    """

    def __init__(self, rules: list[Rule]):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise RuleError(f"duplicate rule name: {dupe}")
        self.rules: tuple[Rule, ...] = tuple(sorted(rules, key=Rule.sort_key))
        self._contexts = tuple(
            (
                rule,
                rule.context_len,
                rule.pre_pattern.search if rule.pre_pattern.pattern else None,
                rule.post_pattern.search if rule.post_pattern.pattern else None,
            )
            for rule in self.rules
        )
        self._alternations = tuple(_alternation(self.rules[i:]) for i in range(len(self.rules)))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def _alternation(rules) -> Callable[[str], re.Match | None]:
    """``fullmatch`` of the rules' NSW patterns as one alternation, one group each."""
    return re.compile("|".join(f"({rule.nsw_pattern.pattern})" for rule in rules)).fullmatch


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
        elif key not in _RULE_FIELDS:
            raise RuleError(f"{source}:{lineno}: unknown field {key!r}")
        elif key in current:
            raise RuleError(f"{source}:{lineno}: rule {records[-1][1]}: field {key!r} given twice")
        else:
            current[key] = value

    with warnings.catch_warnings():
        # Python 3.10 only warns of a global inline flag off a pattern's
        # start, where 3.11 raises: refuse it on both
        warnings.simplefilter("error", DeprecationWarning)
        return RuleSet([_parse_rule(source, *record) for record in records])


def _parse_rule(source: str, lineno: int, name: str, fields: dict[str, str]) -> Rule:
    where = f"{source}:{lineno}: rule {name}"
    label_name = fields.get("label", "")
    if label_name not in DEFAULT_REGISTRY:
        raise RuleError(f"{where}: unknown label {label_name!r}")
    lab = DEFAULT_REGISTRY.by_name(label_name)
    nsw = fields.get("nsw")
    try:
        rule = Rule(
            name=name,
            priority=int(fields.get("priority", "0")),
            pre_pattern=re.compile(fields.get("pre", "")),
            nsw_pattern=re.compile(nsw) if nsw else lab.format,
            post_pattern=re.compile(fields.get("post", "")),
            context_len=int(fields.get("context_len", "0")),
            label=lab.id,
            read=(lambda surface: reader.render(surface, lab.id)) if nsw else lab.read,
        )
    except (re.error, DeprecationWarning) as exc:
        raise RuleError(f"{where}: bad pattern: {exc}") from exc
    except ValueError as exc:
        raise RuleError(f"{where}: {exc}") from exc
    if rule.context_len < 0:
        raise RuleError(f"{where}: context_len must be >= 0")
    if rule.context_len == 0 and rule.context:
        raise RuleError(f"{where}: a pre or post pattern needs context_len >= 1")
    # the NSW pattern must stand as one group of the set's alternation
    pattern = rule.nsw_pattern.pattern
    if rule.nsw_pattern.groups:
        raise RuleError(f"{where}: nsw pattern {pattern!r} has a capturing group; write (?:...)")
    try:
        re.compile(f"({pattern})")
    except (re.error, DeprecationWarning) as exc:
        raise RuleError(
            f"{where}: nsw pattern {pattern!r} has a global inline flag such as (?i);"
            " write a scoped one, (?i:...)"
        ) from exc
    return rule


def compile_rules(path: str) -> RuleSet:
    return parse_rules(read_text(path), source=path)


def match_nsw(rs: RuleSet, text: str, span: NSWSpan) -> Rule | None:
    """First rule in specificity order whose patterns all match at the span.

    The NSW pattern must match the whole surface; the pre and post patterns
    search the up to ``context_len`` characters before and after it. The
    alternation from index 0 jumps to the first rule whose NSW matches; if
    that rule's context fails, the alternation from the next index jumps to
    the next such rule, and so on.
    """
    start, end = span.start, span.end
    surface = text[start:end]
    alternations, contexts = rs._alternations, rs._contexts
    i = 0
    while i < len(alternations):
        found = alternations[i](surface)
        if found is None:
            return None
        rule, context_len, pre, post = contexts[i + found.lastindex - 1]
        if (pre is None or pre(text[max(0, start - context_len) : start]) is not None) and (
            post is None or post(text[end : end + context_len]) is not None
        ):
            return rule
        i += found.lastindex  # a context rule whose context failed: only a later rule can match
    return None
