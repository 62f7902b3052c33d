"""Per-label surface format checks.

One registry serves both the classifier's softmax mask and the
post-classification verifier, so the two can never drift apart.
"""

from __future__ import annotations

import re

from .labels import DEFAULT_REGISTRY, LabelRegistry


class FormatRegistry:
    """Compiled full-match format patterns, indexed by label id."""

    def __init__(self, labels: LabelRegistry = DEFAULT_REGISTRY):
        self.labels = labels
        self._patterns = [re.compile(lab.format_pattern) for lab in labels]

    def __len__(self) -> int:
        return len(self._patterns)

    def legal_labels(self, surface: str) -> list[bool]:
        """Per-label admissibility flags for an NSW surface."""
        return [p.fullmatch(surface) is not None for p in self._patterns]

    def verify(self, surface: str, label_id: int) -> bool:
        if not 0 <= label_id < len(self._patterns):
            raise KeyError(f"unregistered label id: {label_id}")
        return self._patterns[label_id].fullmatch(surface) is not None

    @classmethod
    def from_file(cls, path: str, labels: LabelRegistry = DEFAULT_REGISTRY) -> "FormatRegistry":
        """Load ``name: pattern`` overrides (rule-file grammar: # comments allowed)."""
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
                if name not in labels:
                    raise ValueError(f"{path}:{lineno}: unknown label {name!r}")
                overrides[name] = pattern.strip()
        reg = cls(labels)
        for name, pattern in overrides.items():
            try:
                reg._patterns[labels.id_of(name)] = re.compile(pattern)
            except re.error as exc:
                raise ValueError(f"bad pattern for {name}: {exc}") from exc
        return reg


_DEFAULT_FORMATS = FormatRegistry(DEFAULT_REGISTRY)


def default_formats() -> FormatRegistry:
    return _DEFAULT_FORMATS

