"""Former home of the per-label format registry, kept as two aliases.

Formats now live with their labels in :mod:`mtnorm.labels`, which answers
the legality mask and the verifier itself. The benchmark in ``perfbench/``
still calls ``legality.default_formats()`` and traces
``legality.FormatRegistry.legal_labels`` / ``.verify``, so both names stay,
bound to the label table, until it uses :mod:`mtnorm.labels` instead.
"""

from __future__ import annotations

from .labels import DEFAULT_REGISTRY, LabelRegistry

FormatRegistry = LabelRegistry


def default_formats() -> LabelRegistry:
    return DEFAULT_REGISTRY
