"""Span tracer for the traced run, installed from outside the program.

Each traced layer is a public name that pipeline, rules, cli or train call.
The tracer replaces every binding of that function inside the ``mtnorm``
package (``from x import f`` makes a second binding), records one span per
call with name, start, end, parent and request id, and counts work at the
same boundary. A name missing at some commit is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROUTES = ("priority_rule", "neural", "fallback_rule", "unmatched")
ROUTED = ("pipeline.normalize", "rules.normalize_rule_based")


def _windows(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    return {"windows": len(ids)}


# (layer name, module, attribute path, counters from (args, kwargs, result))
TARGETS = (
    ("cli.main", "mtnorm.cli", "main", None),
    ("pipeline.normalize", "mtnorm.pipeline", "normalize", None),
    ("rules.normalize_rule_based", "mtnorm.rules", "normalize_rule_based", None),
    ("rules.match_nsw", "mtnorm.rules", "match_nsw",
     lambda a, k, r: {"matched": r is not None}),
    ("reader.render", "mtnorm.reader", "render", None),
    ("extractor.extract_nsw", "mtnorm.extractor", "extract_nsw",
     lambda a, k, r: {"spans": len(r)}),
    ("extractor.priority_check", "mtnorm.extractor", "priority_check",
     lambda a, k, r: {"hits": bool(r)}),
    ("legality.legal_labels", "mtnorm.legality", "FormatRegistry.legal_labels",
     lambda a, k, r: {"none_legal": not any(r)}),
    ("legality.verify", "mtnorm.legality", "FormatRegistry.verify",
     lambda a, k, r: {"fails": not r}),
    ("corpus.extract_window", "mtnorm.corpus", "extract_window", None),
    ("neural.classify", "mtnorm.neural.model", "classify", None),
    ("neural.forward_batch", "mtnorm.neural.model", "forward_batch", _windows),
    ("neural.backward_batch", "mtnorm.neural.model", "backward_batch", None),
    ("neural.make_training_batch", "mtnorm.neural.train", "make_training_batch", None),
    ("neural.AdamState.step", "mtnorm.neural.train", "AdamState.step", None),
    ("neural.train", "mtnorm.neural.train", "train", None),
)


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, request id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._request = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters):
        tracer, clock = self, time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            if parent is None:
                tracer._request += 1
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer._request))
                tracer.counts[name + ".calls"] += 1
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += int(value)
            if name in ROUTED and not any(n in ROUTED for _, n in stack):
                for trace in result[1]:
                    tracer.counts["pipeline.route." + trace.route] += 1
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, counters in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, counters)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            # Patch every binding of the function object in the package.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mtnorm" or mod_name.startswith("mtnorm."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(busy seconds, self seconds) per layer name."""
        child = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        busy, own = defaultdict(float), defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            busy[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
        return busy, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": request}) + "\n")


def layer_metrics(tracer: Tracer, time_scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's input set;
    seconds are multiplied by ``time_scale`` (the host-speed factor)."""
    c = tracer.counts
    busy, own = tracer.self_times()
    m: dict[str, float] = {}

    def count(name):
        m[name] = c.get(name, 0)

    def busy_s(layer):
        m[layer + ".busy_s"] = busy.get(layer, 0.0) * time_scale

    for metric in ("calls", "windows"):
        count("neural.forward_batch." + metric)
    calls = c.get("neural.forward_batch.calls", 0)
    m["neural.forward_batch.windows_per_call"] = (
        c.get("neural.forward_batch.windows", 0) / calls if calls else 0.0
    )
    busy_s("neural.forward_batch")
    count("neural.classify.calls")
    busy_s("neural.classify")
    for layer in ("neural.backward_batch", "neural.AdamState.step", "neural.make_training_batch"):
        busy_s(layer)
    for layer, counters in (
        ("rules.match_nsw", ("calls", "matched")),
        ("reader.render", ("calls", "errors")),
        ("extractor.extract_nsw", ("calls", "spans")),
        ("extractor.priority_check", ("calls", "hits")),
        ("legality.legal_labels", ("calls", "none_legal")),
        ("legality.verify", ("calls", "fails")),
        ("corpus.extract_window", ("calls",)),
    ):
        for counter in counters:
            count(f"{layer}.{counter}")
        busy_s(layer)
    for layer in ("rules.normalize_rule_based", "pipeline.normalize", "cli.main"):
        m[layer + ".self_s"] = own.get(layer, 0.0) * time_scale
    for route in ROUTES:
        count("pipeline.route." + route)
    classified = c.get("neural.classify.calls", 0)
    m["pipeline.neural_kept"] = (
        c.get("pipeline.route.neural", 0) / classified if classified else 0.0
    )
    return m
