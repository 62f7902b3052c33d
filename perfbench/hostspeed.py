"""Host speed probes used to report times at a reference host speed.

The benchmark host is shared: its speed drifts by up to 1.6x for minutes
at a time, and raw wall time inherits all of it. Each timed block of work
is bracketed by a fixed ~1-2 ms probe that shares no code with mtnorm. A
probe returns the host's slowdown, its time over its time on an idle
2-vCPU Xeon host, and the block's time is divided by the mean slowdown of the
probes on either side of it.

A probe tracks the host only for work like its own, so each workload uses
the probe that tracked it best when measured. Quartile spread of
throughput per 15 s window on a 2-vCPU Xeon host, raw -> scaled:
stream_hybrid 20-58% -> 3.6-4.6% with ``dispatch_probe`` (the interpreter
loop alone gave 2.3-7.2%); file_hybrid 8.4% -> 4.0% with ``kernel_probe``
(6.8% with ``dispatch_probe``); train 4.7% -> 3.0% with ``kernel_probe``
(8.9% with the interpreter loop). Raw figures are printed alongside in
the info line.
"""

from __future__ import annotations

import math
import re
import time

import numpy as np

_TEXT = "会议定于上午10:30开始，今天是2019-10-01，比分定格在30-10。" * 2
_SCAN = re.compile(r"\d+(?:[.:\-]\d+)*")

_rng = np.random.default_rng(0)
_WINDOW = _rng.standard_normal((1, 30, 64))
_HEADS = _rng.standard_normal((1, 8, 64, 8))
_FF_IN = _rng.standard_normal((64, 128))
_FF_OUT = _rng.standard_normal((128, 64))
_SCORES = _rng.standard_normal((16, 8, 30, 30))
_ROWS = _rng.standard_normal((16 * 30, 64))

# Loop times on an idle 2-vCPU Xeon host (numpy 2.4, one BLAS thread).
_INTERPRETER_S = 1.0e-3
_SMALL_ARRAY_S = 1.2e-3
_LARGE_ARRAY_S = 1.5e-3


def _interpreter_loop() -> None:
    for _ in range(200):
        seen: dict[str, int] = {}
        for m in _SCAN.finditer(_TEXT):
            seen[m.group()] = seen.get(m.group(), 0) + len(m.group())


def _small_array_loop() -> None:
    for _ in range(5):
        xh = _WINDOW[:, None]
        q = xh @ _HEADS
        s = q @ q.swapaxes(-1, -2)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        c = (s @ q).transpose(0, 2, 1, 3).reshape(1, 30, 64)
        h = np.maximum(c @ _FF_IN, 0.0) @ _FF_OUT
        (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + 1e-5)


def _large_array_loop() -> None:
    x = _SCORES * 0.5
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    np.maximum(_ROWS @ _FF_IN, 0.0)


def _seconds(loop) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def dispatch_probe() -> float:
    """Host slowdown for interpreter-bound and batch-1 numpy work: the
    geometric mean of an interpreter loop and a batch-1 attention loop."""
    return math.sqrt(
        _seconds(_interpreter_loop) / _INTERPRETER_S * _seconds(_small_array_loop) / _SMALL_ARRAY_S
    )


def kernel_probe() -> float:
    """Host slowdown for large numpy kernels."""
    return _seconds(_large_array_loop) / _LARGE_ARRAY_S
