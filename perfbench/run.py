"""mtnorm benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload stream_hybrid --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 15   # every workload, checked
    python3 perfbench/run.py --smoke                       # the same at tiny size

Run from the root of a checkout; the program is imported from ./src. With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics from a separate traced pass.
Generated files (checkpoint, inputs, outputs, spans) go to ./.perfbench.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import dispatch_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"

# One BLAS thread: the host has few cores shared with other work, and the
# classifier's matrices are small, so extra threads add contention, not speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--smoke", action="store_true", help="--workload all at tiny size")
    p.add_argument("--probe-setup", metavar="CHECKPOINT", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(checkpoint: Path) -> dict:
    """Host, interpreter, numpy and BLAS, and the hybrid classifier's shape."""
    import numpy as np
    from mtnorm.neural import load_params

    config = load_params(str(checkpoint))[1]

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "classifier": {
            "window": config.window, "heads": config.heads, "model_dim": config.model_dim,
            "ff_dim": config.ff_dim, "batch_size": config.batch_size,
        },
    }


def probe_setup(args, checkpoint: Path) -> tuple[float, float]:
    """Seconds from starting a fresh process until it reports set-up done,
    and the factor taking them to the reference host speed."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", str(checkpoint),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    before = _probe_median()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, 2 / (before + _probe_median())


def _probe_median(n: int = 5) -> float:
    return statistics.median(dispatch_probe() for _ in range(n))


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: p99 of 3000 values leaves 30 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_request(latencies: list[float], requests: int) -> list[float]:
    """Each request's median latency over the passes that repeated it.

    Passes repeat the same requests in the same order. Bursts of contention
    on the shared host slow random requests; folding the repeats of each
    request first leaves the tail that the inputs themselves cause.
    """
    return [statistics.median(latencies[i::requests]) for i in range(requests)]


def host_scale(out, block) -> float:
    """Factor taking a block's time to the reference host speed."""
    return 2 / (out.probes[block.index] + out.probes[block.index + 1])


def normalized(out) -> tuple[list[float], list[float], list[float]]:
    """Lines per second and spans per second per block, and per-request
    latencies in ms, all at the reference host speed."""
    rates, nsw_rates, latencies = [], [], []
    for b in out.blocks:
        k = host_scale(out, b)
        rates.append(b.lines / (b.seconds * k))
        nsw_rates.append(b.nsw / (b.seconds * k))
        latencies += [ms * k for ms in b.latencies_ms]
    return rates, nsw_rates, latencies


def run(args) -> dict:
    import workloads

    checkpoint, build_s = workloads.ensure_checkpoint(SRC, CACHE)
    setups = [probe_setup(args, checkpoint) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(elapsed * k for elapsed, k in setups)
    raw_setup_s = statistics.median(elapsed for elapsed, _ in setups)

    work = workloads.REGISTRY[args.workload](ROOT, args.seed, args.size, checkpoint)
    work.prepare()
    warm = workloads.Outcome(work.probe)
    acc = work.warm(warm)

    timed = workloads.Outcome(work.probe)
    deadline = time.perf_counter() + args.seconds
    while not timed.blocks or time.perf_counter() < deadline:
        work.timed_pass(timed)
    rates, nsw_rates, latencies = normalized(timed)

    attempted = warm.attempted + timed.attempted
    failed = warm.failed + timed.failed
    floor = workloads.ACCURACY_FLOOR[args.workload]
    correct = warm.consistent and timed.consistent and acc["sentence_accuracy"] >= floor
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "blocks": len(timed.blocks), "latency_samples": len(latencies),
        "raw_sentences_per_s": statistics.median(b.lines / b.seconds for b in timed.blocks),
        "host_slowdown": statistics.median(timed.probes),
        "raw_setup_s": raw_setup_s, "checkpoint_build_s": build_s,
        "errors": {k: warm.errors.get(k, 0) + timed.errors.get(k, 0)
                   for k in {**warm.errors, **timed.errors}},
        "accuracy_floor": floor, **acc,
    }

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        traced = workloads.Outcome(work.probe)
        try:
            work.timed_pass(traced)
        finally:
            tracer.uninstall()
        correct = correct and traced.consistent
        attempted += traced.attempted
        failed += traced.failed
        scale = statistics.median(host_scale(traced, b) for b in traced.blocks)
        layer = spans.layer_metrics(tracer, scale)
        traced_rate = statistics.median(normalized(traced)[0])
        layer["trace.overhead_share"] = statistics.median(rates) / traced_rate - 1.0
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        tracer.write(CACHE / "spans" / f"{args.workload}.jsonl")
        info["absent"] = tracer.absent
        info["spans"] = len(tracer.spans)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        typical = per_request(latencies, work.requests)
        metrics = {
            "setup_s": (setup_s, "s"),
            "sentences_per_s": (statistics.median(rates), "1/s"),
            "nsw_per_s": (statistics.median(nsw_rates), "1/s"),
            "latency_p50_ms": (statistics.median(typical), "ms"),
            "latency_p99_ms": (nearest_rank(typical, 0.99), "ms"),
            "sentence_accuracy": (acc["sentence_accuracy"], "share"),
            "pattern_accuracy": (acc["pattern_accuracy"], "share"),
            "ok_share": (1.0 - failed / attempted, "share"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    info["env"] = environment(checkpoint)
    print(json.dumps({"info": info}, ensure_ascii=False))
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_kept", "_per_call")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Run every workload of BENCHMARK.json, untraced then traced; print each
    metric with its unit and check that every named metric is there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            got = result["metrics"]
            for metric in wanted:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']}: {entry}")
                else:
                    print(f"{workload:14s} {metric['name']:40s} {entry['value']:14.6g} {entry['unit']}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print("FAIL", problem)
    print("all workloads ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtnorm" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        args.size, args.seconds, args.seed = "tiny", 0.5, 1
    if args.smoke or args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.REGISTRY:
        print(f"perfbench: --workload must be one of {sorted(workloads.REGISTRY)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.REGISTRY[args.workload](ROOT, args.seed, args.size, Path(args.probe_setup)).prepare()
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
