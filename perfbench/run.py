"""Benchmark of the gpdescent CLI: cold sweeps of one workload, checked.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each sweep runs in a fresh interpreter
(``sweep.py``), one after another, never two at once, so every cache starts
empty and ``peak_rss_mb`` belongs to one sweep.  Sweeps repeat until the
next one would end past ``--seconds``, with at least ``MIN_SWEEPS``.
``wall_s`` and ``slowest_call_s`` are the best of the run's sweeps,
``peak_rss_mb`` and ``setup_s`` medians.  On a machine shared with other
jobs, contention only ever adds time, in bursts of seconds; over three sets
of ten runs the spread of the best-of-k times was half that of their
medians (see definition.json).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced sweeps, reports the per-layer metrics of ``tracer.py``
(times as medians over the traced sweeps), the tracing overhead, and fails
the run unless the exact counters repeat between the traced sweeps.  The
spans of each traced sweep are written as JSON lines under
``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count invocations over all sweeps; ``error_rate`` is their
quotient.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SWEEPS = 3
HARD_LIMIT_S = 150  # a run must end within 180 s, even if fewer than MIN_SWEEPS fit
SETUP_SPAWNS = 5  # extra set-up-only interpreters, so setup_s is a median of many

END_TO_END = {
    "wall_s": ("s", "first call to last verdict of one sweep; best of the run's sweeps"),
    "slowest_call_s": ("s", "longest single invocation of one sweep; best of the run's sweeps"),
    "peak_rss_mb": ("MiB", "peak resident memory of one sweep's process; median of the run's sweeps"),
    "setup_s": ("s", "interpreter start to package imported and workload generated; median of the run's interpreters"),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, *flags: str, timeout: float = HARD_LIMIT_S) -> dict:
    command = [sys.executable, str(HERE / "sweep.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--spawned-at", repr(monotonic()), *flags]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"sweep exited with {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_sweeps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Sweeps until the next would overrun ``seconds``; traced runs alternate
    traced and untraced sweeps, starting with a traced one."""
    sweeps: list[dict] = []
    start = monotonic()
    last = 0.0
    while True:
        elapsed = monotonic() - start
        if elapsed + last > (HARD_LIMIT_S if len(sweeps) < MIN_SWEEPS else seconds):
            return sweeps
        traced = trace and len(sweeps) % 2 == 0
        spans = HERE / "out" / f"{workload}-seed{seed}-{len(sweeps)}.jsonl"
        flags = ["--trace", str(spans)] if traced else []
        result = spawn(workload, seed, *flags, timeout=HARD_LIMIT_S - elapsed)
        result["traced"] = traced
        sweeps.append(result)
        last = monotonic() - start - elapsed
        for failure in result["failures"]:
            print(f"FAILED sweep {len(sweeps)}: {failure['call']}: {'; '.join(failure['problems'])}")


def end_to_end(sweeps: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": min(s["wall_s"] for s in sweeps),
        "slowest_call_s": min(s["slowest_call_s"] for s in sweeps),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "setup_s": statistics.median(setups),
    }


def per_layer(sweeps: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the exact counters that did not repeat."""
    traced = [s["layers"] for s in sweeps if s["traced"]]
    plain = [s["wall_s"] for s in sweeps if not s["traced"]]
    metrics = {
        name: traced[0][name] if name in tracing.EXACT else statistics.median(t[name] for t in traced)
        for name in tracing.METRICS
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    unsteady = [name for name in tracing.EXACT if len({t[name] for t in traced}) > 1]
    return metrics, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gpdescent" / "cli.py").is_file():
        print(f"error: no gpdescent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sweeps = run_sweeps(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    correct = failed == 0
    for i, s in enumerate(sweeps, start=1):
        kind = "traced" if s["traced"] else "untraced"
        print(f"sweep {i} ({kind}): wall_s {s['wall_s']:.4f}  slowest_call_s {s['slowest_call_s']:.4f}  "
              f"peak_rss_mb {s['peak_rss_mb']:.2f}  setup_s {s['setup_s']:.4f}  failed {s['failed']}/{s['attempted']}")
    if args.trace:
        metrics, unsteady = per_layer(sweeps)
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()} | {"trace.overhead_s": "s"}
        if unsteady:
            correct = False
            print(f"FAILED: exact counters differ between traced sweeps: {', '.join(unsteady)}")
    else:
        setups = [spawn(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_SPAWNS)]
        metrics = end_to_end(sweeps, setups + [s["setup_s"] for s in sweeps])
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(f"{'error_rate':40s} {failed / attempted:14.6f} (failed {failed} of {attempted} invocations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
