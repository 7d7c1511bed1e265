"""One cold sweep of one workload, in the interpreter that runs this file.

``run.py`` starts this script once per sweep, so every ``lru_cache`` in the
package starts empty and the peak resident memory belongs to this sweep
alone.  The last line of standard output is a JSON object with the sweep's
measurements.

    python3 perfbench/sweep.py --workload verify --seed 1 --spawned-at T [--trace SPANS] [--setup-only]
    python3 perfbench/sweep.py --record   # rewrite expected.json from the current code

``T`` is ``time.clock_gettime(time.CLOCK_MONOTONIC)`` read by the parent just
before it started this process, so ``setup_s`` includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gpdescent import cli, descent, ribbon  # noqa: E402

import workloads  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_roundtrip(shapes: list[tuple[int, ...]]) -> list[str]:
    """reconstruct -> height_vector, and algorithm_tableau against
    algorithm_sequence, over all of D_lam for each shape."""
    problems = []
    for lam in shapes:
        family = descent.descent_compositions_lambda(lam)
        if len(family) != workloads.family_size(lam):
            problems.append(f"|D_{lam}| = {len(family)}")
        for a in family:
            tup = ribbon.reconstruct(a, lam)
            if ribbon.height_vector(tup) != a:
                problems.append(f"height vector of reconstruct({a}, {lam})")
            if ribbon.algorithm_tableau(tup) != ribbon.algorithm_sequence(a, lam):
                problems.append(f"algorithm_tableau differs from algorithm_sequence at {a}, {lam}")
    return problems


def run_invocation(invocation: tuple, expected: dict[str, str]) -> tuple[list[str], str]:
    """Execute and check one invocation; returns (problems, captured output)."""
    kind, arg = invocation
    try:
        if kind == "roundtrip":
            return run_roundtrip(arg), ""
        code, output = run_cli(arg)
        return workloads.check_cli(arg, code, output, expected), output
    except Exception as exc:  # a crash is a failed invocation, not a failed run
        return [f"{type(exc).__name__}: {exc}"], ""


def record() -> None:
    expected = {}
    for name in workloads.WORKLOADS:
        for kind, arg in workloads.generate(name, 0):
            if kind == "cli":
                expected[" ".join(arg)] = workloads.digest(run_cli(arg)[1])
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def sweep(invocations: list[tuple], tracer) -> dict:
    expected = workloads.load_expected()
    durations, failures = [], []
    bytes_out = lines_out = 0
    start = monotonic()
    for invocation in invocations:
        began = time.perf_counter()
        problems, output = run_invocation(invocation, expected)
        durations.append(time.perf_counter() - began)
        bytes_out += len(output.encode())
        lines_out += output.count("\n")
        if problems:
            failures.append({"call": workloads.label(invocation), "problems": problems[:5]})
    wall = monotonic() - start
    result = {
        "wall_s": wall,
        "slowest_call_s": max(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(invocations),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall, bytes_out, lines_out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--trace", type=Path, metavar="SPANS", help="trace, and write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        record()
        return 0
    if args.workload is None or args.spawned_at is None:
        parser.error("--workload and --spawned-at are required")
    invocations = workloads.generate(args.workload, args.seed)
    setup = monotonic() - args.spawned_at
    result = {"setup_s": setup}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.install()
        result.update(sweep(invocations, tracer))
        if tracer is not None:
            tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
