"""The symbreak benchmark: one workload, end to end or traced by layer.

    python3 symbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Load is a closed loop: one client in this process calls the public entry
point ``symbreak.cli.main(argv)`` once per invocation, the next call only
after the previous one returned.  The program is imported from ``src/``
in the checkout this file sits in.  Every answer is checked against values
frozen in expected.json.

Host speed on a shared machine drifts by up to 1.5x within seconds, so
every timing is scaled to a reference host: a fixed calibration loop is
timed just before and just after each measured interval, and the interval
is multiplied by REFERENCE_CAL_S over the mean of the two.  The raw wall
times and the calibration figures are in the detail line.

--trace 0 runs round(seconds / NOMINAL_PASS_S) passes over the workload
(at least one; see workloads.build_plan for the inputs of each pass) with
tracing off and reports the end-to-end metrics.
--trace 1 runs one pass untraced and one pass with every layer wrapped,
and reports the per-layer metrics and the tracing overhead.  The last line
of stdout is the result object; the line before it carries the detail
(host context, tail percentile and sample count, failures).  The exit code
is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import workloads as w

# wall seconds one pass took on the seed commit (pure kernel, 2-core host,
# calibration included); the pass count depends on --seconds only, so every
# run of a workload does the same work
NOMINAL_PASS_S = {"corpus": 3.6, "symmetric": 13.0, "verify": 8.3}
SETUP_STARTS = 7
TAIL_BEYOND = 10
CAL_ITERATIONS = 4_000
CAL_REPEATS = 3
RUN_CAL_ITERATIONS = 2_000_000     # timed before and after each run
# host_speed() on the reference host: its median on the 2-core host the
# benchmark was defined on
REFERENCE_CAL_S = 0.00045

SETUP_CODE = ("import time, symbreak.cli, symbreak.kernels; "
              "symbreak.kernels.backend_name(); print(time.monotonic_ns())")


def tail(samples: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    `beyond` samples strictly above the value."""
    xs = sorted(samples)
    i = len(xs) - beyond - 1
    while i >= 0 and sum(1 for x in xs if x > xs[i]) < beyond:
        i -= 1
    if i < 0:
        raise ValueError(f"need more than {beyond} samples, got {len(xs)}")
    return xs[i], 100.0 * (i + 1) / len(xs)


def calibrate(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop of `iterations` steps."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def host_speed() -> float:
    """Host speed now: the best of a few short calibration loops, so that a
    one-off preemption does not count as a slow host."""
    return min(calibrate(CAL_ITERATIONS) for _ in range(CAL_REPEATS))


class HostClock:
    """Scales measured intervals to the reference host's speed."""

    def __init__(self):
        self.calibrations: list[float] = []

    def scaled(self, seconds: float, before: float, after: float) -> float:
        self.calibrations += (before, after)
        return seconds * REFERENCE_CAL_S / ((before + after) / 2)

    def summary(self) -> dict:
        cal = sorted(self.calibrations) or [0.0]
        return {"samples": len(self.calibrations),
                "median_ms": statistics.median(cal) * 1e3,
                "min_ms": cal[0] * 1e3, "max_ms": cal[-1] * 1e3}


def setup_seconds(host: HostClock, starts: int = SETUP_STARTS) -> float:
    """Median time from launching a fresh interpreter until symbreak.cli is
    imported and the kernel dispatched, over `starts` launches."""
    env = dict(os.environ, PYTHONPATH=str(w.ROOT / "src"))
    times = []
    for _ in range(starts + 1):          # the first launch may compile .pyc
        before = host_speed()
        launched = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=w.ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds = (int(done.stdout.split()[-1]) - launched) / 1e9
        times.append(host.scaled(seconds, before, host_speed()))
    return statistics.median(times[1:])


def fresh_process_state() -> None:
    """Drop symbreak's memo caches, so a unit starts as a new process would."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symbreak"
                                  or name.startswith("symbreak.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class PassResult:
    host: HostClock = field(default_factory=HostClock)
    latencies: list[float] = field(default_factory=list)    # host-scaled
    wall: float = 0.0                                       # raw seconds
    capped: list[bool] = field(default_factory=list)
    answers: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def invoke(argv: tuple[str, ...]) -> tuple[int | None, str, float, str]:
    """One cli.main call: (exit code or None on a traceback, stdout,
    seconds, diagnostics)."""
    import symbreak.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = symbreak.cli.main(list(argv))
    except Exception:  # a traceback is a failed invocation, not a crash
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), time.perf_counter() - start, err.getvalue()


def run_pass(plan: w.Plan, result: PassResult) -> PassResult:
    for unit in plan.units:
        fresh_process_state()
        for inv in unit:
            before = host_speed()
            code, stdout, seconds, diag = invoke(inv.argv)
            result.latencies.append(
                result.host.scaled(seconds, before, host_speed()))
            result.wall += seconds
            result.attempted += 1
            result.capped.append(inv.capped)
            try:
                got = (None, diag) if code is None else \
                    w.answer(inv, code, stdout)
            except (ValueError, LookupError, TypeError) as exc:
                got = (code, f"unreadable report: {exc!r}")
            result.answers.append(got)
            if got == inv.expected:
                result.items += inv.items
            else:
                result.failures.append(
                    f"{' '.join(inv.argv)}: got {str(got)[:300]}")
    return result


def end_to_end(plans: list[w.Plan]) -> tuple[dict, dict, PassResult]:
    result = PassResult()
    setup = setup_seconds(result.host)
    for plan in plans:
        run_pass(plan, result)
    answers = [s for s, c in zip(result.latencies, result.capped) if not c]
    capped = [s for s, c in zip(result.latencies, result.capped) if c]
    tail_value, percentile = tail(answers)
    metrics = {
        "setup_s": (setup, "s"),
        "items_per_s": (result.items / sum(result.latencies), "1/s"),
        "op_p50_ms": (statistics.median(answers) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "budget_exit_ms": (statistics.median(capped) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = {"passes": len(plans), "items": result.items,
              "wall_s": result.wall, "scaled_s": sum(result.latencies),
              "op_tail": {"percentile": percentile,
                          "samples": len(answers)},
              "budget_exit_samples": len(capped),
              "host_calibration": result.host.summary()}
    return metrics, detail, result


def traced(plan: w.Plan) -> tuple[dict, dict, PassResult]:
    import tracing

    plain = run_pass(plan, PassResult())
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        result = run_pass(plan, PassResult())
    finally:
        installed.undo()
    overhead = sum(result.latencies) / sum(plain.latencies) - 1
    layers = tracing.layer_metrics(tracer, overhead)
    metrics = {name: (value, tracing.LAYER_UNITS[name])
               for name, value in layers.items()}
    if result.answers != plain.answers:
        result.failures.append("traced answers differ from untraced answers")
    result.failures += plain.failures
    result.attempted += plain.attempted
    detail = {"untraced_wall_s": plain.wall, "traced_wall_s": result.wall,
              "untraced_scaled_s": sum(plain.latencies),
              "traced_scaled_s": sum(result.latencies),
              "host_calibration": result.host.summary()}
    return metrics, detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (w.ROOT / "src" / "symbreak" / "cli.py").is_file():
        print(f"symbench: no symbreak sources under {w.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(w.ROOT / "src"))
    calibration_before = calibrate(RUN_CAL_ITERATIONS)
    expected = json.loads(w.EXPECTED.read_text())
    if args.trace:
        metrics, detail, result = traced(
            w.build_plan(args.workload, args.seed, expected))
    else:
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        metrics, detail, result = end_to_end(
            [w.build_plan(args.workload, args.seed, expected, p)
             for p in range(passes)])

    import symbreak.kernels

    attempted, failed = result.attempted, len(result.failures)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        backend=symbreak.kernels.backend_name(),
        python=platform.python_version(), nproc=os.cpu_count(),
        run_calibration_s={"before": calibration_before,
                           "after": calibrate(RUN_CAL_ITERATIONS)},
        fail_ratio=failed / attempted, failures=result.failures[:20])
    print(json.dumps({"detail": detail}))
    correct = not result.failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
