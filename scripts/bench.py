#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, parent and change.

    python3 scripts/bench.py --parent ../parent --change . --label mychange \\
        --pairs symmetric=10 corpus=3 verify=3 --seed 101

Each pair runs ``symbench/run.py --trace 0`` once in each checkout, as a
subprocess with that checkout as its working directory, on the same
workload and seed, with ``--seconds`` set to the ``run_seconds`` of the
change's BENCHMARK.json.  Pair i uses seed ``--seed`` + i, and the
side that runs first alternates from pair to pair, so host drift between the
two runs of a pair does not favour one side.  Each checkout benchmarks the
program in its own ``src/`` with its own ``symbench/``; nothing under
``symbench/`` is edited.  Before the first pair, each checkout's ``src/``
is byte-compiled: symbench's ``setup_s`` assumes that the first launch
leaves ``.pyc`` files behind, which it does not where
PYTHONDONTWRITEBYTECODE is set, and then every launch compiles anew.

The output, ``BENCH_<label>.json`` in the current directory, is rewritten
after every pair, so an interrupted run keeps the pairs it finished.  It holds:

  sides      per side: ``git rev-parse HEAD`` and whether the work tree
             had uncommitted changes to tracked files
  runs       every run: workload, seed, pair, side, order in the pair,
             exit code, attempted / failed counts, the end-to-end metrics
             and wall seconds
  summary    per workload and metric: each side's median and quartiles,
             the change's wins over its pairs (by the metric's ``better``
             direction in the change's BENCHMARK.json), whether the
             gain rule holds: wins in at least nine tenths of the pairs and
             medians further apart than the parent's interquartile range,
             and the no-regression verdict against the metric's ``bound``,
             a fraction of the parent's median:
               unresolved  the parent's interquartile range is wider than
                           the bound, and not every change run beats
                           every parent run
               ok          otherwise, when the change's median is worse
                           than the parent's by no more than the bound
               worse       otherwise

After the last pair it prints one line per workload and metric to stderr,
parent -> change, each as median [q1-q3], then the change's wins over the
pairs, the gain rule and the no-regression verdict:

  verify items_per_s: 3565 [3531-3667] -> 3992 [3914-4075], wins 10/10,
    gain rule holds, no regression ok

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

SIDES = ("parent", "change")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(("git", *args), cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    return {"head": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "status", "--porcelain",
                              "--untracked-files=no"))}


def compile_sources(checkout: Path) -> None:
    """Write the .pyc files of checkout's src/, stale or missing ones."""
    if not compileall.compile_dir(checkout / "src", quiet=1):
        raise RuntimeError(f"{checkout}: src/ does not compile")


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One symbench run; its last stdout line is the result, after the
    detail line."""
    argv = [sys.executable, "symbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited "
                           f"{done.returncode} without a result:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"exit": done.returncode,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "wall_s": wall}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def no_regression(parent: list[float], change: list[float], sign: int,
                  bound: float) -> str:
    """ok, unresolved or worse: the change's runs against the parent's,
    for a metric whose better direction is sign (1 higher, -1 lower)."""
    base = quartiles(parent)
    if ((base["q3"] - base["q1"]) > bound * base["median"]
            and not min(sign * c for c in change)
            > max(sign * p for p in parent)):
        return "unresolved"
    worse_by = sign * (base["median"] - quartiles(change)["median"])
    return "ok" if worse_by <= bound * base["median"] else "worse"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload, over its finished pairs; metrics maps each end-to-end
    metric's name to its entry in BENCHMARK.json."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if len(p) == 2]
        if not complete:
            continue
        rows = {"pairs": len(complete),
                "failed": {s: sum(p[s]["failed"] for p in complete)
                           for s in SIDES}}
        for name in complete[0]["parent"]["metrics"]:
            values = {s: [p[s]["metrics"][name] for p in complete]
                      for s in SIDES}
            stats = {s: quartiles(values[s]) for s in SIDES}
            spec = metrics[name]
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(values["parent"], values["change"]))
            parent, change = stats["parent"], stats["change"]
            rows[name] = {
                **stats,
                "change_over_parent": change["median"] / parent["median"],
                "change_wins": wins,
                "gain_rule_holds": (
                    wins >= 0.9 * len(complete)
                    and sign * (change["median"] - parent["median"])
                    > parent["q3"] - parent["q1"]),
                "no_regression": no_regression(
                    values["parent"], values["change"], sign, spec["bound"])}
        out[workload] = rows
    return out


def summary_lines(summary: dict, metrics: dict[str, dict]) -> list[str]:
    """One line per workload and end-to-end metric, in the order of the
    metrics: each side's median [q1-q3], the change's wins over the pairs,
    the gain rule and the no-regression verdict."""
    def spread(q: dict) -> str:
        return f"{q['median']:.4g} [{q['q1']:.4g}-{q['q3']:.4g}]"

    lines = []
    for workload, rows in summary.items():
        for name in metrics:
            row = rows.get(name)
            if row is None:
                continue
            lines.append(
                f"{workload} {name}: {spread(row['parent'])} -> "
                f"{spread(row['change'])}, wins {row['change_wins']}/"
                f"{rows['pairs']}, gain rule "
                f"{'holds' if row['gain_rule_holds'] else 'fails'}, "
                f"no regression {row['no_regression']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", nargs="+", required=True,
                        metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "symbench" / "run.py").is_file():
            parser.error(f"{checkout} has no symbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in workloads:
            parser.error(f"--pairs: {workload!r} is not a workload of "
                         f"BENCHMARK.json ({', '.join(workloads)})")
        # str.isdigit alone accepts digits such as "²" that int() rejects
        if not (count.isascii() and count.isdigit()) or int(count) < 1:
            parser.error(f"--pairs takes WORKLOAD=N, got {item!r}")
        plan.append((workload, int(count)))
    for checkout in checkouts.values():
        compile_sources(checkout)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = Path(f"BENCH_{args.label}.json")

    report = {"label": args.label,
              "created": datetime.now(timezone.utc).isoformat(
                  timespec="seconds"),
              "settings": {"seconds": seconds, "first_seed": args.seed,
                           "pairs": dict(plan), "trace": 0},
              "host": {"python": platform.python_version(),
                       "machine": platform.machine()},
              "sides": {s: describe(c) for s, c in checkouts.items()},
              "runs": [], "summary": {}}
    for workload, count in plan:
        for pair in range(count):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed, seconds)
                report["runs"].append({"workload": workload, "seed": seed,
                                       "pair": pair, "side": side,
                                       "position": position, **run})
                print(f"{workload} seed {seed} {side}: exit {run['exit']}, "
                      f"items_per_s {run['metrics']['items_per_s']:.1f}",
                      file=sys.stderr)
            report["summary"] = summarize(report["runs"], metrics)
            out.write_text(json.dumps(report, indent=1) + "\n")
    for line in summary_lines(report["summary"], metrics):
        print(line, file=sys.stderr)
    failed = sum(r["exit"] != 0 for r in report["runs"])
    print(f"wrote {out}: {len(report['runs'])} runs, {failed} not clean",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
