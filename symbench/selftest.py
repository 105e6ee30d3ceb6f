"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest -q symbench/selftest.py

The last test runs every workload traced and takes about two minutes.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as w

sys.path.insert(0, str(w.ROOT / "src"))

EXPECTED = json.loads(w.EXPECTED.read_text())
BENCHMARK = json.loads((w.ROOT / "BENCHMARK.json").read_text())


def _inputs(workload: str, seed: int, pass_index: int = 0) -> list:
    """Every argv of a plan plus the bytes of every file it names."""
    plan = w.build_plan(workload, seed, EXPECTED, pass_index)
    out = []
    for inv in plan.invocations:
        out.append(inv.argv)
        if inv.argv[0] == "analyze" and not inv.argv[1].startswith(
                ("g6:", "builtin:")):
            with open(inv.argv[1], "rb") as f:
                out.append(f.read())
    return out


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", ("corpus", "symmetric"))
def test_other_seed_gives_other_inputs(workload):
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_each_corpus_pass_gets_other_inputs():
    assert _inputs("corpus", 7, 0) != _inputs("corpus", 7, 1)


def test_other_seed_gives_identical_answers():
    answers = []
    for seed in (1, 2):
        result = run.run_pass(w.build_plan("corpus", seed, EXPECTED),
                              run.PassResult())
        assert result.failures == []
        # batches differ between seeds, so compare the per-graph records
        answers.append(sorted(repr((code, record))
                              for code, records in result.answers
                              for record in records))
    assert answers[0] == answers[1]


def test_wrong_answer_is_a_failure():
    plan = w.build_plan("symmetric", 1, EXPECTED)
    c12 = next(inv for inv in plan.invocations
               if inv.expected[1] and inv.expected[1][0][:2] == (12, 12))
    code, records = c12.expected
    wrong = (code, [records[0][:2] + (records[0][2] + 1,) + records[0][3:]])
    bad = w.Plan("symmetric", ((w.Invocation(c12.argv, wrong, 1,
                                             labels=c12.labels),),))
    result = run.run_pass(bad, run.PassResult())
    assert len(result.failures) == 1 and result.items == 0


def test_metric_names_and_units():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]), m
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        tracing.LAYER_UNITS
    assert [wl["name"] for wl in BENCHMARK["workloads"]] == list(w.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    rng = random.Random(3)
    for size in (11, 12, 18, 22, 83, 332, 500):
        for ties in (False, True):
            xs = [rng.randrange(5) if ties else rng.random()
                  for _ in range(size)]
            if ties and sum(1 for x in xs if x > min(xs)) < 10:
                continue
            value, pct = run.tail(xs)
            assert sum(1 for x in xs if x > value) >= 10
            higher = [x for x in xs if x > value]
            assert sum(1 for x in xs if x > min(higher)) < 10
            assert pct == 100 * sum(1 for x in xs if x <= value) / size
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def middle():
        now[0] += 2.0
        traced_leaf()
        traced_leaf()
        now[0] += 3.0

    def outer():
        now[0] += 4.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()
    assert dict(tracer.calls) == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.self_time == {"leaf": 2.0, "middle": 5.0, "outer": 4.0}
    assert tracer.total == {"leaf": 2.0, "middle": 7.0, "outer": 11.0}


def test_no_result_without_the_program(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(w.HERE, tmp_path / w.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{w.HERE.name}/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""


# No workload spends the coloring budget: a capped invocation belongs in a
# workload only when its outcome is provable, and how many search nodes a
# coloring search needs is not.  test_partition_budget_errors_are_counted
# covers these two counters instead.
NEVER_HIT = {"kernels.exists_distinguishing_partition.budget_errors",
             "kernels.count_distinguishing_partitions.budget_errors"}


def test_partition_budget_errors_are_counted():
    import symbreak.kernels
    from symbreak.errors import BudgetExceededError
    from symbreak.graphs import complete
    from symbreak.perms import enumerate_automorphisms

    nonid = enumerate_automorphisms(complete(6)).nonidentity_images()
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        for name in ("exists_distinguishing_partition",
                     "count_distinguishing_partitions"):
            with pytest.raises(BudgetExceededError):
                getattr(symbreak.kernels, name)(6, nonid, 5, 1)
    finally:
        installed.undo()
    assert not hasattr(symbreak.kernels.exists_distinguishing_partition,
                       "__wrapped__")
    metrics = tracing.layer_metrics(tracer, 0.0)
    for name in NEVER_HIT:
        assert metrics[name] == 1
    assert metrics["kernels.exists_distinguishing_partition.elements_in"] \
        == len(nonid)


def test_traced_runs_answer_alike_and_fill_every_layer_metric():
    seen: dict[str, float] = {}
    for workload in w.WORKLOADS:
        metrics, _, result = run.traced(w.build_plan(workload, 1, EXPECTED))
        assert result.failures == [], workload
        for name, (value, _) in metrics.items():
            seen[name] = max(seen.get(name, 0), value)
    assert set(seen) == set(tracing.LAYER_UNITS)
    assert [name for name, value in seen.items()
            if value <= 0 and name not in NEVER_HIT] == []
