"""Workload inputs, invocation plans and answer checks.

The benchmark builds every input itself from the seed and hands the program
only graph6 text (batch files or inline ``g6:`` tokens) and CLI arguments.
Each invocation carries the answer frozen from the seed commit in
``expected.json``; ``answer()`` reduces the program's output to the same
form, with vertex ids mapped back through the relabelling.

Workloads (see BENCHMARK.json for why each exists):

  corpus     the 996 corpus graphs, shuffled and relabelled, analysed in
             graph6 batch files of BATCH graphs with --phi-max 4 --steady
  symmetric  eleven graphs with large groups for their size, relabelled,
             each analysed alone with --phi-max D (Kneser(7,2) without)
  verify     the 18 rules in catalog order with reduced grids; the harness
             generates its own instances, so the seed does not change it

Every workload also issues capped invocations whose automorphism group
provably exceeds the --max-aut cap, so their correct outcome is exit 3.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "symbreak" / "data"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("corpus", "symmetric", "verify")
CORPUS_FILES = ("connected_n_le6.g6", "connected_7.g6")
BATCH = 12                   # divides 996, so every batch is the same size
CORPUS_PHI_MAX = 4
CORPUS_CAP = 100             # capped corpus probes: graphs with |Aut| > 100

Edges = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# graph6 and relabelling (n <= 62), independent of the program under test


def g6_decode(text: str) -> tuple[int, Edges]:
    data = text.strip().encode("ascii")
    n = data[0] - 63
    bits = "".join(format(b - 63, "06b") for b in data[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, tuple(p for p, bit in zip(pairs, bits) if bit == "1")


def g6_encode(n: int, edges: Edges) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = "".join("1" if (u, v) in present else "0"
                   for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(int(bits[i:i + 6], 2) + 63)
                                 for i in range(0, len(bits), 6))


def relabel(edges: Edges, image: list[int]) -> Edges:
    return tuple(sorted((min(image[u], image[v]), max(image[u], image[v]))
                        for u, v in edges))


def complete(n: int) -> tuple[int, Edges]:
    return n, tuple(combinations(range(n), 2))


def cycle(n: int) -> tuple[int, Edges]:
    return n, tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n))
                           for i in range(n)))


def complete_bipartite(a: int, b: int) -> tuple[int, Edges]:
    return a + b, tuple((u, a + v) for u in range(a) for v in range(b))


def kneser(n: int, k: int) -> tuple[int, Edges]:
    sets = [set(c) for c in combinations(range(n), k)]
    return len(sets), tuple((i, j) for i, j in combinations(range(len(sets)), 2)
                            if not sets[i] & sets[j])


def vertex_sum_power(graph: tuple[int, Edges], t: int) -> tuple[int, Edges]:
    """t copies of graph glued at vertex 0."""
    n, edges = graph
    def place(copy, v):
        return 0 if v == 0 else 1 + copy * (n - 1) + (v - 1)
    return 1 + t * (n - 1), tuple(sorted(
        (min(place(c, u), place(c, v)), max(place(c, u), place(c, v)))
        for c in range(t) for u, v in edges))


# name -> (graph, --phi-max or None)
SYMMETRIC = {
    "vsum_K4x3": (vertex_sum_power(complete(4), 3), 4),
    "vsum_K3x4": (vertex_sum_power(complete(3), 4), 4),
    "vsum_K3x5": (vertex_sum_power(complete(3), 5), 4),
    "vsum_K5x2": (vertex_sum_power(complete(5), 2), 5),
    "vsum_C4x4": (vertex_sum_power(cycle(4), 4), 3),
    "K4_4": (complete_bipartite(4, 4), 5),
    "K7": (complete(7), 7),
    "K8": (complete(8), 8),
    "petersen": (kneser(5, 2), 3),
    "C12": (cycle(12), 2),
    "kneser_7_2": (kneser(7, 2), None),
}
SYMMETRIC_CAPPED = ("builtin:complete:30", "builtin:complete:12")
SYMMETRIC_CAP = 100_000

VERIFY_RULES = ("eq1", "eq2", "eq3", "thm2.1", "thm3.5", "thm3.7", "cor3.8",
                "cor3.9", "thm3.10", "thm3.12", "thm3.13", "thm4.2",
                "thm4.3", "thm4.4", "thm5.1", "thm5.2", "thm6.1", "lex-d")
# thm6.1 and lex-d run smaller grids than thm4.3/thm5.1 (max=8 and 7, not
# 10 and 9) so that a pass takes seconds and a run repeats it: at max=10
# thm6.1 alone took 15-24 s and lex-d about 10 s, and one pass per run left
# run-to-run spreads above 25%
VERIFY_GRIDS = {"thm4.3": "max=10", "thm5.1": "max=10", "thm6.1": "max=8",
                "lex-d": "max=7", "thm3.7": "t=2..3", "cor3.8": "family=K3"}
# lexicographic products K_a[K_b] are complete graphs on a*b >= 8 vertices,
# so |Aut| >= 8! exceeds the cap
VERIFY_CAPPED = ((2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2),
                 (3, 4), (4, 3))
VERIFY_CAP = 1000


def verify_argv(rule: str) -> tuple[str, ...]:
    grid = VERIFY_GRIDS.get(rule)
    return ("verify", rule) + (("--grid", grid) if grid else ())


def corpus_graphs() -> list[str]:
    """The corpus graph6 lines in file order."""
    return [line.strip() for name in CORPUS_FILES
            for line in (DATA / name).read_text().splitlines()
            if line.strip()]


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class Invocation:
    """One cli.main(argv) call and the answer it must produce."""

    argv: tuple[str, ...]
    expected: object          # what answer() must return
    items: int                # graphs analysed or verdicts produced
    capped: bool = False      # correct outcome is exit 3 on the budget
    labels: tuple = ()        # per report record: relabelling image, if any


@dataclass(frozen=True)
class Plan:
    """A pass: units run in order; each unit starts from fresh caches, as a
    new process would."""

    workload: str
    units: tuple[tuple[Invocation, ...], ...]

    @property
    def invocations(self) -> list[Invocation]:
        return [inv for unit in self.units for inv in unit]


SKIPPED = (None,) * 7 + (True,)


def _capped(argv: tuple[str, ...]) -> Invocation:
    return Invocation(argv, (3, [SKIPPED]), 0, capped=True)


def _record(frozen: list) -> tuple:
    """Expected record from expected.json: [n, m, aut, d, theta, phi, steady]."""
    n, m, aut, d, theta, phi, steady = frozen
    return (n, m, aut, d, theta,
            None if phi is None else [tuple(r) for r in phi],
            steady, False)


def build_plan(workload: str, seed: int, expected: dict,
               pass_index: int = 0) -> Plan:
    """The inputs of one pass, drawn from the seed.

    Each corpus pass gets its own shuffle, relabelling and batches, so the
    tail latency comes from many batch compositions.  symmetric keeps one
    draw for all passes of a run: its median falls among a few graphs whose
    latency depends on the labelling, and a draw per pass spread op_p50_ms
    by 19% between seeds instead of 9%."""
    if workload == "corpus":
        rng = random.Random(f"corpus:{seed}:{pass_index}")
        return _corpus_plan(rng, expected, pass_index)
    if workload == "symmetric":
        return _symmetric_plan(random.Random(f"symmetric:{seed}"), expected)
    if workload == "verify":
        return _verify_plan(expected)
    raise ValueError(f"unknown workload {workload!r}")


def _corpus_plan(rng: random.Random, expected: dict, pass_index: int
                 ) -> Plan:
    frozen = expected["corpus"]
    order = list(range(len(frozen)))
    rng.shuffle(order)
    lines = corpus_graphs()
    graphs = {}
    for i in order:
        n, edges = g6_decode(lines[i])
        image = list(range(n))
        rng.shuffle(image)
        graphs[i] = (g6_encode(n, relabel(edges, image)), image)
    batch_dir = WORK / "corpus"
    batch_dir.mkdir(parents=True, exist_ok=True)
    units = []
    for b in range(0, len(order), BATCH):
        chunk = order[b:b + BATCH]
        path = batch_dir / f"pass{pass_index}_batch{b // BATCH:03d}.g6"
        path.write_text("".join(graphs[i][0] + "\n" for i in chunk))
        units.append((Invocation(
            ("analyze", str(path), "--phi-max", str(CORPUS_PHI_MAX),
             "--steady"),
            (0, [_record(frozen[i]) for i in chunk]), len(chunk),
            labels=tuple(graphs[i][1] for i in chunk)),))
    units += [(_capped(("analyze", "g6:" + graphs[i][0],
                        "--max-aut", str(CORPUS_CAP))),)
              for i in order if frozen[i][2] > CORPUS_CAP]
    rng.shuffle(units)
    return Plan("corpus", tuple(units))


def _symmetric_plan(rng: random.Random, expected: dict) -> Plan:
    invocations = []
    for name, ((n, edges), phi_max) in SYMMETRIC.items():
        image = list(range(n))
        rng.shuffle(image)
        argv = ("analyze", "g6:" + g6_encode(n, relabel(edges, image)))
        if phi_max is not None:
            argv += ("--phi-max", str(phi_max))
        invocations.append(Invocation(
            argv, (0, [_record(expected["symmetric"][name])]), 1,
            labels=(image,)))
    rng.shuffle(invocations)
    # the capped invocations go first: the order in which the largest
    # element lists are freed and reallocated moved peak RSS by 40%
    invocations[:0] = [
        _capped(("analyze", spec, "--max-aut", str(SYMMETRIC_CAP)))
        for spec in SYMMETRIC_CAPPED]
    return Plan("symmetric", tuple((inv,) for inv in invocations))


def _verify_plan(expected: dict) -> Plan:
    # one unit, as in `verify all`; a capped probe follows every second rule
    # so the probes sample host speed across the whole pass
    unit = []
    probes = iter(VERIFY_CAPPED)
    for i, rule in enumerate(VERIFY_RULES):
        frozen = expected["verify"][rule]
        unit.append(Invocation(verify_argv(rule), (0, frozen),
                               frozen["summary"]["verdicts"]))
        if i % 2:
            a, b = next(probes)
            unit.append(_capped(("product", "lex", f"builtin:complete:{a}",
                                 f"builtin:complete:{b}", "--emit", "json",
                                 "--max-aut", str(VERIFY_CAP))))
    return Plan("verify", (tuple(unit),))


# ---------------------------------------------------------------------------
# answers


def answer(inv: Invocation, exit_code: int, stdout: str) -> tuple:
    """(exit code, payload) in the form of Invocation.expected."""
    if exit_code not in (0, 3):
        return exit_code, None
    report = json.loads(stdout)
    if inv.argv[0] == "verify":
        return exit_code, {"digest": report["digest"],
                           "summary": report["summary"]}
    records = []
    for i, rec in enumerate(report["graphs"]):
        steady = rec["steady"]
        if steady is not None and inv.labels:
            # vertex v of the relabelled graph is image^-1(v) originally
            inverse = {new: old for old, new in enumerate(inv.labels[i])}
            steady = sorted(inverse[v] for v in steady)
        phi = rec["phi"]
        records.append((
            rec["n"], rec["m"], rec["autOrder"], rec["d"], rec["theta"],
            None if phi is None else [(r["k"], r["phi"], r["varphi"])
                                      for r in phi],
            steady, rec["skipped"] is not None))
    return exit_code, records
