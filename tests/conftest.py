"""Shared test helpers: CLI runner, corpus samples and a walk spy."""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symbreak import cli, corpus, kernels
from symbreak.graphs import (Graph, RootedGraph, build_graph, complete,
                             complete_bipartite, cycle, kneser, petersen)
from symbreak.products import vertex_sum


def _run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def run_cli():
    return _run_cli


def clear_caches() -> None:
    """Empty every lru_cache callable in the package's module namespaces, as
    a caller that wants a process's fresh state would find them."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "symbreak":
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def walks(monkeypatch) -> list[tuple]:
    """(n, elements, node_budget, palettes, first) of every labelling walk
    the kernel starts while the test runs."""
    seen = []
    walk = kernels.count_distinguishing_labellings

    def spy(n, elements, classes, palettes, node_budget, first=False,
            nodes=0):
        seen.append((n, tuple(elements), node_budget, palettes, first))
        return walk(n, elements, classes, palettes, node_budget, first,
                    nodes)

    monkeypatch.setattr(kernels, "count_distinguishing_labellings", spy)
    return seen


@pytest.fixture(scope="session")
def connected6() -> tuple[Graph, ...]:
    return corpus.connected_graphs(6)


@pytest.fixture(scope="session")
def connected7() -> tuple[Graph, ...]:
    return corpus.connected_graphs(7)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    return build_graph(n, edges)


def vsum(base: Graph, copies: int) -> Graph:
    """copies of base glued at vertex 0 (the benchmark's vertex-sum shapes)."""
    return vertex_sum([RootedGraph(base, 0)] * copies)[0]


# the benchmark's 11 symmetric shapes, by name
SYMMETRIC_SHAPES = {
    "K4x3": lambda: vsum(complete(4), 3),
    "K3x4": lambda: vsum(complete(3), 4),
    "K3x5": lambda: vsum(complete(3), 5),
    "K5x2": lambda: vsum(complete(5), 2),
    "C4x4": lambda: vsum(cycle(4), 4),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K7": lambda: complete(7),
    "K8": lambda: complete(8),
    "petersen": petersen,
    "C12": lambda: cycle(12),
    "kneser_7_2": lambda: kneser(7, 2),
}
