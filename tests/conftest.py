"""Shared test helpers: CLI runner and corpus samples."""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symbreak import cli, corpus
from symbreak.graphs import Graph, RootedGraph, build_graph
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
