"""Compiled/pure kernel parity and backend selection."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

from symbreak import _kernels_py as pure
from symbreak import kernels
from symbreak.errors import BudgetExceededError
from symbreak.graphs import (asymmetric6, complete, complete_bipartite,
                             cycle, path, petersen, star)
from symbreak.perms import automorphism_group
from symbreak.products import lexicographic

try:
    from symbreak import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled extension not built")

SAMPLE = [path(5), cycle(6), complete(5), star(4), petersen(),
          asymmetric6(), complete_bipartite(2, 3)]


def _adj(g):
    return g.adjacency()


def test_backend_reports_a_name():
    assert kernels.backend_name() in ("compiled", "pure")


@needs_compiled
@pytest.mark.parametrize("g", SAMPLE, ids=lambda g: f"n{g.n}m{g.m}")
def test_search_parity(g):
    a = compiled.search_automorphisms(g.n, _adj(g), 10**7, True)
    b = pure.search_automorphisms(g.n, _adj(g), 10**7, True)
    assert a[0] == b[0] and a[1] == b[1]
    assert sorted(a[2]) == sorted(b[2])


@needs_compiled
@pytest.mark.parametrize("g", SAMPLE, ids=lambda g: f"n{g.n}m{g.m}")
def test_search_streaming_parity(g):
    a = compiled.search_automorphisms(g.n, _adj(g), 10**7, False)
    b = pure.search_automorphisms(g.n, _adj(g), 10**7, False)
    assert a[:2] == b[:2]
    assert a[2] is None and b[2] is None


@needs_compiled
@pytest.mark.parametrize("g", SAMPLE, ids=lambda g: f"n{g.n}m{g.m}")
def test_partition_count_parity(g):
    elems = [p.image for p in automorphism_group(g).elements
             if not p.is_identity()]
    for k in (1, 2, 3):
        a = compiled.count_distinguishing_partitions(g.n, elems, k, 10**7)
        b = pure.count_distinguishing_partitions(g.n, elems, k, 10**7)
        assert list(a) == list(b)
        assert (compiled.exists_distinguishing_partition(g.n, elems, k, 10**7)
                == pure.exists_distinguishing_partition(g.n, elems, k, 10**7))


@needs_compiled
@pytest.mark.parametrize("g", SAMPLE + [complete(7), lexicographic(cycle(4),
                                                                 path(2))[0]],
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_minimal_cycles_parity(g):
    kept = automorphism_group(g).minimal_cycles.images
    for k in range(1, g.n + 1):
        a = compiled.count_distinguishing_partitions(g.n, kept, k, 10**7)
        b = pure.count_distinguishing_partitions(g.n, kept, k, 10**7)
        assert list(a) == list(b)
        assert (compiled.exists_distinguishing_partition(g.n, kept, k, 10**7)
                == pure.exists_distinguishing_partition(g.n, kept, k, 10**7))


@needs_compiled
def test_block_preservation_parity():
    for g, h in [(path(2), complete(2)), (cycle(4), complete(1)),
                 (path(3), path(3))]:
        product, _ = lexicographic(g, h)
        blocks = [v // h.n for v in range(product.n)]
        a = compiled.all_automorphisms_preserve_blocks(
            product.n, _adj(product), blocks, 10**7)
        b = pure.all_automorphisms_preserve_blocks(
            product.n, _adj(product), blocks, 10**7)
        assert a == b


def test_budget_raises():
    g = complete(6)
    with pytest.raises(BudgetExceededError):
        kernels.search_automorphisms(g.n, _adj(g), 100, True)
    elems = [p.image for p in automorphism_group(cycle(6)).elements
             if not p.is_identity()]
    with pytest.raises(BudgetExceededError):
        kernels.count_distinguishing_partitions(6, elems, 6, 10)


def test_pure_env_var_selects_fallback():
    code = ("import symbreak.kernels as k; "
            "print(k.backend_name())")
    env = dict(os.environ, SYMBREAK_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "pure"


@needs_compiled
def test_default_prefers_compiled():
    env = {k: v for k, v in os.environ.items() if k != "SYMBREAK_PURE"}
    code = ("import symbreak.kernels as k; "
            "print(k.backend_name())")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "compiled"


def test_pure_backend_full_pipeline():
    """Indices computed under the fallback match the active backend."""
    code = (
        "from symbreak.indices import graph_indices\n"
        "from symbreak.graphs import petersen\n"
        "r = graph_indices(petersen(), phi_max=3)\n"
        "print(r.d, r.theta, r.aut_order,\n"
        "      [(row.k, row.phi, row.varphi) for row in r.phi.rows])\n")
    env = dict(os.environ, SYMBREAK_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    from symbreak.indices import graph_indices
    r = graph_indices(petersen(), phi_max=3)
    expected = (f"{r.d} {r.theta} {r.aut_order} "
                f"{[(row.k, row.phi, row.varphi) for row in r.phi.rows]}")
    assert out.stdout.strip() == expected


def _c6_elements():
    return [p.image for p in automorphism_group(cycle(6)).elements
            if not p.is_identity()]


K6 = complete(6).adjacency()

# (pure kernel call, whether it spends its budget)
PURE_CALLS = {
    "search": (lambda: pure.search_automorphisms(6, K6, 10**7, True), False),
    "search-budget": (lambda: pure.search_automorphisms(6, K6, 100, True),
                      True),
    "search-stream": (lambda: pure.search_automorphisms(6, K6, 10**7, False),
                      False),
    "blocks": (lambda: pure.all_automorphisms_preserve_blocks(
        6, K6, [0, 0, 1, 1, 2, 2], 10**7), False),
    "blocks-budget": (lambda: pure.all_automorphisms_preserve_blocks(
        6, K6, [0] * 6, 100), True),
    "count": (lambda: pure.count_distinguishing_partitions(
        6, _c6_elements(), 3, 10**7), False),
    "count-budget": (lambda: pure.count_distinguishing_partitions(
        6, _c6_elements(), 3, 10), True),
    "exists": (lambda: pure.exists_distinguishing_partition(
        6, _c6_elements(), 3, 10**7), False),
    "exists-budget": (lambda: pure.exists_distinguishing_partition(
        6, _c6_elements(), 6, 2), True),
}


@pytest.mark.parametrize("name", sorted(PURE_CALLS))
def test_pure_kernels_leave_no_reference_cycles(name):
    call, spends_budget = PURE_CALLS[name]
    automorphism_group(cycle(6))  # warm the group cache outside the window
    gc.collect()
    gc.disable()
    try:
        raised = False
        try:
            call()
        except BudgetExceededError:
            raised = True
        assert raised == spends_budget
        assert gc.collect() == 0
    finally:
        gc.enable()


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pure_budget_exit_builds_no_elements():
    adj = complete(30).adjacency()

    def call():
        with pytest.raises(BudgetExceededError,
                           match="exceeded cap 100000$"):
            pure.search_automorphisms(30, adj, 100_000, True)

    assert _peak_traced_bytes(call) < 1 << 20


def test_pure_stream_stores_no_group():
    adj = complete(8).adjacency()

    def call():
        assert pure.search_automorphisms(8, adj, 10**7, False) == (
            40320, 7, None)

    assert _peak_traced_bytes(call) < 1 << 20
