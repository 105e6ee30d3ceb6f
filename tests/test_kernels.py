"""Compiled/pure kernel parity and backend selection."""

from __future__ import annotations

import os
import subprocess
import sys

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
