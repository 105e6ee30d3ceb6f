"""Kernel dispatch.

The automorphism and isomorphism searches run the one extension primitive
of the pure kernel, so they are pure on every backend.
search_automorphisms returns the order and the stabilizer chain's
transversals, of Aut(G) or of the automorphisms that keep an initial
vertex coloring (one vertex's stabilizer, a weighted quotient's group);
group elements are built from them by symbreak.perms, on request only.
count_distinguishing_labellings, the walk of the twin route, is pure on
every backend too.  It has no memo: one graph never asks the same input
twice.

The two partition searches run on the compiled walk when the extension
symbreak._kernels is built and SYMBREAK_PURE=1 is not set, and on the
pure-Python kernels otherwise.  The extension is one C function, the plain
walk of the partition tree (see _kernels.c): it answers the existence
search itself and gives the count a closure histogram, which _walk_count
sums here against the shared extension table with exact integers.  The
walk charges one node per block tried, so it spends the coloring budget
node for node as the pure existence search does, and may exceed a budget
that the pure count, which is memoized, meets.  A spent budget raises
BudgetExceededError here, with the caller's budget in its text.

Both partition searches are memoized here, on either backend, in bounded
per-process caches keyed on every input: (n, tuple(elements), max_blocks,
node_budget).  Product graphs whose groups act alike pass the same
elements, so the key hits across graphs, as well as on the rule sweeps that
ask the same copy factor again.  The answer is a pure function of the key;
the budget is part of it, so a smaller budget still raises where it did,
and a raised error is never stored.  The count returns a fresh list on
every call.
"""

from __future__ import annotations

import os
from array import array
from functools import lru_cache
from itertools import chain

from . import _kernels_py as _pure
from .errors import BudgetExceededError

if os.environ.get("SYMBREAK_PURE") == "1":
    _walk = None
else:
    try:
        from ._kernels import walk as _walk
    except ImportError:
        _walk = None

# the walk counts nodes in a signed 64-bit integer; no walk comes near this
# many, so handing it the smaller of this and the budget changes no answer
_WALK_MAX_BUDGET = 1 << 62


def backend_name() -> str:
    return "pure" if _walk is None else "compiled"


def search_automorphisms(n, adj, order_cap, colors=None):
    return _pure.search_automorphisms(n, adj, order_cap, colors)


def isomorphic(n, adj, dst, pin):
    return _pure.isomorphic(n, adj, dst, pin)


def all_automorphisms_preserve_blocks(n, adj, blocks, order_cap):
    # one integer block id per vertex; bad shapes fail here, before the
    # chain is built
    blocks = [int(b) for b in blocks]
    if len(blocks) != n:
        raise ValueError("need one block id per vertex")
    return _pure.all_automorphisms_preserve_blocks(n, adj, blocks, order_cap)


def _run_walk(n, elements, kmax, node_budget, count):
    out = _walk(n, array("i", chain.from_iterable(elements)), kmax,
                min(node_budget, _WALK_MAX_BUDGET), count)
    if out is None:
        raise BudgetExceededError(
            f"coloring search exceeded budget {node_budget}")
    return out


def _walk_count(n, elements, max_blocks, node_budget):
    """_kernels_py.count_distinguishing_partitions on the compiled walk.

    A node whose live set empties as vertex v is placed, with b blocks
    open, closes its subtree in E[n-v-1][b][j] ways to end with j blocks,
    so A_j = sum over (v, b) of closures[v][b] * E[n-v-1][b][j].
    """
    A = [0] * (max_blocks + 1)
    kmax = min(max_blocks, n)
    if kmax < 1:
        return A
    E = _pure._extension_table(n, kmax)
    if not elements:
        A[:kmax + 1] = E[n][0]
        return A
    closures = _run_walk(n, elements, kmax, node_budget, True)
    for i, times in enumerate(closures):
        if times:
            v, b = divmod(i, kmax + 1)
            rest = E[n - v - 1][b]
            for j in range(b, kmax + 1):
                A[j] += times * rest[j]
    return A


def _walk_exists(n, elements, max_blocks, node_budget):
    """_kernels_py.exists_distinguishing_partition on the compiled walk."""
    kmax = min(max_blocks, n)
    if kmax < 1 or not elements:
        return kmax >= 1
    return _run_walk(n, elements, kmax, node_budget, False)


@lru_cache(maxsize=256)
def _count(n, elements, max_blocks, node_budget):
    count = (_pure.count_distinguishing_partitions if _walk is None
             else _walk_count)
    return tuple(count(n, elements, max_blocks, node_budget))


@lru_cache(maxsize=256)
def _exists(n, elements, max_blocks, node_budget):
    exists = (_pure.exists_distinguishing_partition if _walk is None
              else _walk_exists)
    return exists(n, elements, max_blocks, node_budget)


def count_distinguishing_partitions(n, elements, max_blocks, node_budget):
    return list(_count(n, tuple(elements), max_blocks, node_budget))


def exists_distinguishing_partition(n, elements, max_blocks, node_budget):
    return _exists(n, tuple(elements), max_blocks, node_budget)


def count_distinguishing_labellings(n, elements, classes, palettes,
                                    node_budget, first=False):
    return _pure.count_distinguishing_labellings(n, elements, classes,
                                                 palettes, node_budget, first)
