"""Kernel entry points.

Every search runs on the pure-Python kernels of symbreak._kernels_py.
search_automorphisms returns the order and the stabilizer chain's
transversals, of Aut(G) or of the automorphisms that keep an initial
vertex coloring (one vertex's stabilizer, a weighted quotient's group);
group elements are built from them by symbreak.perms, on request only.
count_distinguishing_labellings, the walk of the twin route, has no
per-process memo: one graph never asks the same input twice.

The existence search behind D is that walk with one vertex class and a
palette of max_blocks labels, in its first mode.  Labellings with at most
k labels are distinguishing exactly when their partitions into equal
labels are, so it answers whether some set partition into at most
max_blocks blocks is preserved by no element.  It tries the blocks the
plain existence walk tries, in the same order, and charges one node per
block tried; its memo stores only subtrees with no distinguishing
completion, so it never charges more nodes than the plain walk.

The partition count is that walk too, without first: run at k = 1..K
labels, K = min(max_blocks, n), it gives N_k = sum_j A_j * k!/(k-j)!, and
A_k follows by back-substitution.  The K walks charge one node_budget
between them, so the count at k < K charges a prefix of the count at K.

The count and the existence search are memoized here in bounded
per-process caches keyed on every input:
(n, tuple(elements), max_blocks, node_budget).
Product graphs whose groups act alike pass the same elements, so the key
hits across graphs, as well as on the rule sweeps that ask the same copy
factor again.  The answer is a pure function of the key; the budget is
part of it, so a smaller budget still raises where it did, and a raised
error is never stored.  The count returns a fresh list on every call.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels_py as _pure


def backend_name() -> str:
    return "pure"


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


@lru_cache(maxsize=256)
def _count(n, elements, max_blocks, node_budget):
    return tuple(_pure.count_distinguishing_partitions(
        n, elements, max_blocks, node_budget))


@lru_cache(maxsize=256)
def _exists(n, elements, max_blocks, node_budget):
    if n == 0 or max_blocks < 1:
        return False
    return _pure.count_distinguishing_labellings(
        n, elements, (0,) * n, (max_blocks,), node_budget, True) > 0


def count_distinguishing_partitions(n, elements, max_blocks, node_budget):
    return list(_count(n, tuple(elements), max_blocks, node_budget))


def exists_distinguishing_partition(n, elements, max_blocks, node_budget):
    """True iff some set partition of {0..n-1} into at most max_blocks
    nonempty blocks is preserved by none of the given elements."""
    return _exists(n, tuple(elements), max_blocks, node_budget)


def count_distinguishing_labellings(n, elements, classes, palettes,
                                    node_budget, first=False):
    return _pure.count_distinguishing_labellings(n, elements, classes,
                                                 palettes, node_budget, first)
