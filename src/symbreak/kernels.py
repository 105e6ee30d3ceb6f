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
symbreak.indices starts D's ladder at its largest transposition class,
so no rung below it is asked.

The partition count is that walk too, without first: run at k = 1..K
labels, K = min(max_blocks, n), it gives N_k = sum_j A_j * k!/(k-j)!, and
A_k follows by back-substitution.  The K walks charge one node_budget
between them, so the count at k < K charges a prefix of the count at K.

Both searches are memoized here in bounded per-process caches.  The
existence search's is keyed on every input:
(n, tuple(elements), max_blocks, node_budget).
The count's is keyed on (n, tuple(elements), node_budget) and holds the
ladder climbed so far: A_0..A_K and the nodes its K walks spent.  A count
at K' <= K is a slice of it: a fresh K'-count would charge a prefix of
those nodes, so it could not raise.  A count at K' > K climbs on, running
walks K+1..K' from the stored node total and storing each walk as it
completes, so it charges the nodes a fresh K'-count charges, answers the
same, and raises at the same walk with the same text.  A ladder is stored
once its first walk completes, and a walk that raises stores nothing.
_kernels_py.count_distinguishing_partitions is that climb from an empty
ladder, so the tests that hold it to reference walks cover the code the
memo runs.  So the paper's ladders, least k with Phi_k >= a target and
sums of phi_i over i <= k, run each walk once per process.
Product graphs whose groups act alike pass the same elements, so the keys
hit across graphs, as well as on the rule sweeps that ask the same copy
factor again.  The answer is a pure function of the key and the rung asked;
the budget is part of the key, so a smaller budget still raises where it
did.  The count returns a fresh list on every call.
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
def _count(n, elements, node_budget):
    # a ladder is stored only once its first walk completes
    ladder = _pure.CountLadder()
    _pure.climb(ladder, n, elements, 1, node_budget)
    return ladder


@lru_cache(maxsize=256)
def _exists(n, elements, max_blocks, node_budget):
    if n == 0 or max_blocks < 1:
        return False
    return _pure.count_distinguishing_labellings(
        n, elements, (0,) * n, (max_blocks,), node_budget, True) > 0


def count_distinguishing_partitions(n, elements, max_blocks, node_budget):
    K = min(max_blocks, n)
    if K < 1:
        return [0] * (max_blocks + 1)
    elements = tuple(elements)
    ladder = _count(n, elements, node_budget)
    _pure.climb(ladder, n, elements, K, node_budget)
    return ladder.answer(max_blocks)


def exists_distinguishing_partition(n, elements, max_blocks, node_budget):
    """True iff some set partition of {0..n-1} into at most max_blocks
    nonempty blocks is preserved by none of the given elements."""
    return _exists(n, tuple(elements), max_blocks, node_budget)


def count_distinguishing_labellings(n, elements, classes, palettes,
                                    node_budget, first=False):
    return _pure.count_distinguishing_labellings(n, elements, classes,
                                                 palettes, node_budget, first)
