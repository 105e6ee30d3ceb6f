"""Kernel dispatch.

The automorphism and isomorphism searches run the one extension primitive
of the pure kernel, which has no compiled twin, so they are pure on every
backend.  search_automorphisms returns the order and the stabilizer
chain's transversals, of Aut(G) or of one vertex's stabilizer; group
elements are built from them by symbreak.perms, on request only.  The two
partition searches prefer the compiled extension and fall back to the
pure-Python twin when the extension is missing or SYMBREAK_PURE=1 is set.
The pure twin runs both over one kill table, with a memo on the count
only.  The compiled partition searches only handle graphs that fit one
machine word (n <= 64); larger inputs, possible when the vertex cap is
raised, route to the pure implementation per call.

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
from functools import lru_cache

from . import _kernels_py as _pure

if os.environ.get("SYMBREAK_PURE") == "1":
    _impl = _pure
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

_COMPILED_MAX_N = 64


def backend_name() -> str:
    return "pure" if _impl is _pure else "compiled"


def _pick(n: int):
    return _impl if n <= _COMPILED_MAX_N else _pure


def search_automorphisms(n, adj, order_cap, pin=None):
    return _pure.search_automorphisms(n, adj, order_cap, pin)


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
    return tuple(_pick(n).count_distinguishing_partitions(
        n, elements, max_blocks, node_budget))


@lru_cache(maxsize=256)
def _exists(n, elements, max_blocks, node_budget):
    return _pick(n).exists_distinguishing_partition(n, elements, max_blocks,
                                                    node_budget)


def count_distinguishing_partitions(n, elements, max_blocks, node_budget):
    return list(_count(n, tuple(elements), max_blocks, node_budget))


def exists_distinguishing_partition(n, elements, max_blocks, node_budget):
    return _exists(n, tuple(elements), max_blocks, node_budget)
