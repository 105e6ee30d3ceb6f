"""Frozen corpus of small connected graphs, shipped as package data.

One graph6 line per isomorphism class: every connected graph on up to 6
vertices (143 graphs) and every connected graph on exactly 7 vertices
(853 graphs).  The files are generated and independently cross-checked by
scripts/gen_fixtures.py; the package only ever reads them.  They are
fixtures, read whatever the caller's vertex cap: a read depends on no
budget, so it cannot fail in one process and succeed in another.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from . import limits
from .errors import InvalidInputError
from .graph6 import parse_graph6_many
from .graphs import Graph


@cache
def _load(filename: str) -> tuple[Graph, ...]:
    text = (resources.files("symbreak") / "data" / filename).read_text()
    with limits.scoped(max_vertices=7):  # the corpus's largest order
        return tuple(parse_graph6_many(text))


def connected_graphs(max_n: int, min_n: int = 1) -> tuple[Graph, ...]:
    """All connected graphs with min_n <= |V| <= max_n, one per class."""
    if not 1 <= min_n <= max_n <= 7:
        raise InvalidInputError("corpus covers orders 1..7 only")
    pool = _load("connected_n_le6.g6")
    if max_n == 7:
        pool = pool + _load("connected_7.g6")
    return tuple(g for g in pool if min_n <= g.n <= max_n)
