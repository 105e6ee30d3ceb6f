"""Graph operations: vertex-sum, smooth rooted product, corona, lexicographic.

Every constructor returns (graph, layout); the layout records where each
factor vertex landed so tests and callers can trace product vertices back.
Vertex ids are assigned contiguously:

  vertex_sum       0 is the identified root; factor i's other vertices follow
                   in their original order, factor by factor
  rooted product   copy i of H occupies [i*|H|, (i+1)*|H|), its root first,
                   the rest in original order; base edges join the roots
  corona           base vertices keep ids 0..|G|-1, copy i of H follows at
                   |G| + i*|H|; base vertex i is joined to all of copy i
  lexicographic    (x, y) -> x*|H| + y; fibers are the blocks of |H|
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import kernels, limits
from .errors import InvalidInputError, PreconditionError
from .graphs import (Graph, RootedGraph, _check_vertex_cap, build_graph,
                     is_connected)


@dataclass
class ProductLayout:
    """Map from factor coordinates to product vertex ids.

    kind: which operation built this.
    to_product: (factor index, factor vertex) -> product vertex.  For the
      corona, factor vertex 0 means base vertex i itself and y >= 1 means
      vertex y-1 of copy i (position i is the cone over H).
    special: the identified root (vertex_sum), the tuple of root ids
      (rooted product), the tuple of base ids (corona), or None.
    """

    kind: str
    to_product: dict[tuple[int, int], int]
    special: int | tuple[int, ...] | None = None

    def position(self, factor: int, vertex: int) -> int:
        return self.to_product[(factor, vertex)]


def vertex_sum(factors: Sequence[RootedGraph]) -> tuple[Graph, ProductLayout]:
    """Glue the factors together at their roots; the merged root is vertex 0."""
    if len(factors) < 2:
        raise InvalidInputError("vertex-sum needs at least two factors")
    for f in factors:
        if f.graph.n < 2:
            raise InvalidInputError("vertex-sum factors need at least 2 vertices")
        if not is_connected(f.graph):
            raise PreconditionError("vertex-sum factors must be connected")
    n = 1 + sum(f.graph.n - 1 for f in factors)
    _check_vertex_cap(n, "vertex-sum")

    to_product: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    offset = 1
    for i, f in enumerate(factors):
        g, root = f.graph, f.root
        for v in range(g.n):
            if v == root:
                to_product[(i, v)] = 0
            else:
                to_product[(i, v)] = offset + (v if v < root else v - 1)
        for u, v in g.edges():
            edges.append((to_product[(i, u)], to_product[(i, v)]))
        offset += g.n - 1
    return build_graph(n, edges), ProductLayout("vertex_sum", to_product, 0)


def vertex_sum_power(g: Graph, u: int, t: int) -> tuple[Graph, ProductLayout]:
    """Vertex-sum of t copies of g glued at u."""
    if t < 2:
        raise InvalidInputError("vertex-sum power needs t >= 2")
    return vertex_sum([RootedGraph(g, u)] * t)


def rooted_product_smooth(g: Graph,
                          h: RootedGraph) -> tuple[Graph, ProductLayout]:
    """One copy of h per vertex of g, with g's edges drawn between the roots.

    This is the uniform (single-H) rooted product; mixed copy sequences are
    out of scope.
    """
    if g.n < 1:
        raise InvalidInputError("base graph must have at least one vertex")
    hg, root = h.graph, h.root
    if hg.n < 1:
        raise InvalidInputError("copy graph must have at least one vertex")
    if not is_connected(g) or not is_connected(hg):
        raise PreconditionError("rooted product factors must be connected")
    n = g.n * hg.n
    _check_vertex_cap(n, "rooted product")

    pos = [0] * hg.n
    nxt = 1
    for y in range(hg.n):
        if y == root:
            pos[y] = 0
        else:
            pos[y] = nxt
            nxt += 1
    to_product = {(i, y): i * hg.n + pos[y]
                  for i in range(g.n) for y in range(hg.n)}
    edges: list[tuple[int, int]] = []
    for i, j in g.edges():
        edges.append((i * hg.n, j * hg.n))
    for i in range(g.n):
        for u, v in hg.edges():
            edges.append((to_product[(i, u)], to_product[(i, v)]))
    roots = tuple(i * hg.n for i in range(g.n))
    return build_graph(n, edges), ProductLayout("rooted_product", to_product,
                                                roots)


def corona(g: Graph, h: Graph) -> tuple[Graph, ProductLayout]:
    """Base copy of g plus one copy of h per base vertex, joined completely
    to that vertex."""
    if g.n < 1 or h.n < 1:
        raise InvalidInputError("corona factors need at least one vertex")
    n = g.n * (1 + h.n)
    _check_vertex_cap(n, "corona")

    to_product: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = list(g.edges())
    for i in range(g.n):
        start = g.n + i * h.n
        to_product[(i, 0)] = i
        for y in range(h.n):
            to_product[(i, y + 1)] = start + y
        for u, v in h.edges():
            edges.append((start + u, start + v))
        edges.extend((i, start + y) for y in range(h.n))
    return build_graph(n, edges), ProductLayout("corona", to_product,
                                                tuple(range(g.n)))


def lexicographic(g: Graph, h: Graph) -> tuple[Graph, ProductLayout]:
    """(x,y) ~ (x',y') iff x ~ x', or x = x' and y ~ y'."""
    if g.n < 1 or h.n < 1:
        raise InvalidInputError("lexicographic factors need at least one vertex")
    n = g.n * h.n
    _check_vertex_cap(n, "lexicographic product")
    edges: list[tuple[int, int]] = []
    for x, xp in g.edges():
        for y in range(h.n):
            for yp in range(h.n):
                edges.append((x * h.n + y, xp * h.n + yp))
    for x in range(g.n):
        for y, yp in h.edges():
            edges.append((x * h.n + y, x * h.n + yp))
    to_product = {(x, y): x * h.n + y
                  for x in range(g.n) for y in range(h.n)}
    return build_graph(n, edges), ProductLayout("lexicographic", to_product)


def fibers(g: Graph, h: Graph) -> tuple[tuple[int, ...], ...]:
    """Fiber vertex sets of the lexicographic product, in base-vertex order."""
    return tuple(tuple(range(x * h.n, (x + 1) * h.n)) for x in range(g.n))


def all_automorphisms_natural(g: Graph, h: Graph) -> bool:
    """True iff every automorphism of the lexicographic product maps each
    fiber onto a fiber.  Decided from the generators of the product's
    stabilizer chain: False as soon as one splits a fiber, whatever the
    group's order; otherwise True, unless |Aut| exceeds the automorphism
    cap, which raises BudgetExceededError.  Answered once per process for
    each pair and each vertex and automorphism cap (_natural)."""
    return _natural(g, h, limits.vertex_cap(), limits.aut_cap())


@lru_cache(maxsize=1024)
def _natural(g: Graph, h: Graph, max_vertices: int, max_aut: int) -> bool:
    """all_automorphisms_natural under the vertex cap max_vertices, which
    builds the product, and the automorphism cap max_aut; a raise stores
    nothing."""
    product, _ = lexicographic(g, h)
    blocks = [v // h.n for v in range(product.n)]
    return kernels.all_automorphisms_preserve_blocks(
        product.n, product.adjacency(), blocks, max_aut)
