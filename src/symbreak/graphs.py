"""Finite simple graphs on vertex set {0, ..., n-1}.

Graphs are immutable and hashable; adjacency is stored as one bitmask per
vertex, a Python int of any width, which the search kernels read as is.
Construction goes through build_graph() or the named family constructors;
both enforce the cap from symbreak.limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from . import kernels, limits
from .errors import BudgetExceededError, InvalidInputError


class Graph:
    """Immutable simple graph. Compare and hash by (n, adjacency)."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # internal: callers go through build_graph / families / products
        self.n = n
        self._adj = adj

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self._adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self._adj[u]))

    def degree(self, u: int) -> int:
        return self._adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self._adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for v in _bits(rest):
                out.append((u, u + 1 + v))
        return tuple(out)

    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (what the kernels consume)."""
        return self._adj

    # -- transforms --------------------------------------------------------

    def relabel(self, image: Sequence[int]) -> "Graph":
        """Rename vertex i to image[i]; image must be a permutation of 0..n-1."""
        if sorted(image) != list(range(self.n)):
            raise InvalidInputError("relabel image is not a permutation")
        adj = [0] * self.n
        for u in range(self.n):
            mask = 0
            for v in _bits(self._adj[u]):
                mask |= 1 << image[v]
            adj[image[u]] = mask
        return Graph(self.n, tuple(adj))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self._adj == other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int):
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class RootedGraph:
    """A graph with one marked vertex."""

    graph: Graph
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.graph.n:
            raise InvalidInputError(
                f"root {self.root} out of range for n={self.graph.n}")

    @property
    def n(self) -> int:
        return self.graph.n


def _check_vertex_cap(n: int, what: str = "graph") -> None:
    """Raise when a what of n vertices would exceed the vertex cap."""
    cap = limits.vertex_cap()
    if n > cap:
        raise BudgetExceededError(f"{what} has {n} vertices, cap is {cap}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected.
    The vertex cap is checked before any edge is read."""
    if n < 0:
        raise InvalidInputError(f"vertex count must be nonnegative, got {n}")
    _check_vertex_cap(n)
    adj = [0] * n
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InvalidInputError(f"edge {e!r} is not a pair") from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise InvalidInputError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InvalidInputError(f"loop at vertex {u} not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# -- named families ---------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidInputError("path needs at least one vertex")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("cycle needs at least three vertices")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidInputError("complete graph needs at least one vertex")
    _check_vertex_cap(n)  # combinations holds all of range(n) at once
    return build_graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidInputError("both parts must be nonempty")
    return build_graph(a + b,
                       ((i, a + j) for i in range(a) for j in range(b)))


def star(k: int) -> Graph:
    """K_{1,k}: center 0, leaves 1..k."""
    if k < 1:
        raise InvalidInputError("star needs at least one leaf")
    return build_graph(k + 1, ((0, i) for i in range(1, k + 1)))


def kneser(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of {0..n-1} in lexicographic order,
    adjacent when disjoint."""
    if not 0 < k <= n:
        raise InvalidInputError(f"kneser({n}, {k}) parameters out of range")
    _check_vertex_cap(math.comb(n, k))
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    edges = [(i, j) for i, j in combinations(range(len(subsets)), 2)
             if not subsets[i] & subsets[j]]
    return build_graph(len(subsets), edges)


def petersen() -> Graph:
    return kneser(5, 2)


def asymmetric6() -> Graph:
    """Lexicographically least connected graph on 6 vertices whose only
    automorphism is the identity (the smallest order where one exists)."""
    return build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])


_FAMILIES = {
    "empty": (empty_graph, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "kneser": (kneser, 2),
    "petersen": (petersen, 0),
    "asym6": (asymmetric6, 0),
}


def family(kind: str, *params: int) -> Graph:
    """Dispatch to a named family constructor, e.g. family('cycle', 6)."""
    if kind not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InvalidInputError(f"unknown family {kind!r} (known: {known})")
    ctor, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise InvalidInputError(f"family {kind!r} takes {arity} parameter(s), "
                                f"got {len(params)}")
    return ctor(*params)


# -- vertex deletion, unions, components -------------------------------------

def delete_vertex(g: Graph, u: int) -> Graph:
    """Delete u; remaining vertices shift down to stay contiguous."""
    if not 0 <= u < g.n:
        raise InvalidInputError(f"vertex {u} out of range")
    low = (1 << u) - 1
    adj = []
    for v in range(g.n):
        if v == u:
            continue
        mask = g._adj[v]
        adj.append((mask & low) | ((mask >> (u + 1)) << u))
    return Graph(g.n - 1, tuple(adj))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled order-preservingly."""
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index]
    return build_graph(len(vs), edges)


def disjoint_union(graphs: Sequence[Graph]) -> tuple[Graph, tuple[int, ...]]:
    """Union with contiguous blocks; returns the graph and each block's offset."""
    if not graphs:
        raise InvalidInputError("disjoint union of nothing")
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    _check_vertex_cap(total, "union")
    adj: list[int] = []
    for g, off in zip(graphs, offsets):
        adj.extend(mask << off for mask in g._adj)
    return Graph(total, tuple(adj)), tuple(offsets)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components plus their grouping into isomorphism classes.

    components: vertex tuples, ordered by smallest member.
    classes: tuples of component indices; classes are ordered by component
    size then by the lexicographically smallest relabeled edge list found in
    the class, so repeated runs produce identical output.
    """

    components: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def _component(g: Graph, start: int) -> int:
    """Bitmask of the vertices reachable from start, by breadth-first search."""
    frontier = 1 << start
    comp = 0
    while frontier:
        comp |= frontier
        nxt = 0
        for v in _bits(frontier):
            nxt |= g._adj[v]
        frontier = nxt & ~comp
    return comp


def connected_components(g: Graph) -> ComponentPartition:
    seen = 0
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = _component(g, start)
        seen |= comp
        comps.append(tuple(_bits(comp)))

    subgraphs = [induced_subgraph(g, c) for c in comps]
    buckets: list[tuple[int, ...]] = []
    keys: list[tuple] = []
    for i, sub in enumerate(subgraphs):
        for b, bucket in enumerate(buckets):
            rep = subgraphs[bucket[0]]
            if rep.n == sub.n and rep.m == sub.m and is_isomorphic(rep, sub):
                buckets[b] = bucket + (i,)
                keys[b] = min(keys[b], (sub.n, sub.edges()))
                break
        else:
            buckets.append((i,))
            keys.append((sub.n, sub.edges()))
    order = sorted(range(len(buckets)), key=lambda b: keys[b])
    return ComponentPartition(tuple(comps), tuple(buckets[b] for b in order))


def is_connected(g: Graph) -> bool:
    return g.n == 0 or _component(g, 0) == (1 << g.n) - 1


def is_2connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    return all(is_connected(delete_vertex(g, u)) for u in range(g.n))


# -- isomorphism --------------------------------------------------------------

def is_isomorphic(g: Graph, h: Graph,
                  pin: tuple[int, int] | None = None) -> bool:
    """Exact isomorphism test: one search of the kernel's backtracking
    tree over the jointly refined colors of g and h.

    pin=(u, v) additionally requires the map to send g's vertex u to h's
    vertex v (rooted isomorphism).
    """
    if g.n != h.n or g.m != h.m:
        return False
    if pin is not None and not (0 <= pin[0] < g.n and 0 <= pin[1] < h.n):
        raise InvalidInputError("pin out of range")
    return kernels.isomorphic(g.n, g._adj, h._adj, pin)
