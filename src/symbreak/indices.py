"""Symmetry-breaking indices.

A coloring c breaks an automorphism a when c(a(v)) != c(v) for some v; it is
distinguishing (for a group) when it breaks every non-identity element.
This module computes:

  distinguishing_number     D: least palette size admitting a distinguishing
                            coloring
  distinguishing_threshold  theta: least k such that *every* k-coloring is
                            distinguishing, computed as 1 + the largest
                            nonidentity cycle count (fixed points included)
  phi / phi_table           Phi_k and varphi_k: numbers of non-equivalent
                            distinguishing colorings with at most / exactly k
                            colors, where colorings are equivalent when one is
                            the other composed with an automorphism

Whether a coloring is distinguishing depends only on its color-class
partition, and the group acts freely on distinguishing colorings, so all
counts come from A_j = number of j-block set partitions preserved by no
non-identity automorphism:

  Phi_k * |Aut| = sum_j A_j * k(k-1)...(k-j+1),     varphi_k * |Aut| = A_k * k!

An automorphism preserves a partition iff every one of its cycles lies in a
single block, that is, iff its cycle partition refines the partition.  So a
partition is preserved by no non-identity element iff it is refined by none
of the refinement-minimal non-identity cycle partitions, and the searches
behind D, theta and phi_table run against one representative of each
(AutGroup.minimal_cycles: 28 transpositions instead of 40,319 elements for
K8).  The searches close a subtree once no element is live, which with the
smaller set happens no later, so A_j is unchanged and only node counts fall.
The pure kernel's count is also memoized on the state that fixes a
subtree's completions, so it visits each distinct subproblem once rather
than every partial coloring; the existence search behind D stays a plain
search.

phi_table computes A_j by search only below theta and switches to the exact
factorial/Stirling form at and above it (where every surjective coloring is
distinguishing); phi_brute stays on the search route for any k and passes
every non-identity element, on purpose: it shares neither shortcut and
serves as the oracle for both in the verification harness.  The count
itself is checked against a plain enumeration of set partitions in
tests/test_partition_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import kernels, limits
from .errors import InvalidInputError
from .graphs import Graph, RootedGraph, delete_vertex
from .perms import AutGroup, automorphism_group, stabilizer


@dataclass(frozen=True)
class Coloring:
    """Vertex colors 1..palette_size, one per vertex."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if self.palette_size < 1:
            raise InvalidInputError("palette must have at least one color")
        for v, c in enumerate(self.colors):
            if not 1 <= c <= self.palette_size:
                raise InvalidInputError(
                    f"color {c} at vertex {v} outside 1..{self.palette_size}")

    @property
    def n(self) -> int:
        return len(self.colors)


def is_distinguishing(g: Graph, group: AutGroup, coloring: Coloring) -> bool:
    """True iff no non-identity element of group preserves the coloring."""
    if coloring.n != g.n or group.n != g.n:
        raise InvalidInputError("coloring/group size mismatch")
    cols = coloring.colors
    for p in group.elements:
        if p.is_identity():
            continue
        img = p.image
        if all(cols[img[v]] == cols[v] for v in range(g.n)):
            return False
    return True


def are_equivalent(g: Graph, group: AutGroup, c1: Coloring, c2: Coloring) -> bool:
    """True iff c1 = c2 composed with some group element."""
    if c1.n != g.n or c2.n != g.n or group.n != g.n:
        raise InvalidInputError("coloring/group size mismatch")
    a, b = c1.colors, c2.colors
    for p in group.elements:
        img = p.image
        if all(a[v] == b[img[v]] for v in range(g.n)):
            return True
    return False


# -- core counts ---------------------------------------------------------------

def _partition_counts(n: int, nonid, max_blocks: int) -> list[int]:
    return kernels.count_distinguishing_partitions(
        n, nonid, max_blocks, limits.coloring_cap())


def _exists_partition(n: int, nonid, max_blocks: int) -> bool:
    return kernels.exists_distinguishing_partition(
        n, nonid, max_blocks, limits.coloring_cap())


def distinguishing_number(g: Graph, group: AutGroup | None = None) -> int:
    """Least k such that some k-coloring is distinguishing."""
    if group is None:
        group = automorphism_group(g)
    if group.is_trivial():
        return 1
    minimal = group.minimal_cycles.images
    for k in range(2, g.n + 1):
        if _exists_partition(g.n, minimal, k):
            return k
    # n distinct colors always distinguish a simple graph's automorphisms
    raise AssertionError("no distinguishing coloring up to n colors")


def distinguishing_threshold(g: Graph, group: AutGroup | None = None) -> int:
    """Least k such that every k-coloring is distinguishing."""
    if group is not None:
        return group.minimal_cycles.max_cycle_count + 1
    order, max_cycles, _ = kernels.search_automorphisms(
        g.n, g.adjacency(), limits.aut_cap(), collect=False)
    return 1 if order == 1 else max_cycles + 1


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    if n < 0 or k < 0:
        raise InvalidInputError("stirling2 arguments must be nonnegative")
    if k > n:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise AssertionError(f"{what}: {num} not divisible by {den}")
    return num // den


class PhiPair(NamedTuple):
    """(at most k colors, exactly k colors) distinguishing-coloring counts."""

    phi: int
    varphi: int


@dataclass(frozen=True)
class PhiRow:
    k: int
    phi: int      # Phi_k: distinguishing colorings with at most k colors
    varphi: int   # varphi_k: with exactly k colors


@dataclass(frozen=True)
class PhiTable:
    n: int
    aut_order: int
    d: int
    theta: int
    rows: tuple[PhiRow, ...]

    def row(self, k: int) -> PhiRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise InvalidInputError(f"no row for k={k}")


def _phi_from_counts(A, k: int, n: int, order: int) -> PhiPair:
    total = sum(A[j] * math.perm(k, j) for j in range(1, min(k, n) + 1))
    phi_k = _exact_div(total, order, "Phi")
    varphi_k = _exact_div(A[k] * math.factorial(k), order,
                          "varphi") if k <= n else 0
    return PhiPair(phi_k, varphi_k)


def phi_brute(g: Graph, k: int, group: AutGroup | None = None) -> PhiPair:
    """(Phi_k, varphi_k) by partition search alone, any k; the oracle route.

    Independent of phi/phi_table above theta: no Stirling shortcut.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    if group is None:
        group = automorphism_group(g)
    A = _partition_counts(g.n, group.nonidentity_images(), min(k, g.n))
    return _phi_from_counts(A, k, g.n, group.order)


def phi_table(g: Graph, k_max: int, group: AutGroup | None = None) -> PhiTable:
    """Rows k = 1..k_max of (Phi_k, varphi_k), hybrid route.

    Below theta the A_j come from the partition search; at and above theta
    every coloring with exactly k colors is distinguishing and the group acts
    freely, so varphi_k = k! S(n,k) / |Aut| exactly.
    """
    if k_max < 1:
        raise InvalidInputError("k_max must be at least 1")
    if group is None:
        group = automorphism_group(g)
    n, order = g.n, group.order
    theta = distinguishing_threshold(g, group)
    enum_limit = min(k_max, theta - 1, n)
    A = None
    if enum_limit >= 1:
        A = _partition_counts(n, group.minimal_cycles.images, enum_limit)

    varphi = [0] * (k_max + 1)
    for k in range(1, k_max + 1):
        if k > n:
            varphi[k] = 0
        elif k < theta:
            varphi[k] = _exact_div(A[k] * math.factorial(k), order, "varphi")
        else:
            varphi[k] = _exact_div(math.factorial(k) * stirling2(n, k),
                                   order, "varphi")
    rows = []
    d = 0
    for k in range(1, k_max + 1):
        phi_k = sum(math.comb(k, i) * varphi[i]
                    for i in range(1, min(k, n) + 1))
        rows.append(PhiRow(k, phi_k, varphi[k]))
        if d == 0 and varphi[k] > 0:
            d = k
    if d == 0:
        d = distinguishing_number(g, group)
    return PhiTable(n, order, d, theta, tuple(rows))


def phi(g: Graph, k: int, group: AutGroup | None = None) -> PhiPair:
    """(Phi_k, varphi_k) up to automorphism, hybrid route."""
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    row = phi_table(g, k, group).row(k)
    return PhiPair(row.phi, row.varphi)


# -- rooted variants -------------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    """Bundle of indices for one (possibly rooted) graph."""

    n: int
    m: int
    aut_order: int
    d: int
    theta: int
    phi: PhiTable | None = None
    steady: tuple[int, ...] | None = None
    root: int | None = None

    def __post_init__(self):
        if (self.d == 1) != (self.aut_order == 1):
            raise AssertionError("D(G) = 1 exactly for trivial groups")


def graph_indices(g: Graph, phi_max: int | None = None,
                  steady: bool = False) -> IndexReport:
    group = automorphism_group(g)
    table = phi_table(g, phi_max, group) if phi_max else None
    return IndexReport(
        n=g.n, m=g.m, aut_order=group.order,
        d=table.d if table else distinguishing_number(g, group),
        theta=distinguishing_threshold(g, group),
        phi=table,
        steady=tuple(u for u in range(g.n) if is_steady(g, u))
        if steady else None,
    )


def rooted_indices(h: RootedGraph, phi_max: int | None = None) -> IndexReport:
    """Indices of (H, v): same definitions with Aut(H) replaced by the
    stabilizer of the root; colorings still cover every vertex of H."""
    stab = stabilizer(automorphism_group(h.graph), h.root)
    g = h.graph
    table = phi_table(g, phi_max, stab) if phi_max else None
    return IndexReport(
        n=g.n, m=g.m, aut_order=stab.order,
        d=table.d if table else distinguishing_number(g, stab),
        theta=distinguishing_threshold(g, stab),
        phi=table,
        root=h.root,
    )


# -- steadiness ------------------------------------------------------------------

def is_steady(g: Graph, u: int) -> bool:
    """True iff every automorphism of G - u maps the old neighborhood of u
    onto itself (equivalently: deleting u loses no symmetry)."""
    if not 0 <= u < g.n:
        raise InvalidInputError(f"vertex {u} out of range")
    h, shift = delete_vertex(g, u, return_map=True)
    nbrs = frozenset(shift[v] for v in g.neighbors(u))
    for p in automorphism_group(h).elements:
        if frozenset(p.image[x] for x in nbrs) != nbrs:
            return False
    return True

