"""Permutations of {0..n-1}, cycle decompositions, automorphism groups.

Composition convention: compose(p, q) applies q first, so
compose(p, q)(v) = p(q(v)).

Automorphism groups are plain element lists (desk scale keeps them small
enough); elements are sorted lexicographically by image tuple, which puts
the identity first since any other automorphism must exceed it at its first
non-fixed point.  The list comes from kernels.search_automorphisms.  The
pure kernel learns |Aut| from a stabilizer chain before it builds any
element, so a group over the automorphism budget fails in about the time
the chain takes, not the time of the budget's worth of elements; the
compiled kernel still enumerates up to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from . import kernels, limits
from .errors import BudgetExceededError, InvalidInputError
from .graphs import Graph


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise InvalidInputError("image is not a permutation of 0..n-1")

    @classmethod
    def _unchecked(cls, image: tuple[int, ...]) -> "Permutation":
        """A Permutation of an image known to be a permutation, such as a
        kernel's automorphism, without the check that sorts it."""
        p = object.__new__(cls)
        object.__setattr__(p, "image", image)
        return p

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def is_identity(self) -> bool:
        return all(self.image[i] == i for i in range(len(self.image)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        if other.n != self.n:
            raise InvalidInputError("cannot compose permutations of different degree")
        return Permutation(tuple(self.image[other.image[v]]
                                 for v in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, w in enumerate(self.image):
            inv[w] = v
        return Permutation(tuple(inv))

    def cycle_decomposition(self) -> "CycleDecomposition":
        return cycle_decomposition(self)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    return p.compose(q)


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles of length >= 2 plus fixed points.

    Each cycle is rotated to start at its smallest member; cycles are sorted
    by first member.  cycle_count counts fixed points as 1-cycles, matching
    the quantity the distinguishing threshold is built from.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]
    fixed_points: tuple[int, ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles) + len(self.fixed_points)

    def to_permutation(self) -> Permutation:
        image = list(range(self.n))
        for cyc in self.cycles:
            for i, v in enumerate(cyc):
                image[v] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(image))


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    seen = set()
    cycles = []
    fixed = []
    for v in range(p.n):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = p.image[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = p.image[w]
        if len(cyc) == 1:
            fixed.append(v)
        else:
            cycles.append(tuple(cyc))
    return CycleDecomposition(p.n, tuple(cycles), tuple(fixed))


class MinimalCycles(NamedTuple):
    """One image per refinement-minimal non-identity cycle partition."""

    images: tuple[tuple[int, ...], ...]
    max_cycle_count: int


@dataclass(frozen=True)
class AutGroup:
    """A full automorphism group as a sorted element tuple, identity first.

    minimal_cycles, computed once per instance, holds one representative
    image for each cycle partition of a non-identity element that no other
    such partition strictly refines, sorted, plus the largest cycle count
    (fixed points included) among them: 0 and no images for the trivial
    group.  An element preserves a coloring iff its cycle partition refines
    the color partition, so these few images decide distinguishability
    exactly as the whole group does; and since a finer partition has more
    cycles, max_cycle_count is also the largest over all non-identity
    elements.
    """

    n: int
    elements: tuple[Permutation, ...]

    @cached_property
    def minimal_cycles(self) -> MinimalCycles:
        return _minimal_cycle_partitions(self.n, self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def nonidentity_images(self) -> tuple[tuple[int, ...], ...]:
        """Image tuples of all non-identity elements (kernel input format)."""
        return tuple(p.image for p in self.elements if not p.is_identity())

    def __iter__(self):
        return iter(self.elements)


def enumerate_automorphisms(g: Graph, max_order: int | None = None) -> AutGroup:
    """All automorphisms of g, lexicographically sorted.

    Raises BudgetExceededError when the group has more than max_order
    elements (default: the process-wide automorphism budget).
    """
    cap = limits.aut_cap() if max_order is None else max_order
    _, _, elements = kernels.search_automorphisms(g.n, g.adjacency(), cap,
                                                  collect=True)
    return AutGroup(g.n, tuple(map(Permutation._unchecked, elements)))


@lru_cache(maxsize=4096)
def _cached_group(g: Graph) -> AutGroup:
    return enumerate_automorphisms(g)


def automorphism_group(g: Graph) -> AutGroup:
    """Cached enumerate_automorphisms under the active budget.

    The cap applies to the result even on a cache hit, so budget behavior
    does not depend on what happened to be computed earlier in the process.
    """
    group = _cached_group(g)
    cap = limits.aut_cap()
    if group.order > cap:
        raise BudgetExceededError(f"automorphism search exceeded cap {cap}")
    return group


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Does p preserve adjacency and non-adjacency of g?"""
    if p.n != g.n:
        return False
    adj = g.adjacency()
    for u in range(g.n):
        mapped = 0
        for v in g.neighbors(u):
            mapped |= 1 << p.image[v]
        if mapped != adj[p.image[u]]:
            return False
    return True


def stabilizer(group: AutGroup, u: int) -> AutGroup:
    """Subgroup of elements fixing vertex u (element order is inherited)."""
    if not 0 <= u < group.n:
        raise InvalidInputError(f"vertex {u} out of range")
    return AutGroup(group.n,
                    tuple(p for p in group.elements if p.image[u] == u))


def orbit(group: AutGroup, u: int) -> tuple[int, ...]:
    if not 0 <= u < group.n:
        raise InvalidInputError(f"vertex {u} out of range")
    return tuple(sorted({p.image[u] for p in group.elements}))


def orbits(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits, each sorted, ordered by smallest member."""
    seen: set[int] = set()
    out = []
    for v in range(group.n):
        if v in seen:
            continue
        ob = orbit(group, v)
        seen.update(ob)
        out.append(ob)
    return tuple(out)


def max_nonidentity_cycle_count(group: AutGroup) -> int:
    """Largest cycle count (fixed points included) over non-identity
    elements; 0 for the trivial group."""
    return group.minimal_cycles.max_cycle_count


def _primes_upto(n: int) -> frozenset[int]:
    return frozenset(p for p in range(2, n + 1)
                     if all(p % d for d in range(2, isqrt(p) + 1)))


def _prime_cycle_labels(image, primes) -> tuple[tuple[int, ...], int] | None:
    """(smallest vertex of each vertex's cycle, cycle count) when every
    non-trivial cycle of image has one common length in primes; None
    otherwise, the identity included."""
    labels = [-1] * len(image)
    length = cycles = 0
    for v in range(len(image)):
        if labels[v] >= 0:
            continue
        cycles += 1
        labels[v] = v
        size = 1
        w = image[v]
        while w != v:
            labels[w] = v
            size += 1
            w = image[w]
        if size > 1 and size != length:
            if length or size not in primes:
                return None
            length = size
    return (tuple(labels), cycles) if length else None


def _minimal_cycle_partitions(n: int, elements) -> MinimalCycles:
    """Keep the cycle partitions that no other non-identity one refines.

    Every non-identity element has a power of prime order, whose cycle
    partition refines its own, so only prime-order elements are candidates.
    They are taken finest first (most cycles): a partition can only be
    strictly refined by one with more cycles, and refinement is transitive,
    so testing each candidate against the partitions already kept suffices.
    A kept element refines a candidate iff it maps every vertex into the
    vertex's own candidate block.
    """
    candidates: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    primes = _primes_upto(n)
    for p in elements:
        found = _prime_cycle_labels(p.image, primes)
        if found is not None and found[0] not in candidates:
            candidates[found[0]] = (found[1], p.image)
    kept = []
    # per kept element: read labels at its moved vertices, and at their images
    tests = []
    for labels, (cycles, image) in sorted(candidates.items(),
                                          key=lambda item: -item[1][0]):
        if any(src(labels) == dst(labels) for src, dst in tests):
            continue
        moved = [v for v in range(len(image)) if image[v] != v]
        tests.append((itemgetter(*moved),
                      itemgetter(*(image[v] for v in moved))))
        kept.append((cycles, image))
    return MinimalCycles(tuple(sorted(image for _, image in kept)),
                         kept[0][0] if kept else 0)
