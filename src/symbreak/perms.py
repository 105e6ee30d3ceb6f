"""Permutations of {0..n-1}, cycle decompositions, automorphism groups.

Composition convention: compose(p, q) applies q first, so
compose(p, q)(v) = p(q(v)).

An automorphism group is its stabilizer chain: the order and the
nontrivial transversals that kernels.search_automorphisms returns.  The
order is known, and checked against the automorphism budget, before any
element beyond the transversals exists, so a group over the budget fails in
about the time the chain takes.  Every answer the indices need is read from
the chain without an element list:

  order, is_trivial   the chain's order
  orbits              union-find over the transversal elements, which
                      generate the group
  stabilizer          the chain of the same graph with the vertex pinned,
                      cached with twin quotients' groups in colored_group,
                      so one rooted graph has one pinned chain
  colors              the start coloring the chain was searched from (the
                      pin, or a quotient's weights), so a probe labelling's
                      certificate searches the same group
  minimal_cycles      one scan of the group's products, streamed from the
                      chain in blocks of at most _STREAM_BLOCK; each
                      candidate is tested only against the kept elements
                      whose first moved vertex it moves
  max_cycles          recorded by that scan when it has run; otherwise the
                      same stream, stopped early at n - 1 cycles

Sorted Permutation elements, identity first, are built only where a caller
reads elements, iterates the group or asks for nonidentity_images: the
brute-force oracles that test elements one at a time and must not share the
chain's shortcuts, namely indices.phi_brute, indices.is_distinguishing,
indices.are_equivalent and the thm3.5 restriction check in verify.  A caller
that only needs the number of elements reads order: the products that
_product_blocks yields, one per choice of one element from each
transversal, are distinct, so there are exactly order of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import eq, itemgetter

from . import kernels, limits
from .errors import BudgetExceededError, InvalidInputError
from .graphs import Graph

# most products a group's streamed scans multiply out at once
_STREAM_BLOCK = 256


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


@dataclass(frozen=True)
class AutGroup:
    """The automorphism group of the graph with neighbor bitmasks adj, as
    its order and the nontrivial transversals of a stabilizer chain (see
    kernels.search_automorphisms), searched from the start coloring colors
    (None for the whole group): the group is the automorphisms that keep
    it.  The properties below are computed once per instance."""

    n: int
    adj: tuple[int, ...]
    order: int
    chain: tuple[tuple[tuple[int, ...], ...], ...]
    colors: tuple | None = None

    def is_trivial(self) -> bool:
        return self.order == 1

    def _products(self):
        return _product_blocks(self.n, self.chain, _STREAM_BLOCK)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted by image tuple, so the identity is first."""
        images = sorted(e for block in self._products() for e in block)
        return tuple(map(Permutation._unchecked, images))

    def nonidentity_images(self) -> tuple[tuple[int, ...], ...]:
        """Image tuples of all non-identity elements (kernel input format)."""
        return tuple(p.image for p in self.elements[1:])

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def minimal_cycles(self) -> tuple[tuple[int, ...], ...]:
        """One image for each cycle partition of a non-identity element that
        no other such partition strictly refines, sorted; the
        lexicographically least element with that partition represents it.

        An element preserves a coloring iff its cycle partition refines the
        color partition, so these few images decide distinguishability
        exactly as the whole group does.  Empty for the trivial group.

        The scan also records max_cycles, unless it is already known.
        """
        kept, most = _minimal_cycle_partitions(self.n, self._products())
        vars(self).setdefault("max_cycles", most)
        return kept

    @cached_property
    def max_cycles(self) -> int:
        """Largest cycle count, fixed points included, over the non-identity
        elements; 0 for the trivial group.  Read minimal_cycles first where
        both are needed: its scan records this value, and this stream is
        then never walked."""
        best = 0
        for block in self._products():
            best = _max_cycles(self.n, block, best)
            if best == self.n - 1:
                break
        return best


def enumerate_automorphisms(g: Graph, max_order: int | None = None) -> AutGroup:
    """The automorphism group of g, as a stabilizer chain.

    Raises BudgetExceededError when the group has more than max_order
    elements (default: the process-wide automorphism budget).
    """
    cap = limits.aut_cap() if max_order is None else max_order
    adj = g.adjacency()
    return AutGroup(g.n, adj, *kernels.search_automorphisms(g.n, adj, cap))


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
    """Subgroup of elements fixing vertex u: the chain of the same graph
    searched again with u pinned, that is, with a coloring that gives u a
    class of its own.  Its order is at most the group's, so the group's
    order is its cap and the search never raises.  Cached in
    colored_group, so every question about one rooted graph reads one
    pinned chain and what that chain has computed."""
    if not 0 <= u < group.n:
        raise InvalidInputError(f"vertex {u} out of range")
    return colored_group(group.n, group.adj, group.order,
                         tuple(v == u for v in range(group.n)))


@lru_cache(maxsize=4096)
def colored_group(n: int, adj: tuple[int, ...], order_cap: int,
                  colors: tuple) -> AutGroup:
    """The automorphisms of graph adj that keep the vertex coloring colors,
    under cap order_cap, searched once per process; a raise stores nothing."""
    return AutGroup(n, adj, *kernels.search_automorphisms(n, adj, order_cap,
                                                          colors), colors)


def orbits(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits, each sorted, ordered by smallest member.

    Two vertices share an orbit iff a chain of generator images joins them;
    union-find over the transversal elements, every root the smallest
    vertex of its set.
    """
    root = list(range(group.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for reps in group.chain:
        for t in reps[1:]:
            for v, w in enumerate(t):
                a, b = find(v), find(w)
                if a != b:
                    root[max(a, b)] = min(a, b)
    out: dict[int, list[int]] = {}
    for v in range(group.n):
        out.setdefault(find(v), []).append(v)
    return tuple(map(tuple, out.values()))


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


def _minimal_cycle_partitions(n: int, blocks
                              ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Keep the cycle partitions that no other non-identity one refines,
    each represented by its lexicographically least element, from the
    group's elements given in blocks; returns them, sorted, and the most
    cycles any non-identity element has (0 when there is none).

    Every non-identity element has a power of prime order, whose cycle
    partition refines its own, so only prime-order elements are candidates.
    They are taken finest first (most cycles): a partition can only be
    strictly refined by one with more cycles, and refinement is transitive,
    so testing each candidate against the partitions already kept suffices.
    A kept element refines a candidate iff it maps every vertex into the
    vertex's own candidate block.  The same power argument makes the most
    cycles of a candidate the most of any non-identity element.

    The kept elements are indexed by their first moved vertex a, with its
    image b.  A kept element can refine a candidate only if a and b share a
    candidate block, and as a != b that block is a non-trivial cycle, so a
    is moved by the candidate.  A candidate therefore runs the full test
    only on the buckets of its own moved vertices, and only where
    labels[a] == labels[b]; every test skipped would have failed, so the
    same elements are kept as when each candidate is tested against every
    kept element.
    """
    candidates: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    primes = _primes_upto(n)
    for block in blocks:
        for image in block:
            found = _prime_cycle_labels(image, primes)
            if found is not None:
                held = candidates.get(found[0])
                if held is None or image < held[1]:
                    candidates[found[0]] = (found[1], image)
    kept = []
    # kept elements by first moved vertex a: (image of a, getters reading
    # labels at the element's moved vertices and at their images)
    index: list[list] = [[] for _ in range(n)]
    for labels, (_, image) in sorted(candidates.items(),
                                     key=lambda item: -item[1][0]):
        moved = [v for v in range(n) if image[v] != v]
        if any(labels[b] == labels[a] and src(labels) == dst(labels)
               for a in moved for b, src, dst in index[a]):
            continue
        index[moved[0]].append((image[moved[0]], itemgetter(*moved),
                                itemgetter(*(image[v] for v in moved))))
        kept.append(image)
    most = max((cycles for cycles, _ in candidates.values()), default=0)
    return tuple(sorted(kept)), most


def _cycle_count(image) -> int:
    """Number of cycles, fixed points included."""
    seen = 0
    cycles = 0
    for v in range(len(image)):
        if seen >> v & 1:
            continue
        cycles += 1
        w = v
        while not seen >> w & 1:
            seen |= 1 << w
            w = image[w]
    return cycles


def _max_cycles(n: int, elements, best: int = 0) -> int:
    """Largest of best and the cycle counts of the non-identity elements.

    An element with f fixed points has at most f + (n - f) // 2 cycles, so
    the exact count is taken only where that bound beats the best so far,
    and the scan stops at n - 1, the most any non-identity element has.
    """
    ident = range(n)
    for e in elements:
        if best == n - 1:
            break
        fixed = sum(map(eq, e, ident))
        if fixed == n or fixed + (n - fixed) // 2 <= best:
            continue
        cycles = _cycle_count(e)
        if cycles > best:
            best = cycles
    return best


def _product_blocks(n: int, chain, block_size: int):
    """Yield every product t_0 * t_1 * ... (right factor applied first),
    one factor from each transversal of chain, in lists.

    The deepest transversals whose product has at most block_size elements
    are multiplied out once, level by level: itemgetter(*e)(t) is t * e.
    The levels above are walked depth-first, and each path prefix p meets
    the whole block as p * s = itemgetter(*s)(p).  Only the block, one
    yielded list and the path are alive at a time.
    """
    split, size = len(chain), 1
    while split and size * len(chain[split - 1]) <= block_size:
        split -= 1
        size *= len(chain[split])
    block = [tuple(range(n))]
    for reps in reversed(chain[split:]):
        getters = [itemgetter(*e) for e in block]
        block = [get(t) for t in reps for get in getters]
    if not split:
        yield block
        return
    levels = [[itemgetter(*t) for t in reps] for reps in chain[:split]]
    yield from _walk_products(levels, 0, tuple(range(n)),
                              [itemgetter(*s) for s in block])


def _walk_products(levels, depth: int, prefix, block):
    if depth == len(levels):
        yield [get(prefix) for get in block]
        return
    for get in levels[depth]:
        yield from _walk_products(levels, depth + 1, get(prefix), block)
