"""Symmetry-breaking indices.

A coloring c breaks an automorphism a when c(a(v)) != c(v) for some v; it is
distinguishing (for a group) when it breaks every non-identity element.
This module computes:

  distinguishing_number     D: least palette size admitting a distinguishing
                            coloring
  distinguishing_threshold  theta: least k such that *every* k-coloring is
                            distinguishing, computed as 1 + the largest
                            nonidentity cycle count (fixed points included),
                            AutGroup.max_cycles
  phi / phi_table           Phi_k and varphi_k: numbers of non-equivalent
                            distinguishing colorings with at most / exactly k
                            colors, where colorings are equivalent when one is
                            the other composed with an automorphism
  least_k                   least k with w(k) * Phi_k >= a target, the form
                            of the paper's D rules for products

Whether a coloring is distinguishing depends only on its color-class
partition, and the group acts freely on distinguishing colorings, so all
counts come from A_j = number of j-block set partitions preserved by no
non-identity automorphism:

  Phi_k * |Aut| = sum_j A_j * k(k-1)...(k-j+1),     varphi_k * |Aut| = A_k * k!

An automorphism preserves a partition iff every one of its cycles lies in a
single block, that is, iff its cycle partition refines the partition.  So a
partition is preserved by no non-identity element iff it is refined by none
of the refinement-minimal non-identity cycle partitions, and the searches
behind D and phi_table run against one representative of each
(AutGroup.minimal_cycles: 28 transpositions instead of 40,319 elements for
K8).  The searches close a subtree once no element is live, which with the
smaller set happens no later, so A_j is unchanged and only node counts fall.
That set is read from the group's stabilizer chain by one stream of its
products (the minimal-cycle scan), so these routes build no element list.

One ladder, _ladder, gives D, theta and the Phi rows from the group its
walks read (walked), a class for each walked vertex and a size for each
class: at k colors a class of size t takes C(k, t) labels.  The per-index
functions (distinguishing_number, phi_table, phi, least_k,
rooted_indices), and through them verify and the formulas, pass the group
itself with one class of size 1; graph_indices passes the twin quotient
(below).  theta is read first, in one statement: n when the graph has
twins, that is when its order exceeds walked's, and otherwise
walked.max_cycles + 1, from the chain's levels, deepest first, each
skipped or stopped at a conjugacy bound (perms.AutGroup.max_cycles: 2,879
of Kneser(10,2)'s 3,628,800 elements), with no scan.  Every row of a
table comes from N_k, the labellings at k labels that no element of
walked keeps, evaluated once per k from one labelling polynomial over
walked's minimal cycles (kernels.labelling_polynomial: inclusion-exclusion
over their cycle partitions, one node of the coloring budget per join);
with one class of size 1, N_k is the sum above.  Then
Phi_k = (N_k - N_0) / |walked| and
varphi_k = sum_{i=0..k} (-1)^(k-i) C(k, i) N_i / |walked|, at every k,
theta and past n included: N_0 is 0 unless the graph has no vertices, where
it is 1 and keeps every row 0.  At and above theta every surjective
k-coloring is distinguishing and the group acts freely, so
varphi_k = k! S(n, k) / |Aut|, which is 0 past n; tests/test_indices.py
holds the rows to that identity.  A table reads D from the same
polynomial, with no probe and no walk: the least k < theta with N_k > 0,
or theta when there is none, so its coloring budget pays only the joins.
Without a table D is the first rung that answers (_rungs, which
distinguishing_number climbs too, with no rows and no theta), and
witnesses come before walks: each rung first tries a few seeded probe
labellings, each certified by an automorphism search of walked's graph
that keeps walked's start coloring (the pin or the weights) and the
labels, at cap 1 (kernels._probe).  Only a rung whose probes all fail
runs the existence walk (kernels.exists_distinguishing_partition) over
the same classes, sizes and minimal cycles, and a probe answers only with
a certified witness, so D is the walk's (symbreak.kernels says how probes
and walks run, charge their budget and are memoized).  When most
colorings distinguish, which is the usual case once every automorphism
moves many vertices (Russell & Sundaram, EJC 5, 1998), one of the first
few probes answers.  The minimal-cycle scan runs only where a walk needs
its elements: for the polynomial, or for a rung no probe answers; so
analyze without --phi-max, distinguishing_number and rooted_indices scan
nothing on a rung a probe answers.  Without twins
the rungs start at the largest transposition class: if (a b) and (b c)
are automorphisms, so is (a c), so transpositions join the vertices
into cliques, a distinguishing coloring is injective on each, and every
rung below the largest is empty.
A transposition of walked is a swap of two twins of its graph that share
a start color, so the start is read from those twin classes, with no scan
and no stream (_transposition_class).  With twins they start at
max(2, t) for the largest class size t, as C(k, t) = 0 for k < t; the
transposition start does not hold there: K_{2,2,2,2,2} has D = 4, as
C(4, 2) = 6 >= 5 classes, but its quotient K5 has transposition class 5.

least_k reads a table one row longer per rung; the polynomial serves
every k and the root stabilizer is cached (perms.stabilizer), so a rung
adds no count.  phi_brute stays on the search route for any k and passes
every non-identity element to the partition count, which walks them
(kernels.count_distinguishing_partitions), on purpose: it shares neither
the minimal cycles nor the polynomial and serves as the oracle for both
in the verification harness.  It is, with is_distinguishing and
are_equivalent, one of the readers of the group's element list, its
sorted image tuples (AutGroup.elements).  The count itself is checked
against a plain enumeration of set partitions in
tests/test_partition_oracle.py, and the polynomial against the walk in
tests/test_labelling_polynomial.py.

graph_indices, behind analyze, table and product, reads the twin quotient
(twin_quotient); a graph without twins is its own, with one class of
size 1.  Twin classes are blocks of Aut(G), so
Aut(G) = prod Sym(T_x) x| Aut_w(G'), where G' has one vertex per class,
weighted (kind, t_x), and Aut_w(G') keeps every weight.  A coloring is
distinguishing iff it is injective on every class and the labelling that
gives class x its set of t_x colors is distinguishing for Aut_w(G'), so
class x takes one of C(k, t_x) labels (Hemminger's X-join with H = K_t or
its complement), and _ladder walks G' with one class per weight.  With
twins, theta = n with no scan: a transposition of two twins has n - 1
cycles, and no non-identity permutation has more.  G's own chain is never
built:
|Aut(G)| = P * |Aut_w(G')| with P = prod t_x!, so the quotient is searched
with cap (budget // P), which it exceeds exactly when |Aut(G)| exceeds the
budget (the error names the budget), and it is searched even when P alone
does, at cap 0, where the kernel raises before refining.  The orbits of
Aut(G) are the unions of the twin classes over each orbit of Aut_w(G'),
since every weight-keeping automorphism of G' lifts to one of G.  The
per-index functions, which never read the quotient, are its oracle in
tests/test_twins.py.

A vertex u is steady when every automorphism of G - u maps N(u) onto
itself.  When no group on G - u can exceed the automorphism budget,
(n - 1)! <= budget, is_steady answers from the cheapest evidence first: a
pair of twins of G - u on both sides of N(u), read from G's own bitmasks
(False); N(u) a union of G - u's degree classes (True); N(u) a union of
its refined color cells (True); and last the chain search of Aut(G - u),
which stops at the first coset representative that moves N(u) (False).
Past that bound the chain is built in full first, so the budget decides
before any answer does; is_steady's docstring has the details.
graph_indices asks is_steady once per orbit of Aut(G), about the smallest
vertex: steadiness is an orbit invariant, since an automorphism taking u
to u' restricts to an isomorphism G - u -> G - u' that carries N(u) onto
N(u').  So is |Aut(G - u)|, which keeps the budget decision the same as
asking about every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from . import kernels, limits
from .errors import BudgetExceededError, InvalidInputError, PreconditionError
from .graphs import Graph, RootedGraph
from .perms import (AutGroup, automorphism_group, colored_group, orbits,
                    stabilizer)


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
    for img in group.nonidentity_images():
        if all(cols[img[v]] == cols[v] for v in range(g.n)):
            return False
    return True


def are_equivalent(g: Graph, group: AutGroup, c1: Coloring, c2: Coloring) -> bool:
    """True iff c1 = c2 composed with some group element."""
    if c1.n != g.n or c2.n != g.n or group.n != g.n:
        raise InvalidInputError("coloring/group size mismatch")
    a, b = c1.colors, c2.colors
    for img in group.elements:
        if all(a[v] == b[img[v]] for v in range(g.n)):
            return True
    return False


# -- core counts ---------------------------------------------------------------

def _transposition_class(group: AutGroup) -> int:
    """The most vertices that the group's transpositions join into one
    class, read from twins: 1 + the most twins one vertex has.

    If (a b) and (b c) are automorphisms, so is (a b)(b c)(a b) = (a c), so
    the vertices that the group's transpositions join form cliques.  A
    distinguishing coloring is injective on each: two same-colored
    vertices of one would be swapped by a transposition that preserves it.
    A transposition (a b) is an automorphism of the graph exactly when a
    and b are twins, with N(a) = N(b) or N[a] = N[b], and it keeps the
    group's start coloring exactly when a and b share a start color.  So
    the cliques are the classes of twins sharing a start color: a pinned
    vertex is in none, and a quotient's weights keep twins of different
    weights apart.  Neither the group's elements nor its cycles are read.
    """
    false_twins, true_twins = _twins(group.adj, group.colors)
    return max(map(len, chain(false_twins.values(), true_twins.values())),
               default=1)


def distinguishing_number(g: Graph, group: AutGroup | None = None) -> int:
    """Least k such that some k-coloring is distinguishing."""
    if group is None:
        group = automorphism_group(g)
    return _rungs(group.n, group.order, group, (0,) * group.n, (1,))


def distinguishing_threshold(g: Graph, group: AutGroup | None = None) -> int:
    """Least k such that every k-coloring is distinguishing."""
    if group is None:
        group = automorphism_group(g)
    return group.max_cycles + 1


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


def phi_brute(g: Graph, k: int, group: AutGroup | None = None) -> PhiPair:
    """(Phi_k, varphi_k) by partition search alone, any k; the oracle route.

    Independent of phi/phi_table: it reads neither the minimal cycles nor
    the labelling polynomial.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    if group is None:
        group = automorphism_group(g)
    A = kernels.count_distinguishing_partitions(
        g.n, group.nonidentity_images(), min(k, g.n), limits.coloring_cap())
    total = sum(A[j] * math.perm(k, j) for j in range(1, min(k, g.n) + 1))
    return PhiPair(_exact_div(total, group.order, "Phi"),
                   _exact_div(A[k] * math.factorial(k), group.order,
                              "varphi") if k <= g.n else 0)


def _rungs(n: int, order: int, walked: AutGroup, classes, sizes) -> int:
    """D of a group of the given order on n vertices, walked as in _ladder:
    1 for the trivial group, n = 0 included, and otherwise the least rung
    whose seeded probes (kernels._probe) find a certified witness, or whose
    existence walk over walked's minimal cycles finds one.  The walk
    charges the coloring budget on top of the probes, and its elements are
    read only where every probe failed."""
    if order == 1:
        return 1
    twins = order > walked.order
    start = max(2, *sizes) if twins else max(2, _transposition_class(walked))
    budget = limits.coloring_cap()
    for k in range(start, n + 1):
        witness, nodes = kernels._probe(walked.n, walked.adj, walked.colors,
                                        walked.chain, classes, sizes, k,
                                        budget)
        if witness is not None or kernels.exists_distinguishing_partition(
                walked.n, walked.minimal_cycles, k, budget, classes, sizes,
                nodes):
            return k
    # n distinct colors always distinguish a simple graph's automorphisms
    raise AssertionError("no distinguishing coloring up to n colors")


def _ladder(n: int, order: int, walked: AutGroup, classes, sizes,
            k_max: int | None) -> tuple[int, int, PhiTable | None]:
    """(D, theta, the table up to k_max or None) of a group of the given
    order on n vertices, whose distinguishing k-colorings come from the
    labellings no element of walked fixes, vertex v taking one of
    C(k, sizes[classes[v]]) labels (see the module docstring); order
    exceeds walked.order exactly when the graph has twins.  theta is n
    with twins and otherwise one more than walked.max_cycles, the chain's
    levels.  A table reads D from its labelling polynomial, the least
    k < theta with N_k > 0, or theta when there is none; without one D
    comes from the rungs."""
    theta = n if order > walked.order else walked.max_cycles + 1
    if not k_max:
        return _rungs(n, order, walked, classes, sizes), theta, None
    terms = kernels.labelling_polynomial(
        walked.n, walked.minimal_cycles, classes, limits.coloring_cap())

    def labellings(k: int) -> int:
        return kernels.labellings_at(terms, kernels._palettes(k, sizes))

    N = [labellings(k) for k in range(k_max + 1)]
    d = next((k for k in range(1, theta)
              if (N[k] if k <= k_max else labellings(k))), theta)
    rows = tuple(
        PhiRow(k, _exact_div(N[k] - N[0], walked.order, "Phi"),
               _exact_div(sum((-1) ** (k - i) * math.comb(k, i) * N[i]
                              for i in range(k + 1)), walked.order, "varphi"))
        for k in range(1, k_max + 1))
    return d, theta, PhiTable(n, order, d, theta, rows)


def phi_table(g: Graph, k_max: int, group: AutGroup | None = None) -> PhiTable:
    """Rows k = 1..k_max of (Phi_k, varphi_k), each from the labelling
    polynomial's N_k (see the module docstring)."""
    if k_max < 1:
        raise InvalidInputError("k_max must be at least 1")
    if group is None:
        group = automorphism_group(g)
    return _ladder(group.n, group.order, group, (0,) * group.n, (1,),
                   k_max)[2]


def phi(g: Graph, k: int, group: AutGroup | None = None) -> PhiPair:
    """(Phi_k, varphi_k) up to automorphism, read from row k of phi_table,
    whose rows come from the one labelling polynomial."""
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    row = phi_table(g, k, group).row(k)
    return PhiPair(row.phi, row.varphi)


def least_k(g: Graph, target: int, group: AutGroup | None = None,
            weight=lambda k: 1) -> int:
    """Least k with weight(k) * Phi_k(g) >= target, Phi_k counted up to
    group (Aut(g) by default): the form of the paper's D rules for
    vertex-sum powers, rooted products, coronas and lexicographic products."""
    if not g.n and target > 0:  # Phi_k = 0 for every k: no rung answers
        raise PreconditionError("no k reaches the target on a graph with no "
                                "vertices")
    if group is None:
        group = automorphism_group(g)
    k = 1
    while weight(k) * phi(g, k, group).phi < target:
        k += 1
    return k


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
    """Indices of g through its twin quotient (see the module docstring).
    Only the quotient's chain is built: |Aut(G)| = prod t_x! * |Aut_w(G')|,
    the quotient search raises exactly when that exceeds the automorphism
    budget, and the orbits behind steady are lifted from the quotient's."""
    if phi_max is not None and phi_max < 1:
        raise InvalidInputError("phi_max must be at least 1")
    twins = twin_quotient(g)
    quotient = twins.group(limits.aut_cap())  # Aut_w(G')
    order = twins.swaps * quotient.order
    kinds = sorted(set(twins.weights))
    d, theta, table = _ladder(
        g.n, order, quotient, tuple(kinds.index(w) for w in twins.weights),
        tuple(t for _, t in kinds), phi_max)
    return IndexReport(
        n=g.n, m=g.m, aut_order=order, d=d, theta=theta, phi=table,
        steady=_steady_vertices(g, twins.orbits(quotient)) if steady else None,
    )


def rooted_indices(h: RootedGraph, phi_max: int | None = None) -> IndexReport:
    """Indices of (H, v): same definitions with Aut(H) replaced by the
    stabilizer of the root, whose chain is searched with the root pinned;
    colorings still cover every vertex of H."""
    if phi_max is not None and phi_max < 1:
        raise InvalidInputError("phi_max must be at least 1")
    stab = stabilizer(automorphism_group(h.graph), h.root)
    d, theta, table = _ladder(stab.n, stab.order, stab, (0,) * stab.n, (1,),
                              phi_max)
    return IndexReport(n=h.graph.n, m=h.graph.m, aut_order=stab.order, d=d,
                       theta=theta, phi=table, root=h.root)


# -- the quotient route ----------------------------------------------------------

class TwinQuotient(NamedTuple):
    """G' of a graph G: one vertex per twin class."""

    classes: tuple[tuple[int, ...], ...]  # members, by least member
    weights: tuple[tuple[int, int], ...]  # (1 for true twins else 0, size)
    adj: tuple[int, ...]                  # neighbor bitmasks of G'

    @property
    def swaps(self) -> int:
        """prod t_x!: the automorphisms of G that fix every class."""
        return math.prod(math.factorial(t) for _, t in self.weights)

    def group(self, order_cap: int) -> AutGroup:
        """Aut_w(G'): the automorphisms of G' that keep every weight.

        |Aut(G)| = swaps * |Aut_w(G')|, so the search runs with cap
        order_cap // swaps, and raises exactly when |Aut(G)| exceeds
        order_cap, with order_cap in the message.  The search runs even
        when swaps alone exceeds order_cap: it then raises at cap 0, before
        any refinement.  It is cached per (adj, cap, weights)
        (perms.colored_group)."""
        try:
            return colored_group(len(self.classes), self.adj,
                                 order_cap // self.swaps, self.weights)
        except BudgetExceededError:
            raise BudgetExceededError(
                f"automorphism search exceeded cap {order_cap}") from None

    def orbits(self, quotient: AutGroup) -> tuple[tuple[int, ...], ...]:
        """The orbits of Aut(G), from quotient = Aut_w(G'): each is the
        union of the twin classes of one orbit of the quotient, sorted.
        Classes are numbered by least member, so these come ordered by
        smallest member, as perms.orbits orders them."""
        return tuple(tuple(sorted(v for x in ob for v in self.classes[x]))
                     for ob in orbits(quotient))


def _twins(adj, colors=None) -> tuple[dict, dict]:
    """(false, true): the twin classes of graph adj, members ascending,
    keyed N(v) and N[v] as bitmasks; with a vertex coloring colors, the
    classes among the vertices of each color, keyed (color, mask).

    u and v are false twins when N(u) = N(v) and true twins when
    N[u] = N[v].  Both are equivalence relations, and no vertex has twins
    of both kinds: a false twin v and a true twin w of u would give
    w in N(u) = N(v) and v in N[w] = N[u], so v would be adjacent to u.
    """
    false_twins: dict = {}
    true_twins: dict = {}
    for v, nbrs in enumerate(adj):
        closed = nbrs | 1 << v
        if colors is not None:
            nbrs, closed = (colors[v], nbrs), (colors[v], closed)
        false_twins.setdefault(nbrs, []).append(v)
        true_twins.setdefault(closed, []).append(v)
    return false_twins, true_twins


def twin_quotient(g: Graph) -> TwinQuotient:
    """The twin quotient of g (see _twins); a graph without twins is its
    own.  A vertex without twins is a class of weight (0, 1).
    """
    adj = g.adjacency()
    false_twins, true_twins = _twins(adj)
    if len(false_twins) == len(true_twins) == g.n:
        return TwinQuotient(tuple((v,) for v in range(g.n)),
                            ((0, 1),) * g.n, adj)
    of = [-1] * g.n
    classes, weights = [], []
    for v in range(g.n):
        if of[v] < 0:
            members = false_twins[adj[v]]
            kind = 0
            if len(members) == 1:
                members = true_twins[adj[v] | 1 << v]
                kind = int(len(members) > 1)
            for u in members:
                of[u] = len(classes)
            classes.append(tuple(members))
            weights.append((kind, len(members)))
    qadj = []
    for x, members in enumerate(classes):
        mask = 0
        for u in g.neighbors(members[0]):
            mask |= 1 << of[u]
        qadj.append(mask & ~(1 << x))
    return TwinQuotient(tuple(classes), tuple(weights), tuple(qadj))


# -- steadiness ------------------------------------------------------------------

def _bitmask_answer(adj, u: int) -> bool | None:
    """is_steady's first two checks, read from G's neighbor bitmasks adj
    with no G - u built: False from a twin witness, True from the degree
    certificate, None when neither answers."""
    bit = 1 << u
    opened, closed, inside = set(), set(), set()
    for a, m in enumerate(adj):
        if m & bit:
            opened.add(m)
            closed.add(m | 1 << a)
            inside.add(m.bit_count() - 1)
    outside = set()
    for b, m in enumerate(adj):
        if not m & bit and b != u:
            # adj[a] ^ m is {u} or {u, a, b} for some a in N(u)
            if m | bit in opened or m | 1 << b | bit in closed:
                return False
            outside.add(m.bit_count())
    return True if inside.isdisjoint(outside) else None


def is_steady(g: Graph, u: int) -> bool:
    """True iff every automorphism of G - u maps the old neighborhood of u
    onto itself (equivalently: deleting u loses no symmetry).

    When (n - 1)! <= the automorphism budget, no group on G - u can exceed
    the budget, and four checks answer, in order:

      1. a twin witness, read from G's bitmasks with no G - u built:
         a in N(u) and b outside N[u] are twins in G - u when
         adj[a] ^ adj[b] is {u} (same open neighborhood there) or
         {u, a, b} (same closed one).  Swapping them is an automorphism of
         G - u that moves N(u): False.
      2. a degree certificate: in G - u a vertex of N(u) has degree
         deg - 1 and any other deg.  When no degree occurs on both sides,
         N(u) is a union of degree classes, which every automorphism
         keeps: True.
      3. a refinement certificate: colors of G - u in which N(u) is a
         union of color cells, each kept by every automorphism (McKay
         1981): True.  Every refinement round's colors are kept, so the
         check follows each round (kernels._refinement_rounds) and stops
         at the first that certifies.  The converse fails, so a
         neighborhood that splits a cell of the stable colors goes on to
         the search.
      4. the chain search of Aut(G - u) from the stable colors
         (kernels._representatives), testing each coset representative,
         with N(u) as a bitmask, as it is found, and answering False at the
         first that moves N(u).  A group maps a set onto itself iff each of
         its generators does, and the representatives generate it, so
         True when none does.

    Otherwise G - u is read from g's bitmasks, with the vertices above u
    shifted down one, and its chain is built in full before any
    representative is tested, so the call raises BudgetExceededError
    exactly when |Aut(G - u)| exceeds the budget, whatever the answer would
    have been; the first three checks and the early exit answer only where
    no search could raise.
    """
    if not 0 <= u < g.n:
        raise InvalidInputError(f"vertex {u} out of range")
    adj = g.adjacency()
    cap = limits.aut_cap()
    bounded = math.factorial(g.n - 1) <= cap
    if bounded:
        answer = _bitmask_answer(adj, u)
        if answer is not None:
            return answer
    low = (1 << u) - 1
    rest = [m & low | m >> (u + 1) << u for m in adj]
    mask = rest.pop(u)
    nbrs = [v - (v > u) for v in g.neighbors(u)]
    if bounded:
        # each round's colors are kept by every automorphism of G - u, so
        # when N(u) is a union of color cells, each maps it onto itself
        for colors in kernels._refinement_rounds(len(rest), rest):
            cells = {c for v, c in enumerate(colors) if mask >> v & 1}
            if all(mask >> v & 1 or c not in cells
                   for v, c in enumerate(colors)):
                return True
        return all(sum(1 << t[v] for v in nbrs) == mask
                   for _, t in kernels._representatives(len(rest), rest,
                                                        colors))
    _, chain = kernels.search_automorphisms(len(rest), rest, cap)
    return all(sum(1 << t[v] for v in nbrs) == mask
               for reps in chain for t in reps[1:])


def _steady_vertices(g: Graph, obs) -> tuple[int, ...]:
    """The steady vertices of g, with one is_steady call per orbit of its
    automorphism group, obs (see the module docstring)."""
    steady: list[int] = []
    for ob in obs:
        if is_steady(g, ob[0]):
            steady.extend(ob)
    return tuple(sorted(steady))
