"""Search kernels, the searches the whole library leans on:

  search_automorphisms               |Aut(G)|, or of the automorphisms that
                                     keep an initial vertex coloring, and
                                     the transversals of its stabilizer chain
  all_automorphisms_preserve_blocks  whether the chain's generators map
                                     every block onto a block
  isomorphic                         (rooted) isomorphism of two graphs
  count_distinguishing_labellings    the labelling walk: labellings no
                                     automorphism fixes, with one palette per
                                     vertex class
  _probe                             seeded labellings at k labels, each
                                     certified by a cap-1 automorphism
                                     search: D's rungs before any walk
  exists_distinguishing_partition    whether some labelling at k labels is
                                     fixed by none: D's search
  labelling_polynomial               the labellings no element fixes, at
                                     every k at once, by inclusion-exclusion
                                     over the cycle partitions: the Phi rows
  labelling_ladder                   the labelling walk's counts at
                                     k = 1..K labels, memoized as a ladder
  count_distinguishing_partitions    set partitions no automorphism fixes,
                                     by number of blocks, from the ladder:
                                     phi_brute's oracle route

There is one backtracking search, _extend: the first leaf below a node of
the tree that maps one graph into another.  Vertices are mapped in a
static order (_search_order); a vertex's candidates are the unused target
vertices of its refined color, with the right adjacency to every vertex
mapped before it, so every leaf is an isomorphism.  isomorphic refines
the disjoint union of its two graphs, so colors compare, and runs it once.

The automorphism search maps a graph into itself along the pointwise
stabilizer chain (Sims 1970; Seress, Permutation Group Algorithms, 2003):
one first-leaf search per candidate image off the identity path, so |Aut|
is known, and checked against the budget, without building any element
beyond the transversals.  Each first-leaf search stays inside a distinct
subtree that a DFS over every leaf enumerates in full, so the chain never
visits more.  Group elements, as products of transversal elements, are
built by symbreak.perms, and only where a caller asks for them.
Refinement starts from an optional initial coloring, the search's one
option: a vertex stabilizer gives the pinned vertex a class of its own,
and the twin quotient colors each vertex by its weight.

There is one partition walk, the labelling walk.  It encodes the elements
by _kill_table and keeps the live ones as an int bitmask.  The last few
tables are kept, so consecutive walks on the same elements, such as the
rungs of a D ladder or the K walks of one count, build one.  The walk is
memoized on the state that fixes a subtree's completions (see its
docstring), so it visits a subset of the nodes the plain walk visits,
usually a small one; tests hold it, with the memo off, to plain reference
walks, node for node.  It keeps one set of blocks per vertex class and
weighs each new block by the labels its class has left: at k labels,
class w takes C(k, sizes[w]) (_palettes).  Labellings with at most k
labels are distinguishing exactly when their partitions into equal labels
are, so with one class of size 1 the walk answers for partitions:

  existence   k = max_blocks, stopping at the first labelling.  A vertex
              tries its blocks newest first: the one it would open, then
              the open ones from the last down, as a witness of D needs
              many blocks.  With one class of size 1 it tries the blocks
              the plain existence walk tries, in that order, and charges
              one node per block tried; its memo stores only subtrees with
              no distinguishing completion, so it never charges more nodes
              than the plain walk.  Each rung of D is one walk with its own
              budget, charged on top of the rung's probes (below).
  ladder      N_k for k = 1..K, one walk per rung.  The K walks charge one
              node_budget between them, so the ladder to k < K charges a
              prefix of the ladder to K.  With one class of size 1,
              N_k = sum_j A_j * k!/(k-j)!, and the partition count gives
              A_k by back-substitution.  This mode serves only
              count_distinguishing_partitions, the route of phi_brute, the
              oracle, and is the test reference of labelling_polynomial.

The Phi rows come from labelling_polynomial instead: N_k, the labellings
at k labels that no element keeps, for every k at once.  An element keeps
a labelling iff its cycle partition refines the partition into equal
labels, so inclusion-exclusion over the distinct cycle partitions (atoms)
sums, over each set of atoms, +-1 times the labellings constant on the
blocks of its join: prod C(k, sizes[w]) ** (blocks in class w), singletons
included.  The sum is kept as {join: coefficient}: each atom adds -c at
its join with every entry (p, c), and a coefficient that reaches 0 drops
its entry.  A join is the orbit partition of the group the atoms in it
generate, so there are never more entries than such partitions (Rota's
Moebius inversion, 1964, on the lattice of those joins).  The budget unit
is one node per join, charged an atom at a time before its joins run, on
the same node_budget and with the same text as the walks.  Twin classes
put every partition of a class in the lattice, so the per-index route of a
group with many twins (K_n, Bell(n) partitions) is where it is slowest;
the twin quotient of graph_indices keeps those classes out.

A rung of D is probed before it is walked (_probe): _PROBES labellings at
k labels, each vertex drawing one of its class's C(k, t) labels from
random.Random(_PROBE_SEED), never from hash(), so a rung's probes are the
same in every process.  A probe that a non-identity transversal element of
the group keeps fails at once.  Any other is certified by
search_automorphisms(n, adj, 1, colors), colors pairing the group's start
coloring with the labels: order 1 means no non-identity automorphism keeps
the labelling, and cap 1 stops the search at the first that does.  So a
probe answers a rung only True, and only with a certified witness, and a
rung whose probes all fail is walked.  Budget rule: each probe charges n
nodes against the rung's node_budget before it is drawn, and the walk that
follows charges on top of the probes' nodes, so a spent budget raises the
walk's text, from whichever of the two spends it.  The probes read the
graph and its chain, never the walk's elements, so a rung they answer
needs no minimal-cycle scan.

The four are memoized in bounded per-process caches, keyed on every
input: (n, tuple(elements), classes, sizes, node_budget), with max_blocks
and the probes' nodes for the existence search; the polynomial on (n,
tuple(elements), classes, node_budget), as its terms serve every palette;
and the probes on (n, adj, start colors, chain, classes, sizes, k,
node_budget), where the first three determine the chain.  A probe or a
polynomial that raises stores nothing.  The ladder's holds the rungs
climbed so far: N_1..N_K and the nodes its K walks spent.  A ladder to
K' <= K is a slice of it: a fresh one would charge a prefix of those
nodes, so it could not raise.  A ladder to K' > K climbs on, running walks
K+1..K' from the stored node total and storing each walk as it completes,
so it charges the nodes a fresh ladder to K' charges, answers the same,
and raises at the same walk with the same text.  A ladder is stored once
its first walk completes, and a walk that raises stores nothing.  So the
paper's ladders, least k with Phi_k >= a target and sums of phi_i over
i <= k, expand each polynomial, and run each of phi_brute's walks, once
per process.  Product graphs whose groups act alike pass the same
elements, so the keys hit across graphs, as well as on the rule sweeps
that ask the same copy factor again.  The answer is a pure function of the
key and the rung asked; the budget is part of the key, so a smaller budget
still raises where it did.  The ladder and the partition count return a
fresh list on every call, the polynomial an immutable tuple.

Graphs arrive as per-vertex neighbor bitmasks.  Group elements arrive and
leave as image tuples (element[i] = image of vertex i).  Budgets raise
BudgetExceededError; nothing is ever silently truncated.  No search keeps a
reference cycle alive after it returns or raises: recursive closures drop
their reference to themselves on the way out.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from operator import itemgetter

from .errors import BudgetExceededError

# most machine words the labelling walk's memo holds (about 32 MB on a
# 64-bit build); past it the walk goes on without storing
_MEMO_WORDS = 1 << 22

# seeded probe labellings tried before each rung's existence walk, and
# their seed
_PROBES = 8
_PROBE_SEED = 2109


def backend_name() -> str:
    """The kernel's name, as benchmark reports record it."""
    return "pure"


def _refine_colors(n: int, adj, start=None) -> list[int]:
    """Iterated neighbor-degree refinement, from the degrees or from the
    (color, degree) pairs of an initial coloring start; stable colors are
    preserved by every automorphism that preserves start, so search
    candidates never leave their color class."""
    colors = [adj[v].bit_count() for v in range(n)]
    if start is not None:
        ids: dict[tuple, int] = {}
        colors = [ids.setdefault((c, d), len(ids))
                  for c, d in zip(start, colors)]
    while True:
        table: dict[tuple, int] = {}
        new = []
        for v in range(n):
            nb = []
            mask = adj[v]
            while mask:
                low = mask & -mask
                nb.append(colors[low.bit_length() - 1])
                mask ^= low
            nb.sort()
            sig = (colors[v], tuple(nb))
            new.append(table.setdefault(sig, len(table)))
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _search_order(n: int, adj, colors) -> list[int]:
    """Static vertex order: rare color classes first, staying adjacent to the
    already-ordered prefix so each new vertex is tightly constrained.

    Each step takes the first vertex, by (class size, vertex), among the
    unplaced neighbors of the prefix, or among all unplaced vertices when
    the prefix has none.
    """
    size: dict[int, int] = {}
    for c in colors:
        size[c] = size.get(c, 0) + 1
    ranked = sorted(range(n), key=lambda v: (size[colors[v]], v))
    order: list[int] = []
    placed = 0
    adj_mask = 0  # neighbors of the ordered prefix
    for _ in range(n):
        pool = adj_mask & ~placed or ~placed
        best = next(v for v in ranked if pool >> v & 1)
        order.append(best)
        placed |= 1 << best
        adj_mask |= adj[best]
    return order


def _extend(n: int, adj, dst, order, cls, image, used: int, depth: int):
    """First leaf below one node of the search tree mapping graph adj into
    graph dst; automorphism searches pass adj as dst.

    image is fixed on order[:depth] and used is the set of its images.
    Candidates are tried in increasing vertex order, as in the DFS.  Returns
    the first completion to an isomorphism as an image tuple, or None when
    there is none.
    """
    if depth == n:
        return tuple(image)
    v = order[depth]
    cand = cls[v] & ~used
    av = adj[v]
    for i in range(depth):
        u = order[i]
        cand &= dst[image[u]] if av >> u & 1 else ~dst[image[u]]
    while cand:
        low = cand & -cand
        cand ^= low
        image[v] = low.bit_length() - 1
        leaf = _extend(n, adj, dst, order, cls, image, used | low, depth + 1)
        if leaf is not None:
            return leaf
    return None


def _class_masks(colors) -> dict[int, int]:
    """Color -> bitmask of the vertices with that color."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return masks


def search_automorphisms(n: int, adj, order_cap: int, colors=None):
    """(|Aut|, chain) for the graph given as neighbor bitmasks, or for its
    automorphisms that preserve the vertex coloring colors (one hashable
    value per vertex) when it is given.

    chain holds the nontrivial transversals of the pointwise stabilizer
    chain along the search order, in level order, each a tuple of image
    tuples with the identity first.  G_i is the subgroup fixing order[:i]
    pointwise, so G_0 = Aut(G) and G_n = 1.  Levels are walked from i = n-1
    down to 0.  At level i every candidate image w != order[i] of order[i],
    with order[:i] fixed, gets one first-leaf search; the leaf found, if
    any, is the representative of the coset of G_{i+1} sending order[i] to
    w.  The transversal T_i then gives |G_i| = |T_i| * |G_{i+1}| exactly,
    and the cap is checked after every representative: BudgetExceededError
    is raised exactly when the order exceeds order_cap.

    Each (i, w) search runs inside the subtree that the plain DFS enters
    when it leaves the identity path at depth i for w, and these subtrees
    are pairwise distinct, so the chain visits no more nodes than the DFS.
    Refinement starts from colors, so no leaf maps a vertex to one of
    another color: a vertex stabilizer is the coloring that gives the
    vertex a class of its own, and a weighted quotient's group the one
    that colors each vertex by its weight.
    Every automorphism factors uniquely as t_0 * t_1 * ... (right factor
    applied first) with t_i in the i-th transversal, so the non-identity
    transversal elements generate the group.
    When refinement leaves every vertex a class of its own, the search
    returns (1, ()) at once: no level would have a candidate.
    """
    if order_cap < 1:
        raise BudgetExceededError(
            f"automorphism search exceeded cap {order_cap}")
    colors = _refine_colors(n, adj, colors)
    class_mask = _class_masks(colors)
    if len(class_mask) == n:
        return 1, ()
    cls = [class_mask[c] for c in colors]
    order = _search_order(n, adj, colors)
    ident = tuple(range(n))
    image = list(ident)
    prefix = [0] * (n + 1)
    for i, v in enumerate(order):
        prefix[i + 1] = prefix[i] | 1 << v
    size = 1
    chain = []
    for i in range(n - 1, -1, -1):
        v = order[i]
        cand = cls[v] & ~prefix[i + 1]
        av = adj[v]
        for u in order[:i]:
            cand &= adj[u] if av >> u & 1 else ~adj[u]
        reps = [ident]
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            leaf = _extend(n, adj, adj, order, cls, image, prefix[i] | low,
                           i + 1)
            if leaf is None:
                continue
            reps.append(leaf)
            if len(reps) * size > order_cap:
                raise BudgetExceededError(
                    f"automorphism search exceeded cap {order_cap}")
        image[v] = v
        if len(reps) > 1:
            size *= len(reps)
            chain.append(tuple(reps))
    return size, tuple(reversed(chain))


def isomorphic(n: int, adj, dst, pin) -> bool:
    """True iff graph adj maps onto graph dst, both on n vertices, sending
    u to w when pin = (u, w) is given.  Colors come from refining the two
    graphs' disjoint union, so they mean the same in both."""
    colors = _refine_colors(2 * n, list(adj) + [m << n for m in dst])
    if sorted(colors[:n]) != sorted(colors[n:]):
        return False
    class_mask = _class_masks(colors[n:])
    cls = [class_mask[c] for c in colors[:n]]
    own = colors[:n]
    if pin is not None:
        u, w = pin
        cls[u] &= 1 << w
        own[u] = -1
    order = _search_order(n, adj, own)
    return _extend(n, adj, dst, order, cls, [0] * n, 0, 0) is not None


def all_automorphisms_preserve_blocks(n: int, adj, blocks, order_cap: int) -> bool:
    """True iff every automorphism maps each block (given as a block id per
    vertex) onto some block.  A group does iff its generators do, and a
    permutation does iff v's block determines the block of v's image.  The
    chain is built without the cap, so a splitting generator answers False
    whatever |Aut| is; otherwise |Aut| > order_cap raises."""
    # one integer block id per vertex; bad shapes fail here, before the
    # chain is built
    blocks = [int(b) for b in blocks]
    if len(blocks) != n:
        raise ValueError("need one block id per vertex")
    if n == 0:
        return True
    order, chain = search_automorphisms(n, adj, math.inf)
    for reps in chain:
        for t in reps[1:]:
            image: dict[int, int] = {}
            for v in range(n):
                if image.setdefault(blocks[v], blocks[t[v]]) != blocks[t[v]]:
                    return False
    if order > order_cap:
        raise BudgetExceededError(
            f"automorphism search exceeded cap {order_cap}")
    return True


@lru_cache(maxsize=4)
def _kill_table(n: int, elements: tuple):
    """Which elements each vertex's block choice can break, as bitmasks.

    Bit i stands for elements[i].  kill[v] holds (w, keep) for w < v, where
    ~keep is the set of elements e with e(v) = w or e(w) = v: each of them
    survives the choice of a block for v only if w is in that block.
    reach[v] holds (u, reads) for u < v, where reads is the union of those
    sets over every pair (x, u) with x >= v: the elements that still read
    the block of u once v - 1 is placed.

    Memoized, so the rungs of one D ladder, and a count followed by D on
    the same elements, share one table: callers must only read it.
    """
    size = (len(elements) + 7) >> 3
    bufs: dict[int, bytearray] = {}  # v * n + w -> bits
    for i, e in enumerate(elements):
        byte, bit = i >> 3, 1 << (i & 7)
        for x, y in enumerate(e):
            if x != y:
                pair = x * n + y if y < x else y * n + x
                buf = bufs.get(pair)
                if buf is None:
                    buf = bufs[pair] = bytearray(size)
                buf[byte] |= bit
    masks = [[] for _ in range(n)]
    for pair, buf in bufs.items():
        v, w = divmod(pair, n)
        masks[v].append((w, int.from_bytes(buf, "little")))
    reach = [[] for _ in range(n)]
    later: dict[int, int] = {}
    for v in range(n - 1, 0, -1):
        for w, mask in masks[v]:
            later[w] = later.get(w, 0) | mask
        reach[v] = [(u, reads) for u, reads in later.items() if u < v]
    return [[(w, ~mask) for w, mask in row] for row in masks], reach


def count_distinguishing_labellings(n: int, elements, classes, palettes,
                                    node_budget: int, first: bool = False,
                                    nodes: int = 0) -> tuple[int, int]:
    """(labellings, nodes): the labellings of {0..n-1} that no given element
    preserves, and the nodes charged against node_budget in all, the given
    nodes, spent before this walk, included.  Vertex v takes one of
    palettes[classes[v]] labels, and the given elements, all non-identity,
    map every vertex into its own class.  With first, the walk stops at the
    first such labelling and counts 1, or 0 when there is none.

    An element preserves a labelling iff it preserves the partition into
    equal labels, and no element joins two classes, so the walk keeps one
    set of blocks per class: labels of two classes are never compared.
    Blocks are walked as canonical assignments: a vertex joins an open
    block of its class or opens the class's next one; with first it tries
    the next one before the open ones, and those from the last down.
    Opening the j-th block of class w multiplies the count by
    palettes[w] - j, the labels still unused in w, and a class opens no
    more blocks than it has labels.
    The live set of not-yet-broken elements, a bitmask, shrinks along each
    branch; once it empties, the vertices u > v are labelled freely, in
    prod palettes[classes[u]] ways, without being visited.

    The walk is memoized.  Below vertex v with live set L, a subtree's
    value is the number of labellings of vertices v..n-1 that break every
    element of L.  The frontier is the vertices u < v whose block some
    element of L still reads at a vertex >= v (_kill_table's reach).
    Labels are interchangeable, and blocks no live element reads are labels
    like any unused one, so the value depends on the labels placed so far
    only through which frontier vertices share one.  The key is (v, L, the
    frontier's block ids renamed by first occurrence), and a key seen
    before reuses its value: the count is exactly what the plain walk
    gives.  The frontier's block ids are compared across classes too, which
    only splits keys.

    The memo holds at most about _MEMO_WORDS machine words; once full, the
    walk goes on without storing, which stays exact.  Each block tried for
    a vertex counts against node_budget, as it is tried.  A memo hit visits
    nothing, so the nodes charged are a subset of the plain walk's, and
    every count the plain walk completes completes here.  With first, a
    subtree that finishes has no labelling, so the memo holds only zeros:
    a hit skips a subtree the plain walk searches in vain.
    """
    free = [1] * (n + 1)  # free[v]: labellings of vertices v..n-1
    for v in range(n - 1, -1, -1):
        free[v] = free[v + 1] * palettes[classes[v]]
    if not elements or not free[0]:
        return (min(free[0], 1) if first else free[0]), nodes
    kill, reach = _kill_table(n, tuple(elements))
    color = [0] * n
    opened = [0] * len(palettes)
    memo: dict[tuple, int] = {}
    # words per entry: dict slot, key and frontier tuples, the value, and
    # the live mask at about 48 elements a word
    room = _MEMO_WORDS // (24 + n + len(elements) // 48)

    def rec(v: int, live: int) -> int:
        nonlocal nodes, room
        front = [color[u] for u, reads in reach[v] if reads & live]
        key = (v, live, tuple(map(front.index, front)))
        done = memo.get(key)
        if done is not None:
            return done
        w = classes[v]
        b, labels = opened[w], palettes[w]
        total = 0
        row = kill[v]
        top = b + 1 if b < labels else labels
        for c in range(top - 1, -1, -1) if first else range(top):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded budget {node_budget}")
            nlive = live
            for u, keep in row:
                if color[u] != c:
                    nlive &= keep
            if not nlive:
                ways = free[v + 1]
            elif v + 1 < n:
                color[v] = c
                opened[w] += c == b
                ways = rec(v + 1, nlive)
                opened[w] -= c == b
            else:
                continue  # a full labelling with live elements: preserved
            total += ways * (labels - b if c == b else 1)
            if first and total:
                return 1
        if room:
            room -= 1
            memo[key] = total
        return total

    try:
        total = rec(0, (1 << len(elements)) - 1)
    finally:
        rec = None  # break the closure's reference to itself
    return total, nodes


def _palettes(k: int, sizes) -> tuple[int, ...]:
    """The labels of each class at k labels: C(k, sizes[w]) for class w."""
    return tuple(math.comb(k, t) for t in sizes)


@lru_cache(maxsize=256)
def _exists(n, elements, classes, sizes, k, node_budget, nodes):
    return count_distinguishing_labellings(
        n, elements, classes, _palettes(k, sizes), node_budget, True,
        nodes)[0] > 0


def exists_distinguishing_partition(n, elements, max_blocks, node_budget,
                                    classes=None, sizes=(1,), nodes=0):
    """True iff some set partition of {0..n-1} into at most max_blocks
    nonempty blocks is preserved by none of the given elements; with vertex
    classes, iff some labelling is where class w takes
    C(max_blocks, sizes[w]) labels.  The walk charges node_budget on top of
    the given nodes, those a rung's probes spent."""
    if n == 0 or max_blocks < 1:
        return False
    return _exists(n, tuple(elements), tuple(classes or (0,) * n),
                   tuple(sizes), max_blocks, node_budget, nodes)


@lru_cache(maxsize=256)
def _probe(n: int, adj: tuple, colors, chain, classes: tuple, sizes: tuple,
           k: int, node_budget: int) -> tuple[tuple | None, int]:
    """(witness, nodes): the first of the _PROBES seeded labellings at k
    labels, class w taking C(k, sizes[w]), that no non-identity
    automorphism of graph adj keeping the start coloring colors (None for
    none) keeps, or None; and the nodes charged against node_budget, n per
    probe (see the module docstring).  chain is the group's transversals,
    as search_automorphisms returns them from colors.  The group's elements
    keep colors and map every vertex into its own class, so pairing each
    start color with a label is enough: labels of two classes never meet.
    """
    palettes = _palettes(k, sizes)
    if not all(palettes):
        return None, 0
    rnd = random.Random(_PROBE_SEED).random
    # a float draw is exact below 2**53 labels, and a labelling of n
    # vertices never needs that many
    per_vertex = [min(palettes[w], 1 << 53) for w in classes]
    start = colors or (0,) * n
    getters = [itemgetter(*t) for reps in chain for t in reps[1:]]
    nodes = 0
    for _ in range(_PROBES):
        nodes += n
        if nodes > node_budget:
            raise BudgetExceededError(
                f"coloring search exceeded budget {node_budget}")
        labels = tuple([int(rnd() * p) for p in per_vertex])
        if any(get(labels) == labels for get in getters):
            continue
        try:
            search_automorphisms(n, adj, 1, tuple(zip(start, labels)))
        except BudgetExceededError:
            continue
        return labels, nodes
    return None, nodes


def _cycle_blocks(element) -> tuple[int, ...]:
    """The nontrivial cycles of an image tuple, as sorted vertex bitmasks."""
    seen = 0
    blocks = []
    for start, image in enumerate(element):
        if image == start or seen >> start & 1:
            continue
        block, v = 0, start
        while not block >> v & 1:
            block |= 1 << v
            v = element[v]
        seen |= block
        blocks.append(block)
    return tuple(sorted(blocks))


def _join(p: tuple[int, ...], atom: tuple[int, ...]) -> tuple[int, ...]:
    """The finest partition that both partitions refine, each given by its
    nontrivial blocks as sorted bitmasks: every block of atom takes in
    every block of p it meets."""
    blocks = list(p)
    for b in atom:
        rest = []
        for x in blocks:
            if x & b:
                b |= x
            else:
                rest.append(x)
        rest.append(b)
        blocks = rest
    return tuple(sorted(blocks))


@lru_cache(maxsize=256)
def _polynomial(n, elements, classes, node_budget):
    atoms = list(dict.fromkeys(map(_cycle_blocks, elements)))
    terms: dict[tuple[int, ...], int] = {(): 1}
    nodes = 0
    for atom in atoms:
        nodes += len(terms)
        if nodes > node_budget:
            raise BudgetExceededError(
                f"coloring search exceeded budget {node_budget}")
        joined = dict(terms)
        for p, c in terms.items():
            q = _join(p, atom)
            c = joined.get(q, 0) - c
            if c:
                joined[q] = c
            else:
                del joined[q]
        terms = joined
    members = [classes.count(w) for w in range(max(classes, default=-1) + 1)]
    poly: dict[tuple[int, ...], int] = {}
    for p, c in terms.items():
        counts = list(members)
        for b in p:
            counts[classes[(b & -b).bit_length() - 1]] -= b.bit_count() - 1
        counts = tuple(counts)
        poly[counts] = poly.get(counts, 0) + c
    return tuple(sorted((counts, c) for counts, c in poly.items() if c))


def labelling_polynomial(n: int, elements, classes, node_budget: int
                         ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The labellings of {0..n-1} that no given element keeps, as a
    polynomial in the labels of each vertex class: terms (b, c), b holding
    a block count per class, such that with x[w] labels for class w the
    count is sum c * prod x[w] ** b[w] (labellings_at).  The elements map
    every vertex into its own class.  The sum runs over the joins of the
    elements' distinct cycle partitions by inclusion-exclusion, one node
    of node_budget per join (see the module docstring); a spent budget
    raises BudgetExceededError, and nothing is truncated."""
    return _polynomial(n, tuple(elements), tuple(classes), node_budget)


def labellings_at(terms, palettes) -> int:
    """The count labelling_polynomial's terms give with palettes[w] labels
    for class w."""
    return sum(c * math.prod(x ** b for x, b in zip(palettes, blocks))
               for blocks, c in terms)


class _Ladder:
    """One ladder's rungs so far: N[k - 1] for k = 1..K, and the nodes its
    K walks spent against the key's node_budget.  It is stored only once
    its first walk completes."""

    __slots__ = ("key", "N", "nodes")

    def __init__(self, *key):
        self.key, self.N, self.nodes = key, [], 0
        self.climb(1)

    def climb(self, K: int) -> None:
        """Extend to rung K, one labelling walk per missing rung k, each
        charging on top of the nodes the walks below it spent.  A walk
        appends its rung only once it completes, so a walk that raises
        leaves the ladder as it was."""
        n, elements, classes, sizes, node_budget = self.key
        for k in range(len(self.N) + 1, K + 1):
            labellings, self.nodes = count_distinguishing_labellings(
                n, elements, classes, _palettes(k, sizes), node_budget,
                False, self.nodes)
            self.N.append(labellings)


_count = lru_cache(maxsize=256)(_Ladder)


def labelling_ladder(n: int, elements, classes, sizes, K: int,
                     node_budget: int) -> list[int]:
    """N_k for k = 1..K: count_distinguishing_labellings with
    C(k, sizes[w]) labels for class w, from the input's ladder climbed
    to K."""
    if K < 1:
        return []
    ladder = _count(n, tuple(elements), tuple(classes), tuple(sizes),
                    node_budget)
    ladder.climb(K)
    return ladder.N[:K]


def count_distinguishing_partitions(n: int, elements, max_blocks: int,
                                    node_budget: int) -> list[int]:
    """A[j] for j = 0..max_blocks: set partitions of {0..n-1} into exactly j
    blocks that no given element, each a non-identity automorphism,
    preserves.  A j-block partition takes k!/(k-j)! labellings with at
    most k labels, so the one-class ladder to K = min(max_blocks, n) gives
    A_k = (N_k - sum_{j<k} A_j * k!/(k-j)!) / k!; rungs past n are 0."""
    A = [0]
    for k, labellings in enumerate(labelling_ladder(
            n, elements, (0,) * n, (1,), min(max_blocks, n), node_budget), 1):
        A.append((labellings - sum(A[j] * math.perm(k, j)
                                   for j in range(1, k))) // math.factorial(k))
    return (A + [0] * max_blocks)[:max_blocks + 1]
