"""Pure-Python search kernels.

Reference implementation of the four routines the whole library leans on:

  search_automorphisms             Aut(G) from a stabilizer chain
  all_automorphisms_preserve_blocks   backtracking search, streaming a block
                                   check
  count_distinguishing_partitions  count set partitions no automorphism fixes
  exists_distinguishing_partition  early-exit variant of the count

All automorphism searches share one search tree: vertices are mapped in a
static order (_search_order), and a vertex's candidates are the vertices of
its refined color class, not yet used, with the right adjacency to every
vertex mapped before it.  Every leaf is an automorphism.

search_automorphisms walks only part of that tree.  It builds the
pointwise stabilizer chain along the search order (Sims 1970; Seress,
Permutation Group Algorithms, 2003) with one first-leaf search per
candidate image off the identity path, so |Aut| is known, and checked
against the budget, before any element is built; the elements are then
products of transversal elements.  Each first-leaf search stays inside a
distinct subtree that the plain DFS enumerates in full, so the chain never
visits more nodes than the DFS.

count_distinguishing_partitions is memoized on the state that fixes a
subtree's completions (see its docstring), so it visits a subset of the
nodes the plain search visits, usually a small one.
exists_distinguishing_partition stays the plain search.

A compiled twin lives in _kernels.pyx; symbreak.kernels picks whichever is
available.  Its search_automorphisms is still the plain DFS over every
leaf, and its count the plain search over every node.  Both return
identical results bit for bit, the sorted element list included, and raise
on the same automorphism cap; tests compare them.  The coloring budget
counts visited nodes, so a count the pure kernel completes may still
exceed the same budget compiled.

Graphs arrive as per-vertex neighbor bitmasks.  Group elements arrive and
leave as image tuples (element[i] = image of vertex i).  Budgets raise
BudgetExceededError; nothing is ever silently truncated.  No search keeps a
reference cycle alive after it returns or raises: recursive closures drop
their reference to themselves on the way out.
"""

from __future__ import annotations

from operator import add, eq, itemgetter

from .errors import BudgetExceededError

# most products the streaming search multiplies out at once
_STREAM_BLOCK = 256
# most machine words the partition count's memo holds (about 32 MB on a
# 64-bit build); past it the count searches on without storing
_MEMO_WORDS = 1 << 22


def _refine_colors(n: int, adj) -> list[int]:
    """Iterated neighbor-degree refinement; stable colors are preserved by
    every automorphism, so search candidates never leave their color class."""
    colors = [adj[v].bit_count() for v in range(n)]
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
    already-ordered prefix so each new vertex is tightly constrained."""
    size = {c: 0 for c in colors}
    for c in colors:
        size[c] += 1
    order: list[int] = []
    placed = 0
    while len(order) < n:
        adj_mask = 0
        for v in order:
            adj_mask |= adj[v]
        best = min((v for v in range(n) if not placed >> v & 1),
                   key=lambda v: (not adj_mask >> v & 1, size[colors[v]], v))
        order.append(best)
        placed |= 1 << best
    return order


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


def _extend(n: int, adj, order, cls, image, used: int, depth: int):
    """First leaf below one node of the search tree.

    image is fixed on order[:depth] and used is the set of its images.
    Candidates are tried in increasing vertex order, as in the DFS.  Returns
    the first completion to an automorphism as an image tuple, or None when
    there is none.
    """
    if depth == n:
        return tuple(image)
    v = order[depth]
    cand = cls[v] & ~used
    av = adj[v]
    for i in range(depth):
        u = order[i]
        cand &= adj[image[u]] if av >> u & 1 else ~adj[image[u]]
    while cand:
        low = cand & -cand
        cand ^= low
        image[v] = low.bit_length() - 1
        leaf = _extend(n, adj, order, cls, image, used | low, depth + 1)
        if leaf is not None:
            return leaf
    return None


def _stabilizer_chain(n: int, adj, order_cap: int):
    """Transversals of the pointwise stabilizer chain along the search order.

    G_i is the subgroup fixing order[:i] pointwise, so G_0 = Aut(G) and
    G_n = 1.  Levels are walked from i = n-1 down to 0.  At level i every
    candidate image w != order[i] of order[i], with order[:i] fixed, gets one
    first-leaf search; the leaf found, if any, is the representative of the
    coset of G_{i+1} sending order[i] to w.  The transversal T_i (identity
    first) then gives |G_i| = |T_i| * |G_{i+1}| exactly, and the cap is
    checked after every representative, before any element is built.

    Each (i, w) search runs inside the subtree that the plain DFS enters
    when it leaves the identity path at depth i for w, and these subtrees
    are pairwise distinct, so the chain visits no more nodes than the DFS.

    Returns (|Aut|, nontrivial transversals in level order 0..n-1).
    """
    if order_cap < 1:
        raise BudgetExceededError(
            f"automorphism search exceeded cap {order_cap}")
    colors = _refine_colors(n, adj)
    class_mask: dict[int, int] = {}
    for v in range(n):
        class_mask[colors[v]] = class_mask.get(colors[v], 0) | (1 << v)
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
            leaf = _extend(n, adj, order, cls, image, prefix[i] | low, i + 1)
            if leaf is None:
                continue
            reps.append(leaf)
            if len(reps) * size > order_cap:
                raise BudgetExceededError(
                    f"automorphism search exceeded cap {order_cap}")
        image[v] = v
        if len(reps) > 1:
            size *= len(reps)
            chain.append(reps)
    chain.reverse()
    return size, chain


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


def search_automorphisms(n: int, adj, order_cap: int, collect: bool = True):
    """Enumerate Aut(G) for the graph given as neighbor bitmasks.

    Returns (order, max_cycles, elements) where max_cycles is the largest
    cycle count (fixed points included) over non-identity elements, 0 for a
    trivial group, and elements is a lexicographically sorted list of image
    tuples, or None when collect is false.  Raises BudgetExceededError once
    more than order_cap automorphisms exist.

    The order comes from the stabilizer chain alone, so an over-cap group
    fails before a single element is built.  Every element factors uniquely
    as t_0 * t_1 * ... * t_{n-1} (apply the right factor first) with t_i in
    the level-i transversal.  With collect the products are built level by
    level, deepest first; without it the upper levels of the same product
    tree are walked depth-first, so memory stays within _STREAM_BLOCK
    products whatever |Aut| is.
    """
    if n == 0:
        return 1, 0, ([()] if collect else None)
    order, chain = _stabilizer_chain(n, adj, order_cap)
    if not collect:
        best = 0
        for block in _product_blocks(n, chain, _STREAM_BLOCK):
            best = _max_cycles(n, block, best)
            if best == n - 1:
                break
        return order, best, None
    elements = [e for block in _product_blocks(n, chain, order)
                for e in block]
    elements.sort()
    return order, _max_cycles(n, elements), elements


class _BlockSplit(Exception):
    pass


def all_automorphisms_preserve_blocks(n: int, adj, blocks, order_cap: int) -> bool:
    """True iff every automorphism maps each block (given as a block id per
    vertex) onto some block.  Streams the search, storing nothing, and exits
    on the first splitting element."""
    if n == 0:
        return True
    block_masks: dict[int, int] = {}
    for v in range(n):
        block_masks[blocks[v]] = block_masks.get(blocks[v], 0) | (1 << v)
    mask_set = frozenset(block_masks.values())
    colors = _refine_colors(n, adj)
    class_mask: dict[int, int] = {}
    for v in range(n):
        class_mask[colors[v]] = class_mask.get(colors[v], 0) | (1 << v)
    order = _search_order(n, adj, colors)

    image = [-1] * n
    state = {"used": 0, "count": 0}

    def rec(depth: int) -> None:
        if depth == n:
            state["count"] += 1
            if state["count"] > order_cap:
                raise BudgetExceededError(
                    f"automorphism search exceeded cap {order_cap}")
            for bm in mask_set:
                img_mask = 0
                m = bm
                while m:
                    low = m & -m
                    img_mask |= 1 << image[low.bit_length() - 1]
                    m ^= low
                if img_mask not in mask_set:
                    raise _BlockSplit
            return
        v = order[depth]
        cand = class_mask[colors[v]] & ~state["used"]
        av = adj[v]
        for i in range(depth):
            u = order[i]
            cand &= adj[image[u]] if av >> u & 1 else ~adj[image[u]]
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            image[v] = w
            state["used"] |= low
            rec(depth + 1)
            state["used"] &= ~low
        image[v] = -1

    try:
        rec(0)
    except _BlockSplit:
        return False
    finally:
        rec = None  # break the closure's reference to itself
    return True


def _extension_table(n: int, kmax: int) -> list[list[list[int]]]:
    """E[r][b][j]: ways to assign r further vertices to blocks, starting from
    b open blocks and ending with exactly j, never exceeding kmax blocks.
    Exact integers; these overflow 64 bits well inside the vertex cap."""
    E = [[[0] * (kmax + 1) for _ in range(kmax + 2)] for _ in range(n + 1)]
    for b in range(kmax + 1):
        E[0][b][b] = 1
    for r in range(1, n + 1):
        for b in range(kmax, -1, -1):
            row = E[r][b]
            prev_same = E[r - 1][b]
            prev_new = E[r - 1][b + 1] if b + 1 <= kmax else None
            for j in range(b, kmax + 1):
                acc = b * prev_same[j]
                if prev_new is not None:
                    acc += prev_new[j]
                row[j] = acc
    return E


def _prepare_elements(n: int, elements):
    imgs = [list(e) for e in elements]
    invs = []
    for e in imgs:
        inv = [0] * n
        for v in range(n):
            inv[e[v]] = v
        invs.append(inv)
    return imgs, invs


def _kill_table(n: int, elements):
    """Which elements each vertex's block choice can break, as bitmasks.

    Bit i stands for elements[i].  kill[v] holds (w, keep) for w < v, where
    ~keep is the set of elements e with e(v) = w or e(w) = v: each of them
    survives the choice of a block for v only if w is in that block.
    reach[v] holds (u, reads) for u < v, where reads is the union of those
    sets over every pair (x, u) with x >= v: the elements that still read
    the block of u once v - 1 is placed.
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


def count_distinguishing_partitions(n: int, elements, max_blocks: int,
                                    node_budget: int) -> list[int]:
    """A[j] for j = 0..max_blocks: set partitions of {0..n-1} into exactly j
    blocks that no given element preserves.

    elements must be non-identity automorphisms.  Partitions are walked as
    canonical block assignments: vertex 0 opens block 0, and a new block's
    id is always the smallest unused.  The live set of not-yet-violated
    elements, a bitmask, shrinks along each branch; once it empties, the
    whole subtree is closed with the extension table instead of being
    visited.

    The search is memoized.  Below vertex v, with b blocks open and live
    set L, which completions break every live element, and how many blocks
    they end with, depends on the blocks placed so far only through b and
    through which frontier vertices share a block.  The frontier is the
    vertices u < v whose block some element of L still reads at a vertex
    >= v (_kill_table's reach).  Renaming the blocks permutes completions
    and keeps their block counts, so the key is (v, b, L, the frontier's
    block ids renamed by first occurrence), and a key seen before reuses
    its completion vector: A is exactly what the plain search gives.

    The memo holds at most about _MEMO_WORDS machine words; once full, the
    search goes on without storing, which stays exact.  Each
    vertex-to-block assignment visited counts against node_budget, all of
    a vertex's choices at once as the search enters it.  A memo hit visits
    nothing, so the nodes counted are a subset of the plain search's, and
    every count the plain search completes completes here.
    """
    A = [0] * (max_blocks + 1)
    if n == 0:
        return A
    kmax = min(max_blocks, n)
    if kmax == 0:
        return A
    E = _extension_table(n, kmax)
    if not elements:
        for j in range(1, kmax + 1):
            A[j] = E[n][0][j]
        return A
    kill, reach = _kill_table(n, elements)
    color = [0] * n
    memo: dict[tuple, list[int]] = {}
    # words per entry: dict slot, key and frontier tuples, the value list
    # and its integers, and the live mask at about 48 elements a word
    room = _MEMO_WORDS // (24 + n + 4 * kmax + len(elements) // 48)
    nodes = 0

    def rec(v: int, b: int, live: int) -> list[int]:
        nonlocal nodes, room
        front = [color[u] for u, reads in reach[v] if reads & live]
        key = (v, b, live, tuple(map(front.index, front)))
        done = memo.get(key)
        if done is not None:
            return done
        top = b + 1 if b < kmax else kmax
        nodes += top  # the loop below visits every one of them
        if nodes > node_budget:
            raise BudgetExceededError(
                f"coloring search exceeded budget {node_budget}")
        out = [0] * (kmax + 1)
        rest = E[n - v - 1]
        row = kill[v]
        for c in range(top):
            nlive = live
            for w, keep in row:
                if color[w] != c:
                    nlive &= keep
            nb = b + 1 if c == b else b
            if not nlive:
                out = list(map(add, out, rest[nb]))
            elif v + 1 < n:
                color[v] = c
                out = list(map(add, out, rec(v + 1, nb, nlive)))
            # a full assignment with live elements is preserved by them:
            # not distinguishing, contributes nothing
        if room:
            room -= 1
            memo[key] = out
        return out

    try:
        A[:kmax + 1] = rec(0, 0, (1 << len(elements)) - 1)
    finally:
        rec = None  # break the closure's reference to itself
    return A


def exists_distinguishing_partition(n: int, elements, max_blocks: int,
                                    node_budget: int) -> bool:
    """True iff some set partition into at most max_blocks nonempty blocks is
    preserved by none of the given elements."""
    if n == 0:
        return False
    kmax = min(max_blocks, n)
    if kmax == 0:
        return False
    if not elements:
        return True
    imgs, invs = _prepare_elements(n, elements)
    color = [-1] * n
    state = {"nodes": 0}

    def rec(v: int, b: int, live: list[int]) -> bool:
        top = min(b + 1, kmax)
        for c in range(top):
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded budget {node_budget}")
            color[v] = c
            nlive = []
            for e in live:
                w = imgs[e][v]
                if w < v and color[w] != c:
                    continue
                u = invs[e][v]
                if u < v and color[u] != c:
                    continue
                nlive.append(e)
            if not nlive:
                color[v] = -1
                return True
            if v + 1 < n and rec(v + 1, b + 1 if c == b else b, nlive):
                color[v] = -1
                return True
        color[v] = -1
        return False

    try:
        return rec(0, 0, list(range(len(imgs))))
    finally:
        rec = None  # break the closure's reference to itself
