"""graphs.is_isomorphic against an independent oracle: networkx VF2.

VF2 shares no code with is_isomorphic (no refinement, no search order), so
agreement on corpus pairs, relabellings and random graphs, plain and with a
pinned root, is evidence for both the refinement's rejections and the
backtracking's answers.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

import pytest

from symbreak.graphs import build_graph, is_isomorphic

from conftest import random_graph

nx = pytest.importorskip("networkx")


def _nx(g, root: int | None = None):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    if root is not None:
        G.nodes[root]["root"] = True
    return G


def _same_root(a, b) -> bool:
    return a.get("root", False) == b.get("root", False)


def _oracle(g, h, pin: tuple[int, int] | None = None) -> bool:
    if pin is None:
        return nx.is_isomorphic(_nx(g), _nx(h))
    return nx.is_isomorphic(_nx(g, pin[0]), _nx(h, pin[1]),
                            node_match=_same_root)


def _relabelled(g, rng: random.Random):
    image = list(range(g.n))
    rng.shuffle(image)
    return g.relabel(image), image


def _moved_edge(g, rng: random.Random):
    """g with one edge moved to a non-edge: same n and m, often not
    isomorphic; None when g is complete or empty."""
    edges = list(g.edges())
    missing = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
               if not g.has_edge(u, v)]
    if not edges or not missing:
        return None
    edges.remove(rng.choice(edges))
    return build_graph(g.n, edges + [rng.choice(missing)])


def test_corpus_pairs_with_equal_size_match_vf2(connected7):
    # the corpus holds one graph per isomorphism class; pairs with equal
    # degree sequences are the ones refinement alone may not separate
    classes = defaultdict(list)
    for g in connected7:
        classes[g.n, g.m].append(g)
    rng = random.Random(0)
    hard = easy = 0
    for group in classes.values():
        for g, h in itertools.combinations(group, 2):
            if sorted(g.degrees()) == sorted(h.degrees()):
                assert not _oracle(g, h)
                assert not is_isomorphic(g, h)
                hard += 1
            elif rng.random() < 0.05:
                assert not is_isomorphic(g, h)
                easy += 1
    assert hard == 3125 and easy > 1000


def test_corpus_relabellings_match_vf2(connected7):
    rng = random.Random(1)
    for g in connected7:
        h, _ = _relabelled(g, rng)
        assert is_isomorphic(g, h) and _oracle(g, h)
        moved = _moved_edge(h, rng)
        if moved is not None:
            assert is_isomorphic(g, moved) == _oracle(g, moved)


def test_random_graphs_match_vf2():
    rng = random.Random(2)
    agree = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        h, _ = _relabelled(g, rng)
        for other in (h, _moved_edge(h, rng), random_graph(rng, n)):
            if other is not None and other.m == g.m:
                expected = _oracle(g, other)
                assert is_isomorphic(g, other) == expected
                agree[expected] += 1
    assert min(agree.values()) > 100


def _cubic(n: int, seed: int):
    G = nx.random_regular_graph(3, n, seed=seed)
    return build_graph(n, G.edges())


def test_cubic_pairs_match_vf2():
    # every vertex of a regular graph gets one refinement color, so the
    # backtracking alone decides these
    agree = {True: 0, False: 0}
    rng = random.Random(4)
    for n in (8, 10, 12):
        cubics = [_cubic(n, seed) for seed in range(12)]
        for g, h in itertools.combinations(cubics, 2):
            expected = _oracle(g, h)
            assert is_isomorphic(g, h) == expected
            agree[expected] += 1
        for g in cubics:
            assert is_isomorphic(g, _relabelled(g, rng)[0])
    assert min(agree.values()) > 5


def test_pinned_roots_match_vf2(connected7):
    rng = random.Random(3)
    # the cubic graphs have one refinement class but mostly small groups,
    # so a pin can pass refinement and still fail
    sample = rng.sample(list(connected7), 60) + [
        random_graph(rng, rng.randint(2, 9)) for _ in range(40)] + [
        _cubic(n, n) for n in (8, 10, 12)]
    agree = {True: 0, False: 0}
    for g in sample:
        h, image = _relabelled(g, rng)
        assert is_isomorphic(g, h, pin=(0, image[0]))
        for u, w in itertools.product(range(g.n), repeat=2):
            expected = _oracle(g, h, (u, w))
            assert is_isomorphic(g, h, pin=(u, w)) == expected
            agree[expected] += 1
    assert min(agree.values()) > 500
