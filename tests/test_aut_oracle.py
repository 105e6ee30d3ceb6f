"""Automorphism search against an independent oracle: networkx VF2.

VF2 shares no code with the kernels (no refinement, no search order, no
stabilizer chain), so agreement on the order, the sorted element list and
the largest non-identity cycle count is evidence for the chain and for the
group answers read from it.  The kernel returns the chain, and the
group built on it gives the elements and, by a streamed scan, the largest
cycle count, which a wrongly composed stream can still get right, so the
stream is also checked element by element.

The group-order rules of ``verify`` (thm4.2, eq3) take the brute-force
|Aut| of each product as the chain's order, so the products of their
default grids are checked too: by VF2's count where the group is small,
and otherwise by streaming the chain's products, which must be order
distinct automorphisms.
"""

from __future__ import annotations

import random

import pytest

from symbreak import kernels, products, verify
from symbreak.errors import BudgetExceededError
from symbreak.graphs import build_graph, path
from symbreak.perms import AutGroup, _product_blocks, is_automorphism

from conftest import SYMMETRIC_SHAPES

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def _vf2_maps(g):
    """VF2's self-isomorphisms of g, as vertex dicts."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return GraphMatcher(G, G).isomorphisms_iter()


def _vf2(g) -> tuple[int, int, list[tuple[int, ...]]]:
    """(order, max_cycles, sorted elements) from VF2 self-isomorphisms."""
    elements = sorted(tuple(m[v] for v in range(g.n)) for m in _vf2_maps(g))
    max_cycles = 0
    for e in elements:
        if list(e) == list(range(g.n)):
            continue
        seen, cycles = set(), 0
        for v in range(g.n):
            if v not in seen:
                cycles += 1
                while v not in seen:
                    seen.add(v)
                    v = e[v]
        max_cycles = max(max_cycles, cycles)
    return len(elements), max_cycles, elements


def _assert_matches_oracle(g) -> None:
    order, max_cycles, elements = _vf2(g)
    adj = g.adjacency()
    found, chain = kernels.search_automorphisms(g.n, adj, 10**7)
    assert found == order
    group = AutGroup(g.n, adj, found, chain)
    assert list(group.elements) == elements
    assert group.max_cycles == max_cycles
    # the stream behind max_cycles and minimal_cycles, walked through
    # every level
    streamed = [e for block in _product_blocks(g.n, chain, 1)
                for e in block]
    assert sorted(streamed) == elements
    # exact cap boundary
    assert kernels.search_automorphisms(g.n, adj, order)[0] == order
    with pytest.raises(BudgetExceededError) as info:
        kernels.search_automorphisms(g.n, adj, order - 1)
    assert str(info.value) == f"automorphism search exceeded cap {order - 1}"


def test_corpus_matches_vf2(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_matches_oracle(g)


# the symmetric benchmark shapes; K8 and Kneser(7,2) take seconds in VF2
SHAPES = {name: make for name, make in SYMMETRIC_SHAPES.items()
          if name not in ("K8", "kneser_7_2")}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_symmetric_shapes_match_vf2_under_relabelling(name):
    g = SHAPES[name]()
    image = list(range(g.n))
    random.Random(name).shuffle(image)
    _assert_matches_oracle(g.relabel(image))


def _counting_search_order(monkeypatch) -> list:
    """Patch the kernel's _search_order to log its calls; the level loop
    runs only after it."""
    calls = []
    order = kernels._search_order
    monkeypatch.setattr(kernels, "_search_order",
                        lambda *args: calls.append(args) or order(*args))
    return calls


def test_discrete_refinement_returns_before_the_level_loop(monkeypatch):
    calls = _counting_search_order(monkeypatch)
    # degrees 1, 3, 3, 2, 2, 1, and refinement tells every vertex apart
    rigid = build_graph(6, [(0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 5)])
    assert kernels.search_automorphisms(6, rigid.adjacency(), 10**7) == (1, ())
    # path 0-1-2-3-4 has the reflection; pinning vertex 0 leaves none
    p5 = path(5).adjacency()
    assert kernels.search_automorphisms(5, p5, 1, (1, 0, 0, 0, 0)) == (1, ())
    assert calls == []
    assert kernels.search_automorphisms(5, p5, 10**7)[0] == 2
    assert len(calls) == 1


def test_frucht_graph_is_rigid_through_the_level_loop(monkeypatch):
    calls = _counting_search_order(monkeypatch)
    frucht = nx.frucht_graph()
    g = build_graph(12, frucht.edges())
    # 3-regular, so refinement leaves one class of 12 vertices
    assert len(set(kernels._refine_colors(12, g.adjacency()))) == 1
    assert kernels.search_automorphisms(12, g.adjacency(), 10**7) == (1, ())
    assert len(calls) == 1
    _assert_matches_oracle(g)


def test_group_order_rule_products_match_their_counts():
    grid_products = (
        [products.rooted_product_smooth(g, h)[0]
         for g, hb in verify._pairs("rooted", {})
         for h in verify._rooted_copies(hb)]
        + [products.corona(g, h)[0] for g, h in verify._pairs("corona", {})])
    assert len(grid_products) == 993
    by_vf2 = 0
    for p in grid_products:
        group = verify._brute_group(p)
        if group.order <= 100:
            assert sum(1 for _ in _vf2_maps(p)) == group.order
            by_vf2 += 1
            continue
        images = [e for block in _product_blocks(p.n, group.chain, 256)
                  for e in block]
        assert len(set(images)) == len(images) == group.order
        assert all(is_automorphism(p, e) for e in images)
    assert by_vf2 == 927
