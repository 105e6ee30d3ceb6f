#!/usr/bin/env python3
"""Regenerate the frozen small-graph corpus under src/symbreak/data/.

Development-time only: requires networkx, which the package itself never
imports.  The corpus is every connected graph on up to 6 vertices (one per
isomorphism class, 143 lines) plus every connected graph on 7 vertices
(853 lines), both in graph6 format, sourced from the networkx atlas.

Each emitted line is cross-checked two ways before it is written:
  - byte-for-byte against networkx's own graph6 encoder, and
  - by parsing it back with networkx's graph6 parser and comparing edge sets,
so the package's encoder is validated against an independent implementation
at generation time.
"""

from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbreak.graph6 import emit_graph6, parse_graph6  # noqa: E402
from symbreak.graphs import build_graph  # noqa: E402

EXPECTED_LE6 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
EXPECTED_7 = 853


def atlas_connected() -> dict[int, list[nx.Graph]]:
    by_n: dict[int, list[nx.Graph]] = {n: [] for n in range(1, 8)}
    for g in nx.graph_atlas_g()[1:]:  # entry 0 is the order-0 placeholder
        n = g.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(g):
            by_n[n].append(g)
    return by_n


def encode_checked(g: nx.Graph) -> str:
    n = g.number_of_nodes()
    assert sorted(g.nodes) == list(range(n)), "atlas graphs are 0..n-1 labeled"
    mine = build_graph(n, list(g.edges))
    line = emit_graph6(mine)

    theirs = nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
    assert line == theirs, f"encoder mismatch: {line!r} vs {theirs!r}"

    back = nx.from_graph6_bytes(line.encode("ascii"))
    assert set(map(frozenset, back.edges)) == set(map(frozenset, g.edges))
    assert parse_graph6(line) == mine
    return line


def corpus_texts() -> dict[str, str]:
    """File name -> text of each corpus file, every line cross-checked."""
    by_n = atlas_connected()

    for n, want in EXPECTED_LE6.items():
        assert len(by_n[n]) == want, (n, len(by_n[n]), want)
    assert len(by_n[7]) == EXPECTED_7, len(by_n[7])

    le6 = [encode_checked(g) for n in range(1, 7) for g in by_n[n]]
    seven = [encode_checked(g) for g in by_n[7]]
    return {"connected_n_le6.g6": "\n".join(le6) + "\n",
            "connected_7.g6": "\n".join(seven) + "\n"}


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "src" / "symbreak" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in corpus_texts().items():
        (out_dir / name).write_text(text)
        print(f"wrote {text.count(chr(10))} graphs to {name}")


if __name__ == "__main__":
    main()
