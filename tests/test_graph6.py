"""graph6 and edge-list codecs: exact bytes, round-trips, error taxonomy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak.errors import (EdgeListError, Graph6ByteRangeError,
                             Graph6Error, Graph6LengthError,
                             Graph6PaddingError)
from symbreak.graph6 import (decode_size, emit_edgelist, emit_graph6,
                             encode_size, parse_edgelist, parse_graph6,
                             parse_graph6_many)
from symbreak.graphs import (build_graph, complete, cycle, empty_graph,
                             family, path, star)

from conftest import random_graph


class TestDecodeKnown:
    def test_k1(self):
        g = parse_graph6("@")
        assert (g.n, g.m) == (1, 0)

    def test_k2(self):
        g = parse_graph6("A_")
        assert (g.n, g.m) == (2, 1) and g.has_edge(0, 1)

    def test_k2_empty(self):
        g = parse_graph6("A?")
        assert (g.n, g.m) == (2, 0)

    def test_star_five_vertices(self):
        # 'D'=5 vertices; data '?{' decodes to x(0,4)=x(1,4)=x(2,4)=x(3,4)=1
        g = parse_graph6("D?{")
        assert (g.n, g.m) == (5, 4)
        assert sorted(g.neighbors(4)) == [0, 1, 2, 3]

    def test_k5(self):
        g = parse_graph6("D~{")
        assert g == complete(5)

    def test_bytes_input(self):
        assert parse_graph6(b"A_") == complete(2)

    def test_whitespace_tolerated(self):
        assert parse_graph6("A_\n") == complete(2)


class TestEncode:
    def test_known_strings(self):
        assert emit_graph6(complete(1)) == "@"
        assert emit_graph6(complete(2)) == "A_"
        assert emit_graph6(complete(5)) == "D~{"
        assert emit_graph6(empty_graph(2)) == "A?"

    def test_builtin_families_round_trip(self):
        graphs = [path(n) for n in range(1, 11)]
        graphs += [cycle(n) for n in range(3, 11)]
        graphs += [complete(n) for n in range(1, 11)]
        graphs += [star(n) for n in range(1, 10)]
        graphs += [family("petersen"), family("kneser", 6, 2),
                   family("complete_bipartite", 3, 4), family("asym6")]
        for g in graphs:
            assert parse_graph6(emit_graph6(g)) == g

    def test_long_form_size(self):
        # n = 63 needs the '~' + 3 byte prefix
        assert encode_size(62) == b"}"
        assert encode_size(63).startswith(b"~")
        assert len(encode_size(63)) == 4
        assert decode_size(encode_size(63)) == (63, 4)
        assert decode_size(encode_size(258047)) == (258047, 4)
        huge = encode_size(258048)
        assert huge.startswith(b"~~") and len(huge) == 8
        assert decode_size(huge) == (258048, 8)


class TestErrorTaxonomy:
    def test_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_bad_byte_low(self):
        with pytest.raises(Graph6ByteRangeError):
            parse_graph6("A\x19")

    def test_bad_byte_high(self):
        with pytest.raises(Graph6ByteRangeError):
            parse_graph6("A\x7f")

    @pytest.mark.parametrize("line", ["A\x80", "Aé", "A٢", "A\udc80"])
    def test_non_ascii_character(self, line):
        with pytest.raises(Graph6ByteRangeError, match="at offset 1 "):
            parse_graph6(line)

    def test_truncated(self):
        with pytest.raises(Graph6LengthError):
            parse_graph6("D?")

    def test_overlong(self):
        with pytest.raises(Graph6LengthError):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        # K2 uses 1 of 6 data bits; '@' + low bit set pads with garbage
        with pytest.raises(Graph6PaddingError):
            parse_graph6("A@")

    def test_truncated_long_size(self):
        with pytest.raises(Graph6LengthError):
            parse_graph6("~B")

    def test_errors_are_structured(self):
        # each failure mode raises inside the Graph6Error family, never
        # bare ValueError/IndexError
        bad = ["", "A\x19", "A\x7f", "D?", "A__", "A@", "~B", "~~A", "\x1b[0m"]
        for text in bad:
            with pytest.raises(Graph6Error):
                parse_graph6(text)

    def test_many_reports_line_numbers(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6_many("A_\nBAD*LINE\n")
        assert "line 2" in str(exc.value)

    def test_many_skips_blank_lines_and_header(self):
        graphs = parse_graph6_many(">>graph6<<A_\n\nBw\n")
        assert [g.n for g in graphs] == [2, 3]


class TestEdgeList:
    def test_parse(self):
        assert parse_edgelist("3 2\n0 1\n1 2") == path(3)

    def test_round_trip(self):
        for g in [path(5), cycle(6), star(4), complete(4)]:
            assert parse_edgelist(emit_edgelist(g)) == g

    def test_comments_and_spacing(self):
        text = "# triangle\n3 3\n0 1\n 1 2 \n0 2\n"
        assert parse_edgelist(text) == complete(3)

    @pytest.mark.parametrize("text", [
        "",                      # no header
        "3\n0 1",                # malformed header
        "2 1\n0 1\n1 0",         # more edges than declared
        "2 2\n0 1",              # fewer edges than declared
        "2 1\n0 2",              # endpoint out of range
        "2 1\n0 x",              # non-integer
        "2 1\n1 1",              # self loop
        "-1 0",                  # negative order
    ])
    def test_errors(self, text):
        with pytest.raises(EdgeListError):
            parse_edgelist(text)

    def test_error_carries_line_number(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edgelist("2 1\n0 x")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("text,line", [
        ("٣ ٢\n0 1\n1 2", 1),       # Arabic-Indic digits in the header
        ("3 ٢\n0 1\n1 2", 1),
        ("1_0 1\n0 1", 1),           # an underscore, which int() takes
        ("+3 1\n0 1", 1),
        ("3 2\n0 1\n1 ٢", 3),       # a non-ASCII endpoint
        ("11 1\n1_0 2", 2),
        ("3 2\n0 1\n²  2", 3),
        ("3 1\n+0 1", 2),
    ])
    def test_integers_are_ascii_digits(self, text, line):
        with pytest.raises(EdgeListError) as exc:
            parse_edgelist(text)
        assert exc.value.line == line


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_round_trip_property(n, rnd):
    if n == 0:
        return
    g = random_graph(rnd, n)
    line = emit_graph6(g)
    assert parse_graph6(line) == g
    assert parse_edgelist(emit_edgelist(g)) == g


def test_corpus_files_byte_stable(connected6):
    """Re-encoding the shipped fixtures reproduces their exact lines."""
    from importlib import resources
    text = (resources.files("symbreak") / "data" /
            "connected_n_le6.g6").read_text()
    lines = [ln for ln in text.splitlines() if ln]
    assert lines == [emit_graph6(g) for g in connected6]
