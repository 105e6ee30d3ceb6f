"""A property test over the command-line grammar.

Whatever argv is drawn from the subcommands, graph specs, graph6 tokens,
grids and budget flags, main answers with a documented exit code: 0, 2 for
bad input or 3 for a spent budget, and never a traceback.  Integers are
also spelled the ways Python's int() takes but the grammar does not:
non-ASCII digits, underscores, superscripts and signs.  The grammar's
integers are ASCII digits after an optional minus sign, so such a spelling
as a builtin parameter, a table range or an integer flag's value, or in a
SYMBREAK_MAX_* variable, is bad input: exit 2.  Graphs and grids stay
small and every case must finish within the deadline.
"""

from __future__ import annotations

import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import corpus, limits, verify
from symbreak.graph6 import emit_graph6

from conftest import _run_cli

_ODD_INTS = ("٢", "1_0", "²", "--1", "+3", "", "x")
_INT_FLAGS = ("--max-aut", "--max-colorings", "--max-vertices", "--phi-max")

_ARITY = {"empty": 1, "path": 1, "cycle": 1, "complete": 1,
          "complete_bipartite": 2, "star": 1, "kneser": 2, "petersen": 0,
          "asym6": 0, "nope": 1}

_G6 = tuple(emit_graph6(g) for g in corpus.connected_graphs(5))


def _mostly(good, bad):
    """good weighted three to one over bad, so most cases get past the
    parser and reach the commands."""
    return st.one_of(good, good, good, bad)


def _int_text(lo: int, hi: int):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(_ODD_INTS))


def _range_text(lo: int, hi: int):
    return st.one_of(
        _int_text(lo, hi),
        st.builds(lambda a, b: f"{a}..{b}", _int_text(lo, hi),
                  _int_text(lo, hi)))


_builtins = st.sampled_from(sorted(_ARITY)).flatmap(
    lambda name: _mostly(
        st.lists(_int_text(0, 6), min_size=_ARITY[name],
                 max_size=_ARITY[name]),
        st.lists(_int_text(0, 6), max_size=3))
    .map(lambda params: ":".join([f"builtin:{name}", *params])))

_specs = _mostly(
    st.one_of(_builtins, st.sampled_from(_G6).map("g6:".__add__)),
    st.one_of(st.text("?@ABo_~}!é\x80٢", max_size=6).map("g6:".__add__),
              st.just("missing.g6")))

_rooted_specs = st.builds(
    str.__add__, _specs,
    st.sampled_from(["@0", "@1", "@2", "@3", ""]
                    + ["@" + odd for odd in _ODD_INTS]))


def _flags(*names: str):
    return st.lists(
        st.tuples(st.sampled_from(names), _int_text(-1, 6)),
        max_size=2).map(lambda pairs: [t for pair in pairs for t in pair])


_budgets = _flags("--max-aut", "--max-colorings", "--max-vertices")
_maybe = st.sampled_from([(), ("--format", "csv"), ("--steady",)])


def _grid(rule: str):
    chosen = verify.RULES.values() if rule == "all" else (
        [verify.RULES[rule]] if rule in verify.RULES else [])
    keys = sorted({key for r in chosen for key in r.keys})
    tokens = st.one_of(
        st.tuples(st.sampled_from(keys + ["zz"]),
                  _range_text(-1, 5)).map("=".join),
        st.sampled_from(["K3", "C5", "P4", "family=K4", "family=x"]))
    # a rule that reads max gets a small one last, so no case runs the
    # default grid
    tail = ([st.integers(2, 6).map("max={}".format)]
            if "max" in keys else [])
    return st.tuples(st.lists(tokens, max_size=3), *tail).map(
        lambda parts: ",".join(parts[0] + list(parts[1:])))


_analyze = st.builds(
    lambda spec, phi, extra, budgets: ["analyze", spec, *phi, *extra,
                                       *budgets],
    _specs, _flags("--phi-max"), _maybe, _budgets)

_product = st.builds(
    lambda kind, factors, emit, budgets: ["product", kind, *factors, *emit,
                                          *budgets],
    st.sampled_from(["vsum", "rooted", "corona", "lex", "join"]),
    _mostly(st.lists(_rooted_specs, min_size=2, max_size=2),
            st.lists(_rooted_specs, min_size=1, max_size=3)),
    st.sampled_from([(), ("--emit", "json"), ("--emit", "json",
                                             "--phi-max", "3")]),
    _budgets)

_verify = st.sampled_from(verify.rule_ids() + ["all", "nope"]).flatmap(
    lambda rule: st.builds(
        lambda grid, budgets: ["verify", rule, "--grid", grid, *budgets],
        _grid(rule), _budgets))

_table = st.builds(
    lambda name, span, phi, extra, budgets: ["table", name, span, *phi,
                                             *extra, *budgets],
    _mostly(st.sampled_from(["path", "cycle", "complete", "star"]),
            st.sampled_from(sorted(_ARITY))),
    _range_text(-2, 7),
    _flags("--phi-max"), _maybe, _budgets)

_convert = st.builds(
    lambda spec, out: ["convert", spec, *out],
    _specs, st.sampled_from([("-",), ("-", "--to", "edgelist"),
                             ("-", "--to", "g6"), ("out.zzz",)]))

_argv = st.one_of(_analyze, _product, _verify, _table, _convert,
                  st.lists(st.sampled_from(
                      ["bogus", "--version", "analyze", "--grid", "-"]),
                      max_size=3))


def _odd(text: str) -> bool:
    return re.fullmatch(r"-?[0-9]+", text) is None


def _odd_integer_slot(argv) -> bool:
    """Whether argv spells an integer outside the grammar where one is
    read: an integer flag's value, a builtin parameter (before any @root
    suffix) or an end of a table range."""
    if any(flag in _INT_FLAGS and _odd(value)
           for flag, value in zip(argv, argv[1:])):
        return True
    if any(_odd(p) for tok in argv if tok.startswith("builtin:")
           for p in tok.partition("@")[0].split(":")[2:]):
        return True
    if argv[:1] == ["table"] and len(argv) > 2:
        lo, dots, hi = argv[2].partition("..")
        return _odd(lo) or bool(dots) and _odd(hi)
    return False


@settings(max_examples=500, derandomize=True,
          deadline=timedelta(seconds=5), database=None)
@given(_argv)
def test_every_argv_exits_with_a_documented_code(argv):
    code, _, err = _run_cli(*argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if _odd_integer_slot(argv):
        assert code == 2, (argv, code, err)


@pytest.mark.parametrize("name", ["SYMBREAK_MAX_VERTICES", "SYMBREAK_MAX_AUT",
                                  "SYMBREAK_MAX_COLORINGS"])
@pytest.mark.parametrize("value", _ODD_INTS + ("١٠٠", " 100"))
def test_odd_env_integer_exits_2(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    monkeypatch.setattr(limits, "_active", None)  # read the environment anew
    code, out, err = _run_cli("analyze", "builtin:complete:5")
    assert (code, out) == (2, "")
    assert err == f"symbreak: {name} must be an integer, got {value!r}\n"
