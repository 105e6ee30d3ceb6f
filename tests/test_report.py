"""Report envelope serialization: schema, digest, CSV.

The JSON writer is held to ``json`` itself: every text it prints must be
``json.dumps(..., indent=2, sort_keys=True)`` of the envelope's body, and
every digest ``hashlib.sha256`` of the compact sorted-key dump."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symbreak
from symbreak.errors import InvalidInputError
from symbreak.graphs import cycle, path, petersen
from symbreak.indices import IndexReport, PhiRow, PhiTable, graph_indices
from symbreak.report import (GraphDocument, GraphRecord, ReportEnvelope,
                             emit_report, graph_record, skip_record)
from symbreak.verify import TheoremVerdict


def _doc(name="c4"):
    return GraphDocument(name, cycle(4), "builtin")


def _record():
    return graph_record(_doc(), graph_indices(cycle(4), phi_max=3))


def _verdict(status="agree", agree=True):
    return TheoremVerdict("eq1", "path:3,k=2", 2, 2, True, agree, status)


def _digest(env: ReportEnvelope) -> str:
    return json.loads(emit_report(env, "json"))["digest"]


class TestDocuments:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GraphDocument("", cycle(4), "builtin")
        with pytest.raises(InvalidInputError):
            GraphDocument("x", cycle(4), "carrier-pigeon")

    def test_record_exactly_one_of_report_skip(self):
        with pytest.raises(InvalidInputError):
            GraphRecord("x", "builtin", "Cl")
        with pytest.raises(InvalidInputError):
            GraphRecord("x", "builtin", "Cl",
                        report=graph_indices(cycle(4)), skipped="why")
        assert skip_record(_doc(), "too big").skipped == "too big"


class TestEnvelope:
    def test_summary_counts(self):
        env = ReportEnvelope(
            "0.1.0", "symbreak test",
            graphs=(_record(), skip_record(_doc("other"), "budget")),
            verdicts=(_verdict(), _verdict("disagree", False),
                      TheoremVerdict("eq1", "x", None, None, True, None,
                                     "skipped", ("budget",))))
        s = env.summary()
        assert s["graphs"] == 2 and s["verdicts"] == 3
        assert s["agree"] == 1 and s["disagree"] == 1
        # graph skips and verdict skips pool in one counter
        assert s["skipped"] == 2

    def test_empty_skip_reason_counts_as_a_skip(self):
        # a skip record is one with a reason, even an empty one: the
        # summary, the JSON body and the CSV rows count the same skips
        env = ReportEnvelope("0.1.0", "cmd",
                             graphs=(_record(), skip_record(_doc("a"), ""),
                                     skip_record(_doc("b"), "budget")))
        assert env.summary()["skipped"] == 2
        doc = json.loads(emit_report(env, "json"))
        assert [g["skipped"] for g in doc["graphs"]] == [None, "", "budget"]
        assert doc["summary"]["skipped"] == 2
        rows = list(csv.DictReader(io.StringIO(emit_report(env, "csv"))))
        assert [row["n"] == "" for row in rows] == [False, True, True]
        assert [row["skipped"] for row in rows] == ["", "", "budget"]

    def test_digest_excludes_timestamp(self):
        a = ReportEnvelope("0.1.0", "cmd", (_record(),),
                           generated="2026-01-01T00:00:00+00:00")
        b = ReportEnvelope("0.1.0", "cmd", (_record(),),
                           generated="2027-06-30T23:59:59+00:00")
        assert _digest(a) == _digest(b)
        assert _digest(a).startswith("sha256:")

    def test_digest_sees_content(self):
        a = ReportEnvelope("0.1.0", "cmd", (_record(),))
        b = ReportEnvelope("0.1.0", "cmd",
                           (graph_record(_doc(), graph_indices(cycle(4))),))
        assert _digest(a) != _digest(b)


class TestJson:
    def test_schema_keys(self):
        env = ReportEnvelope("0.1.0", "symbreak analyze x",
                             graphs=(_record(),), verdicts=(_verdict(),),
                             generated="2026-01-01T00:00:00+00:00")
        doc = json.loads(emit_report(env, "json"))
        assert set(doc) == {"tool", "version", "command", "graphs",
                            "verdicts", "summary", "generated", "digest"}
        assert doc["digest"] == _oracle_digest(env.body())
        g = doc["graphs"][0]
        assert set(g) == {"name", "source", "graph6", "n", "m", "autOrder",
                          "d", "theta", "root", "phi", "steady", "skipped"}
        assert g["graph6"] == "Cl" and g["d"] == 3 and g["autOrder"] == 8
        assert g["phi"][2] == {"k": 3, "phi": 3, "varphi": 3}
        v = doc["verdicts"][0]
        assert set(v) == {"theoremId", "instance", "predicted", "bruteForce",
                          "preconditionsMet", "agree", "status", "notes"}

    def test_skip_record_serialized_with_reason(self):
        env = ReportEnvelope(
            "0.1.0", "cmd",
            graphs=(skip_record(_doc(), "group too large"),),
            verdicts=(TheoremVerdict("thm6.1", "lex(a,b)", 5, None, True,
                                     None, "skipped",
                                     ("brute force hit budget",)),))
        doc = json.loads(emit_report(env, "json"))
        assert doc["graphs"][0]["skipped"] == "group too large"
        assert doc["graphs"][0]["d"] is None
        assert doc["verdicts"][0]["status"] == "skipped"
        assert "budget" in doc["verdicts"][0]["notes"][0]
        assert doc["summary"]["skipped"] == 2

    def test_deterministic_output(self):
        env = ReportEnvelope("0.1.0", "cmd", (_record(),),
                             generated="2026-01-01T00:00:00+00:00")
        assert emit_report(env, "json") == emit_report(env, "json")


class TestCsv:
    def test_sections(self):
        env = ReportEnvelope("0.1.0", "cmd", graphs=(_record(),),
                             verdicts=(_verdict(),))
        text = emit_report(env, "csv")
        graph_part, verdict_part = text.split("\n\n")
        head = graph_part.splitlines()[0]
        assert head.startswith("name,source,graph6")
        assert "phi@3" in head and "varphi@3" in head
        assert verdict_part.splitlines()[0].startswith("theoremId,instance")

    def test_graphs_only(self):
        env = ReportEnvelope("0.1.0", "cmd", graphs=(_record(),))
        text = emit_report(env, "csv")
        assert "theoremId" not in text

    def test_unknown_format(self):
        with pytest.raises(InvalidInputError):
            emit_report(ReportEnvelope("0.1.0", "cmd"), "yaml")


def _oracle_digest(body: dict) -> str:
    canon = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(canon).hexdigest()


def _assert_json_renders(text: str, body: dict, generated) -> None:
    """text is json's indented sorted-key dump of body plus its digest and
    generated, and the digest is hashlib's over the compact dump."""
    digest = _oracle_digest(body)
    doc = {**body, "digest": digest, "generated": generated}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert json.loads(text)["digest"] == digest


def _cli_body(run_cli, *argv) -> tuple[str, dict, dict]:
    """(the report as printed, parsed, and its body without generated and
    digest)."""
    text = run_cli(*argv)[1]
    out = json.loads(text)
    body = {k: v for k, v in out.items() if k not in ("generated", "digest")}
    return text, out, body


class TestDigestOracle:
    """The writer renders reports without json and takes SHA-256 without
    hashlib; its texts must be json's and its digests hashlib's, byte for
    byte."""

    @pytest.mark.parametrize("argv,count", [
        (("analyze", str(Path(symbreak.__file__).parent / "data"
                         / "connected_n_le6.g6"), "--phi-max", "4",
          "--steady"), ("graphs", 143)),
        (("verify", "thm3.13"), ("agree", 4)),
        (("analyze", "builtin:petersen", "--max-aut", "100"), ("skipped", 1)),
    ], ids=["analyze-corpus-file", "verify-thm3.13", "skip-record"])
    def test_cli_reports(self, run_cli, argv, count):
        text, out, body = _cli_body(run_cli, *argv)
        key, expected = count
        assert out["summary"][key] == expected
        _assert_json_renders(text, body, out["generated"])

    def test_non_ascii_document_name(self):
        doc = GraphDocument("Петерсен–grafo·ñ", petersen(), "graph6")
        env = ReportEnvelope("0.1.0", "symbreak analyze", graphs=(
            graph_record(doc, graph_indices(doc.graph)),))
        _assert_json_renders(emit_report(env, "json"), env.body(), None)

    def test_generated_stamp(self, run_cli):
        _, out, _ = _cli_body(run_cli, "analyze", "builtin:cycle:5")
        stamp = out["generated"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        drift = datetime.now(timezone.utc) - datetime.fromisoformat(stamp)
        assert abs(drift) <= timedelta(seconds=5)


# Strings a report can carry, file names decoded with surrogateescape
# included: quotes, backslashes, control characters, non-ASCII text, lone
# surrogates, and characters json escapes only under ensure_ascii.
_TRICKY = ('"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "/", "é",
           "Петерсен", "\u2028", "\U0001f600", "\udc80", "\ud800", "\udfff")
_text = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                  st.lists(st.sampled_from(_TRICKY), max_size=6).map("".join))
_int = st.integers(-10**40, 10**40)
_maybe_int = st.none() | _int


def _index_report(aut_order, d, n, m, theta, phi, steady, root):
    """IndexReport requires D = 1 exactly when the group is trivial."""
    d = 1 if aut_order == 1 else 2 if d == 1 else d
    return IndexReport(n, m, aut_order, d, theta, phi, steady, root)


_phi_tables = st.lists(st.builds(PhiRow, _int, _int, _int), max_size=4).map(
    lambda rows: PhiTable(1, 1, 1, 1, tuple(rows)))
_reports = st.builds(_index_report, st.sampled_from([1, 2]) | _int, _int,
                     _int, _int, _int, st.none() | _phi_tables,
                     st.none() | st.lists(_int, max_size=4).map(tuple),
                     _maybe_int)
_records = st.one_of(
    st.builds(GraphRecord, _text, _text, _text, report=_reports),
    st.builds(GraphRecord, _text, _text, _text, skipped=_text))
_verdicts = st.builds(
    TheoremVerdict, _text, _text, _maybe_int, _maybe_int, st.booleans(),
    st.none() | st.booleans(),
    st.sampled_from(["agree", "disagree", "inconclusive", "skipped"]),
    st.lists(_text, max_size=3).map(tuple))
_envelopes = st.builds(
    ReportEnvelope, _text, _text,
    st.lists(_records, max_size=3).map(tuple),
    st.lists(_verdicts, max_size=4).map(tuple),
    st.none() | _text)


class TestWriterOracle:
    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(_envelopes)
    @example(ReportEnvelope("", ""))
    @example(ReportEnvelope(
        "0.1.0", 'symbreak analyze "a\\b"\udcff', generated="é\x00",
        graphs=(GraphRecord("p\u2028", "builtin", "I?", report=IndexReport(
            10, 15, 120, 3, 8, PhiTable(10, 120, 3, 8, ()), (), None)),
            GraphRecord("x", "graph6", "A_", report=IndexReport(
                2, 1, 2, 2, 3, None, None, 0)),
            GraphRecord("z", "graph6", "A_", report=IndexReport(
                2, 1, 2, 2, 3, PhiTable(2, 2, 2, 3, (
                    PhiRow(1, 0, 0), PhiRow(2, 10**40, -1))), (0, 1), 1)),
            GraphRecord("y", "graph6", "A_", skipped="\ud800 budget")),
        verdicts=(
            TheoremVerdict("eq1", "a", 10**40, -10**40, True, False,
                           "disagree", ('"', "\\")),
            TheoremVerdict("eq1", "b", 1, 1, True, True, "agree"),
            TheoremVerdict("eq1", "c", 1, None, False, None, "inconclusive",
                           ("unmet",)),
            TheoremVerdict("eq1", "d", None, None, True, None, "skipped",
                           ("budget",)))))
    def test_writer_is_json(self, env):
        _assert_json_renders(emit_report(env, "json"), env.body(),
                             env.generated)

    @pytest.mark.parametrize("predicted", [2.0, IntEnum("E", "ONE").ONE],
                             ids=["float", "int-subclass"])
    def test_other_types_raise(self, predicted):
        env = ReportEnvelope("0.1.0", "cmd", verdicts=(TheoremVerdict(
            "eq1", "x", predicted, 2, True, False, "disagree"),))
        with pytest.raises(TypeError):
            emit_report(env, "json")
