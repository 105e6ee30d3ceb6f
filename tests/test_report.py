"""Report envelope serialization: schema, digest, CSV."""

from __future__ import annotations

import hashlib
import json
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import symbreak
from symbreak.errors import InvalidInputError
from symbreak.graphs import cycle, path, petersen
from symbreak.indices import graph_indices
from symbreak.report import (GraphDocument, GraphRecord, ReportEnvelope,
                             body_digest, emit_report, graph_record,
                             skip_record)
from symbreak.verify import TheoremVerdict


def _doc(name="c4"):
    return GraphDocument(name, cycle(4), "builtin")


def _record():
    return graph_record(_doc(), graph_indices(cycle(4), phi_max=3))


def _verdict(status="agree", agree=True):
    return TheoremVerdict("eq1", "path:3,k=2", 2, 2, True, agree, status)


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

    def test_digest_excludes_timestamp(self):
        a = ReportEnvelope("0.1.0", "cmd", (_record(),),
                           generated="2026-01-01T00:00:00+00:00")
        b = ReportEnvelope("0.1.0", "cmd", (_record(),),
                           generated="2027-06-30T23:59:59+00:00")
        assert body_digest(a.body()) == body_digest(b.body())
        assert body_digest(a.body()).startswith("sha256:")

    def test_digest_sees_content(self):
        a = ReportEnvelope("0.1.0", "cmd", (_record(),))
        b = ReportEnvelope("0.1.0", "cmd",
                           (graph_record(_doc(), graph_indices(cycle(4))),))
        assert body_digest(a.body()) != body_digest(b.body())


class TestJson:
    def test_schema_keys(self):
        env = ReportEnvelope("0.1.0", "symbreak analyze x",
                             graphs=(_record(),), verdicts=(_verdict(),),
                             generated="2026-01-01T00:00:00+00:00")
        doc = json.loads(emit_report(env, "json"))
        assert set(doc) == {"tool", "version", "command", "graphs",
                            "verdicts", "summary", "generated", "digest"}
        assert doc["digest"] == body_digest(env.body())
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


def _cli_body(run_cli, *argv) -> tuple[dict, dict]:
    """(the report as printed, its body without generated and digest)."""
    out = json.loads(run_cli(*argv)[1])
    body = {k: v for k, v in out.items() if k not in ("generated", "digest")}
    return out, body


class TestDigestOracle:
    """body_digest takes SHA-256 without hashlib; its digests must be
    hashlib's, byte for byte."""

    @pytest.mark.parametrize("argv,count", [
        (("analyze", str(Path(symbreak.__file__).parent / "data"
                         / "connected_n_le6.g6")), ("graphs", 143)),
        (("verify", "thm3.13"), ("agree", 4)),
        (("analyze", "builtin:petersen", "--max-aut", "100"), ("skipped", 1)),
    ], ids=["analyze-corpus-file", "verify-thm3.13", "skip-record"])
    def test_cli_reports(self, run_cli, argv, count):
        out, body = _cli_body(run_cli, *argv)
        key, expected = count
        assert out["summary"][key] == expected
        assert body_digest(body) == _oracle_digest(body) == out["digest"]

    def test_non_ascii_document_name(self):
        doc = GraphDocument("Петерсен–grafo·ñ", petersen(), "graph6")
        body = ReportEnvelope("0.1.0", "symbreak analyze", graphs=(
            graph_record(doc, graph_indices(doc.graph)),)).body()
        assert body_digest(body) == _oracle_digest(body)

    def test_generated_stamp(self, run_cli):
        out, _ = _cli_body(run_cli, "analyze", "builtin:cycle:5")
        stamp = out["generated"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        drift = datetime.now(timezone.utc) - datetime.fromisoformat(stamp)
        assert abs(drift) <= timedelta(seconds=5)
