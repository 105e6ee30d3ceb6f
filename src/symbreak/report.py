"""Report assembly and serialization for the command-line surface.

An envelope bundles everything one invocation produced: per-graph index
reports and per-rule verification verdicts, each either a result or a skip
record, never both and never absent.  Serialization is deterministic: JSON
uses sorted keys and two-space indentation, CSV a fixed column order, so
identical inputs yield byte-identical output except for the ``generated``
timestamp, which is excluded from the digest.

JSON schema (stable within a major version):

  {
    "tool": "symbreak",
    "version": "<package version>",
    "command": "<subcommand and arguments>",
    "generated": "<ISO-8601 UTC>" | null,
    "digest": "sha256:<hex of the canonical body>",
    "graphs": [
      {"name": str, "source": "graph6"|"edgelist"|"builtin"|"product",
       "graph6": str, "n": int, "m": int, "autOrder": int, "d": int,
       "theta": int, "root": int|null,
       "phi": [{"k": int, "phi": int, "varphi": int}, ...] | null,
       "steady": [int, ...] | null, "skipped": str|null}
    ],
    "verdicts": [
      {"theoremId": str, "instance": str, "predicted": int|null,
       "bruteForce": int|null, "preconditionsMet": bool, "agree": bool|null,
       "status": "agree"|"disagree"|"inconclusive"|"skipped",
       "notes": [str, ...]}
    ],
    "summary": {"graphs": int, "verdicts": int, "agree": int,
                "disagree": int, "inconclusive": int, "skipped": int}
  }

The digest is the SHA-256 of the canonical JSON body with ``generated`` and
``digest`` removed, so it identifies the computation, not the wall clock.
The SHA-256 comes from the interpreter's built-in module (``_sha2`` on
Python 3.12+, ``_sha256`` on 3.10 and 3.11), with ``hashlib`` only as the
fallback: hashlib loads OpenSSL, about 3.5 MB of resident memory, for the
one digest a command takes.  The hex digest is the same either way.  ``csv``
is imported by the CSV writer only.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidInputError
from .graph6 import emit_graph6
from .graphs import Graph

try:  # hashlib is heavy to load: it brings in OpenSSL
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:
    from .indices import IndexReport
    from .verify import TheoremVerdict

SOURCES = ("graph6", "edgelist", "builtin", "product")


@dataclass(frozen=True)
class GraphDocument:
    """A named graph plus where it came from."""

    name: str
    graph: Graph
    source: str

    def __post_init__(self):
        if not self.name:
            raise InvalidInputError("graph document needs a name")
        if self.source not in SOURCES:
            raise InvalidInputError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class GraphRecord:
    """One requested graph computation: a result or a skip, never both."""

    name: str
    source: str
    graph6: str
    report: IndexReport | None = None
    skipped: str | None = None

    def __post_init__(self):
        if (self.report is None) == (self.skipped is None):
            raise InvalidInputError(
                "graph record needs exactly one of report/skipped")


@dataclass(frozen=True)
class ReportEnvelope:
    version: str
    command: str
    graphs: tuple[GraphRecord, ...] = ()
    verdicts: tuple[TheoremVerdict, ...] = ()
    generated: str | None = None

    def summary(self) -> dict:
        counts = {"agree": 0, "disagree": 0, "inconclusive": 0, "skipped": 0}
        for v in self.verdicts:
            counts[v.status] += 1
        counts["skipped"] += sum(1 for g in self.graphs if g.skipped)
        return {"graphs": len(self.graphs),
                "verdicts": len(self.verdicts), **counts}

    def body(self) -> dict:
        return {
            "tool": "symbreak",
            "version": self.version,
            "command": self.command,
            "graphs": [_graph_payload(g) for g in self.graphs],
            "verdicts": [_verdict_payload(v) for v in self.verdicts],
            "summary": self.summary(),
        }


def body_digest(body: dict) -> str:
    """The ``digest`` field: SHA-256 of an envelope's canonical body."""
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + _sha256(canon.encode()).hexdigest()


def _phi_payload(report: IndexReport):
    if report.phi is None:
        return None
    return [{"k": r.k, "phi": r.phi, "varphi": r.varphi}
            for r in report.phi.rows]


def _graph_payload(rec: GraphRecord) -> dict:
    out = {"name": rec.name, "source": rec.source, "graph6": rec.graph6,
           "n": None, "m": None, "autOrder": None, "d": None, "theta": None,
           "root": None, "phi": None, "steady": None, "skipped": rec.skipped}
    r = rec.report
    if r is not None:
        out.update(n=r.n, m=r.m, autOrder=r.aut_order, d=r.d, theta=r.theta,
                   root=r.root, phi=_phi_payload(r),
                   steady=list(r.steady) if r.steady is not None else None)
    return out


def _verdict_payload(v: TheoremVerdict) -> dict:
    return {"theoremId": v.theorem_id, "instance": v.instance,
            "predicted": v.predicted, "bruteForce": v.brute_force,
            "preconditionsMet": v.preconditions_met, "agree": v.agree,
            "status": v.status, "notes": list(v.notes)}


def graph_record(doc: GraphDocument, report: IndexReport) -> GraphRecord:
    return GraphRecord(doc.name, doc.source, emit_graph6(doc.graph),
                       report=report)


def skip_record(doc: GraphDocument, reason: str) -> GraphRecord:
    return GraphRecord(doc.name, doc.source, emit_graph6(doc.graph),
                       skipped=reason)


def emit_report(envelope: ReportEnvelope, fmt: str = "json") -> str:
    if fmt == "json":
        payload = envelope.body()
        payload["digest"] = body_digest(payload)
        payload["generated"] = envelope.generated
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _emit_csv(envelope)
    raise InvalidInputError(f"unknown report format {fmt!r}")


def _emit_csv(envelope: ReportEnvelope) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    sections = 0
    if envelope.graphs:
        k_max = max((len(g.report.phi.rows) for g in envelope.graphs
                     if g.report is not None and g.report.phi is not None),
                    default=0)
        head = ["name", "source", "graph6", "n", "m", "autOrder", "d",
                "theta", "root", "steady", "skipped"]
        head += [f"phi@{k}" for k in range(1, k_max + 1)]
        head += [f"varphi@{k}" for k in range(1, k_max + 1)]
        writer.writerow(head)
        for g in envelope.graphs:
            r = g.report
            row = [g.name, g.source, g.graph6]
            if r is None:
                row += [""] * 7 + [g.skipped] + [""] * (2 * k_max)
            else:
                steady = (" ".join(map(str, r.steady))
                          if r.steady is not None else "")
                row += [r.n, r.m, r.aut_order, r.d, r.theta,
                        "" if r.root is None else r.root, steady, ""]
                phis = {pr.k: pr for pr in r.phi.rows} if r.phi else {}
                row += [phis[k].phi if k in phis else ""
                        for k in range(1, k_max + 1)]
                row += [phis[k].varphi if k in phis else ""
                        for k in range(1, k_max + 1)]
            writer.writerow(row)
        sections += 1
    if envelope.verdicts:
        if sections:
            buf.write("\n")
        writer.writerow(["theoremId", "instance", "predicted", "bruteForce",
                         "preconditionsMet", "agree", "status", "notes"])
        for v in envelope.verdicts:
            writer.writerow([
                v.theorem_id, v.instance,
                "" if v.predicted is None else v.predicted,
                "" if v.brute_force is None else v.brute_force,
                v.preconditions_met,
                "" if v.agree is None else v.agree,
                v.status, "; ".join(v.notes)])
    return buf.getvalue()
