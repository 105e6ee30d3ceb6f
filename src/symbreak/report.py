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
The canonical body is compact: sorted keys, ``,`` and ``:`` separators, no
spaces.  The SHA-256 comes from the interpreter's built-in module (``_sha2``
on Python 3.12+, ``_sha256`` on 3.10 and 3.11), with ``hashlib`` only as the
fallback: hashlib loads OpenSSL, about 3.5 MB of resident memory, for the
one digest a command takes.  The hex digest is the same either way.  ``csv``
is imported by the CSV writer only.

One writer renders both JSON texts, the canonical body and the printed
document, in one walk over the envelope's records: each scalar is rendered
once and placed into two %-templates per record kind, compact and indented,
built from one sorted key tuple.  The printed document is byte for byte
``json.dumps(body, indent=2, sort_keys=True) + "\n"`` with ``digest`` and
``generated`` added, and the canonical body is ``json.dumps(body,
sort_keys=True, separators=(",", ":"))``.  Strings go through
``encode_basestring_ascii``, the escaper ``json`` itself uses, taken from
``_json`` without loading the ``json`` package; integers through
``int.__repr__``; ``None``, ``True`` and ``False`` become ``null``, ``true``
and ``false``, and any other type raises ``TypeError``.  ``json`` serves
only as the test oracle: CPython's C encoder does not take ``indent``, so an
indented ``json.dumps`` runs the pure-Python encoder over every value.
"""

from __future__ import annotations

import io
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

try:  # the C escaper json.encoder uses, without importing json
    from _json import encode_basestring_ascii as _escape
except ImportError:
    from json.encoder import encode_basestring_ascii as _escape

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
        counts["skipped"] += sum(g.skipped is not None for g in self.graphs)
        return {"graphs": len(self.graphs),
                "verdicts": len(self.verdicts), **counts}

    def body(self) -> dict:
        """The report as a dict, without ``digest`` and ``generated``: the
        value the JSON writer renders, and its oracle in the tests."""
        return {
            "tool": "symbreak",
            "version": self.version,
            "command": self.command,
            "graphs": [_graph_payload(g) for g in self.graphs],
            "verdicts": [_verdict_payload(v) for v in self.verdicts],
            "summary": self.summary(),
        }


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
        return _emit_json(envelope)
    if fmt == "csv":
        return _emit_csv(envelope)
    raise InvalidInputError(f"unknown report format {fmt!r}")


# -- JSON --------------------------------------------------------------------

_RENDER = {str: _escape, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _scalar(x) -> str:
    """x as json.dumps writes it; the schema holds no other scalar type."""
    try:
        render = _RENDER[type(x)]
    except KeyError:
        raise TypeError(f"a report holds no {type(x).__name__} value: "
                        f"{x!r}") from None
    return render(x)


def _templates(keys: tuple[str, ...], depth: int) -> tuple[str, str]:
    """(compact, indented) %-templates of an object with these keys, in
    this order, one ``%s`` per value; the indented one puts its keys at
    depth levels of two spaces."""
    pad = "\n" + "  " * depth
    fields = [_escape(k) for k in keys]
    return ("{" + ",".join(f + ":%s" for f in fields) + "}",
            "{" + ",".join(pad + f + ": %s" for f in fields)
            + pad[:-2] + "}")


def _array(items: list[str], depth: int) -> str:
    """An indented JSON array of rendered items, at depth levels."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


# sorted key order, one tuple per record kind; each renderer fills the
# templates' slots in this order
_BODY_KEYS = ("command", "graphs", "summary", "tool", "verdicts", "version")
_DOCUMENT_KEYS = ("command", "digest", "generated", "graphs", "summary",
                  "tool", "verdicts", "version")
_GRAPH_KEYS = ("autOrder", "d", "graph6", "m", "n", "name", "phi", "root",
               "skipped", "source", "steady", "theta")
_PHI_KEYS = ("k", "phi", "varphi")
_VERDICT_KEYS = ("agree", "bruteForce", "instance", "notes",
                 "preconditionsMet", "predicted", "status", "theoremId")
_SUMMARY_KEYS = ("agree", "disagree", "graphs", "inconclusive", "skipped",
                 "verdicts")

_BODY = _templates(_BODY_KEYS, 1)[0]
_DOCUMENT = _templates(_DOCUMENT_KEYS, 1)[1]
_GRAPH = _templates(_GRAPH_KEYS, 3)
_PHI = _templates(_PHI_KEYS, 5)
_VERDICT = _templates(_VERDICT_KEYS, 3)
_SUMMARY = _templates(_SUMMARY_KEYS, 2)


def _graph_texts(rec: GraphRecord) -> tuple[str, str]:
    name, graph6 = _scalar(rec.name), _scalar(rec.graph6)
    skipped, source = _scalar(rec.skipped), _scalar(rec.source)
    r = rec.report
    if r is None:
        values = ("null", "null", graph6, "null", "null", name, "null",
                  "null", skipped, source, "null", "null")
        return _GRAPH[0] % values, _GRAPH[1] % values
    if r.phi is None:
        phi_c = phi_i = "null"
    else:
        rows_c, rows_i = [], []
        for row in r.phi.rows:
            values = (_scalar(row.k), _scalar(row.phi), _scalar(row.varphi))
            rows_c.append(_PHI[0] % values)
            rows_i.append(_PHI[1] % values)
        phi_c, phi_i = "[" + ",".join(rows_c) + "]", _array(rows_i, 4)
    if r.steady is None:
        steady_c = steady_i = "null"
    else:
        steady = [_scalar(v) for v in r.steady]
        steady_c, steady_i = "[" + ",".join(steady) + "]", _array(steady, 4)
    head = (_scalar(r.aut_order), _scalar(r.d), graph6, _scalar(r.m),
            _scalar(r.n), name)
    tail = (_scalar(r.root), skipped, source)
    theta = _scalar(r.theta)
    return (_GRAPH[0] % (*head, phi_c, *tail, steady_c, theta),
            _GRAPH[1] % (*head, phi_i, *tail, steady_i, theta))


def _verdict_texts(v: TheoremVerdict) -> tuple[str, str]:
    notes = [_scalar(note) for note in v.notes]
    head = (_scalar(v.agree), _scalar(v.brute_force), _scalar(v.instance))
    tail = (_scalar(v.preconditions_met), _scalar(v.predicted),
            _scalar(v.status), _scalar(v.theorem_id))
    return (_VERDICT[0] % (*head, "[" + ",".join(notes) + "]", *tail),
            _VERDICT[1] % (*head, _array(notes, 4), *tail))


def _emit_json(envelope: ReportEnvelope) -> str:
    """The printed document; its digest hashes the canonical body, which
    is rendered from the same pieces."""
    graphs_c, graphs_i = [], []
    for rec in envelope.graphs:
        compact, indented = _graph_texts(rec)
        graphs_c.append(compact)
        graphs_i.append(indented)
    verdicts_c, verdicts_i = [], []
    for v in envelope.verdicts:
        compact, indented = _verdict_texts(v)
        verdicts_c.append(compact)
        verdicts_i.append(indented)
    counts = envelope.summary()
    summary = tuple(_scalar(counts[k]) for k in _SUMMARY_KEYS)
    command, version = _scalar(envelope.command), _scalar(envelope.version)
    tool = _scalar("symbreak")
    body = _BODY % (command, "[" + ",".join(graphs_c) + "]",
                    _SUMMARY[0] % summary, tool,
                    "[" + ",".join(verdicts_c) + "]", version)
    digest = "sha256:" + _sha256(body.encode()).hexdigest()
    return _DOCUMENT % (command, _scalar(digest),
                        _scalar(envelope.generated), _array(graphs_i, 2),
                        _SUMMARY[1] % summary, tool, _array(verdicts_i, 2),
                        version) + "\n"


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
