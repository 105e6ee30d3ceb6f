"""Command-line surface: analyze, product, verify, table, convert.

Graphs are named by spec tokens:

  builtin:<family>[:<param>...]   e.g. builtin:petersen, builtin:path:5
  g6:<token>                      an inline graph6 string
  <path>                          a file of graph6 lines or edge lists

Edge-list files hold one or more blocks of "n m" followed by m lines
"u v" (0-indexed), separated by blank lines, with "#" comments.  Files
ending in .g6 or .graph6 are read as graph6; other files are sniffed by
their first line that is not blank once its comment is stripped.
Rooted factors for `product vsum` and `product rooted` take an @root
suffix, e.g. builtin:cycle:4@0.

Exit codes: 0 success, 2 bad input or unmet precondition, 3 enumeration
budget exhausted.  Diagnostics go to stderr; data goes to stdout.  In
batch commands (analyze/table with several graphs) a graph that blows
the budget becomes a skip record in the report and the exit code is 3;
`verify` instead folds budget hits into its verdict records and exits 0
whenever the harness itself ran to completion.

The argument parser is built once, when this module is imported; `main`
only parses with it, so it may be called any number of times in one
process and each call sees only its own arguments.  A process that calls
`main` once, such as the `symbreak` script, pays the same build at import
instead, so its latency is unchanged.
"""

from __future__ import annotations

import argparse
import re
import sys
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import Sequence

from . import __version__, limits, verify
from .errors import (BudgetExceededError, EdgeListError, Graph6Error,
                     InvalidInputError, PreconditionError)
from .graph6 import (emit_edgelist, emit_graph6, parse_edgelist,
                     parse_graph6, parse_graph6_many)
from .graphs import RootedGraph, family
from .indices import graph_indices
from .products import corona, lexicographic, rooted_product_smooth, vertex_sum
from .report import (GraphDocument, ReportEnvelope, emit_report,
                     graph_record, skip_record)

_EDGELIST_HEAD = re.compile(r"^\s*[0-9]+\s+[0-9]+\s*$")


# ---------------------------------------------------------------------------
# graph ingestion


def _builtin_document(spec: str) -> GraphDocument:
    name, *params = spec.split(":")
    for p in params:
        if not limits.INTEGER.fullmatch(p):
            raise InvalidInputError(
                f"builtin parameter {p!r} is not an integer")
    return GraphDocument(spec, family(name, *map(int, params)), "builtin")


def _split_edgelist_blocks(text: str) -> list[tuple[int, str]]:
    """(first line number, text) of each run of non-blank lines that are
    not all comments."""
    blocks = []
    for _, run in groupby(enumerate(text.splitlines(), start=1),
                          key=lambda row: not row[1].strip()):
        run = list(run)
        if any(line.split("#", 1)[0].strip() for _, line in run):
            blocks.append((run[0][0], "\n".join(line for _, line in run)))
    return blocks


def _file_format(path: Path, text: str) -> str:
    suffix = path.suffix.lower()
    if suffix in (".g6", ".graph6"):
        return "graph6"
    if suffix in (".el", ".edges", ".edgelist"):
        return "edgelist"
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        if body.strip():
            return "edgelist" if _EDGELIST_HEAD.match(body) else "graph6"
    raise InvalidInputError(f"{path}: file contains no graphs")


def _file_documents(token: str) -> list[GraphDocument]:
    path = Path(token)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {token}: {exc}") from None
    fmt = _file_format(path, text)
    if fmt == "graph6":
        graphs = parse_graph6_many(text)
        source = "graph6"
    else:
        graphs = []
        for first, block in _split_edgelist_blocks(text):
            try:
                graphs.append(parse_edgelist(block))
            except EdgeListError as exc:  # renumber by line of the file
                raise EdgeListError(first + exc.line - 1, exc.reason) from None
        source = "edgelist"
    if not graphs:
        raise InvalidInputError(f"{token}: file contains no graphs")
    if len(graphs) == 1:
        return [GraphDocument(path.stem, graphs[0], source)]
    return [GraphDocument(f"{path.stem}:{i}", g, source)
            for i, g in enumerate(graphs, start=1)]


def load_documents(token: str) -> list[GraphDocument]:
    """Resolve a graph spec token to one or more named graphs."""
    if token.startswith("builtin:"):
        return [_builtin_document(token[len("builtin:"):])]
    if token.startswith("g6:"):
        return [GraphDocument(token, parse_graph6(token[len("g6:"):]),
                              "graph6")]
    return _file_documents(token)


def _single_document(token: str) -> GraphDocument:
    docs = load_documents(token)
    if len(docs) != 1:
        raise InvalidInputError(
            f"{token}: expected exactly one graph, found {len(docs)}")
    return docs[0]


def _rooted_factor(token: str) -> RootedGraph:
    base, sep, root = token.rpartition("@")
    if not sep or not limits.INTEGER.fullmatch(root):
        raise InvalidInputError(
            f"rooted factor {token!r} needs an @root suffix, "
            "e.g. builtin:cycle:4@0")
    return RootedGraph(_single_document(base).graph, int(root))


# ---------------------------------------------------------------------------
# subcommands


def _envelope(command: Sequence[str], graphs=(), verdicts=()) -> ReportEnvelope:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ReportEnvelope(__version__, "symbreak " + " ".join(command),
                          tuple(graphs), tuple(verdicts), generated=stamp)


def _analyze_records(docs, phi_max, steady):
    records, budget_hit = [], False
    for doc in docs:
        try:
            rep = graph_indices(doc.graph, phi_max=phi_max, steady=steady)
            records.append(graph_record(doc, rep))
        except BudgetExceededError as exc:
            records.append(skip_record(doc, str(exc)))
            budget_hit = True
    return records, budget_hit


def _cmd_analyze(args, command) -> int:
    docs = load_documents(args.graph)
    records, budget_hit = _analyze_records(docs, args.phi_max, args.steady)
    sys.stdout.write(emit_report(_envelope(command, graphs=records),
                                 args.format))
    return 3 if budget_hit else 0


_PRODUCT_KINDS = ("vsum", "rooted", "corona", "lex")


def _cmd_product(args, command) -> int:
    kind = args.kind
    if kind == "vsum":
        factors = [_rooted_factor(tok) for tok in args.factors]
        product, _ = vertex_sum(factors)
    elif kind == "rooted":
        if len(args.factors) != 2:
            raise InvalidInputError("product rooted takes <base> <copy@root>")
        g = _single_document(args.factors[0]).graph
        product, _ = rooted_product_smooth(g, _rooted_factor(args.factors[1]))
    elif kind in ("corona", "lex"):
        if len(args.factors) != 2:
            raise InvalidInputError(f"product {kind} takes exactly two graphs")
        g = _single_document(args.factors[0]).graph
        h = _single_document(args.factors[1]).graph
        product, _ = corona(g, h) if kind == "corona" else lexicographic(g, h)
    else:  # argparse choices make this unreachable
        raise InvalidInputError(f"unknown product kind {kind!r}")
    if args.emit == "g6":
        sys.stdout.write(emit_graph6(product) + "\n")
        return 0
    name = f"{kind}({','.join(args.factors)})"
    doc = GraphDocument(name, product, "product")
    records, budget_hit = _analyze_records([doc], args.phi_max, False)
    sys.stdout.write(emit_report(_envelope(command, graphs=records), "json"))
    return 3 if budget_hit else 0


def _cmd_verify(args, command) -> int:
    ids = None if args.rule == "all" else [args.rule]
    grid = verify.parse_grid(args.grid)
    verdicts = verify.run_rules(ids, grid)
    sys.stdout.write(emit_report(_envelope(command, verdicts=verdicts),
                                 args.format))
    return 0


def _parse_range(text: str) -> range:
    """'a..b' inclusive, or a single integer; an upper end below the lower
    end is bad input, not an empty table."""
    lo, dots, hi = text.partition("..")
    hi = hi if dots else lo
    if not (limits.INTEGER.fullmatch(lo) and limits.INTEGER.fullmatch(hi)
            and int(lo) <= int(hi)):
        raise InvalidInputError(f"bad range {text!r}")
    return range(int(lo), int(hi) + 1)


def _cmd_table(args, command) -> int:
    docs = [GraphDocument(f"{args.family}:{n}", family(args.family, n),
                          "builtin")
            for n in _parse_range(args.range)]
    records, budget_hit = _analyze_records(docs, args.phi_max, args.steady)
    sys.stdout.write(emit_report(_envelope(command, graphs=records),
                                 args.format))
    return 3 if budget_hit else 0


def _cmd_convert(args, command) -> int:
    docs = load_documents(args.infile)
    out = Path(args.outfile)
    fmt = args.to
    if fmt is None:
        suffix = out.suffix.lower()
        if suffix in (".g6", ".graph6"):
            fmt = "g6"
        elif suffix in (".el", ".edges", ".edgelist", ".txt"):
            fmt = "edgelist"
        else:
            raise InvalidInputError(
                f"cannot infer output format from {args.outfile!r}; "
                "pass --to g6|edgelist")
    if fmt == "g6":
        text = "".join(emit_graph6(d.graph) + "\n" for d in docs)
    else:
        text = "\n".join(emit_edgelist(d.graph) for d in docs)
    if args.outfile == "-":
        sys.stdout.write(text)
    else:
        out.write_text(text)
        print(f"wrote {len(docs)} graph(s) to {args.outfile}",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _integer(text: str) -> int:
    """An integer flag's value, in the one grammar (limits.INTEGER)."""
    if not limits.INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--max-vertices", type=_integer, default=None,
                         metavar="N", help="vertex cap (default 64)")
    budgets.add_argument("--max-aut", type=_integer, default=None, metavar="N",
                         help="automorphism enumeration cap (default 10^7)")
    budgets.add_argument("--max-colorings", type=_integer, default=None,
                         metavar="N",
                         help="coloring search cap: nodes per rung of D, "
                              "joins per Phi table (default 10^7)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")

    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Symmetry-breaking indices of finite graphs: "
                    "distinguishing numbers, thresholds, coloring counts, "
                    "graph products, and a closed-form verification harness.")
    parser.add_argument("--version", action="version",
                        version=f"symbreak {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[budgets, fmt],
                       help="compute indices for graphs from a file or "
                            "builtin spec")
    p.add_argument("graph", help="file path, builtin:<family>[:params], "
                                 "or g6:<token>")
    p.add_argument("--phi-max", type=_integer, default=None, metavar="K",
                   help="also tabulate coloring counts for 1..K colors")
    p.add_argument("--steady", action="store_true",
                   help="report the steady vertices")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("product", parents=[budgets],
                       help="build a product graph and emit it")
    p.add_argument("kind", choices=_PRODUCT_KINDS)
    p.add_argument("factors", nargs="+",
                   help="graph specs; rooted kinds take an @root suffix")
    p.add_argument("--emit", choices=("g6", "json"), default="g6",
                   help="graph6 line or full JSON report (default g6)")
    p.add_argument("--phi-max", type=_integer, default=None, metavar="K",
                   help="coloring-count table size for --emit json")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("verify", parents=[budgets, fmt],
                       help="check closed-form rules against brute force")
    p.add_argument("rule", help="a rule id or 'all'; known: "
                               + ", ".join(verify.rule_ids()))
    p.add_argument("--grid", default=None,
                   help="instance grid override, e.g. \"K3,t=2..5\" "
                        "or \"max=10\"")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", parents=[budgets, fmt],
                       help="tabulate indices across a one-parameter family")
    p.add_argument("family", help="family name, e.g. path, cycle, complete")
    p.add_argument("range", help="parameter range, e.g. 2..8")
    # argparse reads a token that starts with "-" as an option unless it
    # matches this pattern (a negative number by default), so "-2..-1"
    # would be reported as a missing range instead of reaching
    # _parse_range; widen the pattern to ranges for this subcommand.
    p._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$|^-\d*\.\d+$")
    p.add_argument("--phi-max", type=_integer, default=4, metavar="K",
                   help="coloring-count table size (default 4)")
    p.add_argument("--steady", action="store_true",
                   help="report the steady vertices")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("convert", parents=[budgets],
                       help="convert between graph6 and edge-list files")
    p.add_argument("infile")
    p.add_argument("outfile", help="output path, or - for stdout")
    p.add_argument("--to", choices=("g6", "edgelist"), default=None,
                   help="output format (default: from file extension)")
    p.set_defaults(func=_cmd_convert)
    return parser


_PARSER = _build_parser()

_BUDGET_FLAGS = (("max_vertices", "--max-vertices"), ("max_aut", "--max-aut"),
                 ("max_colorings", "--max-colorings"),
                 ("phi_max", "--phi-max"))


def _check_budget_flags(args) -> None:
    for dest, flag in _BUDGET_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise InvalidInputError(f"{flag} must be positive, got {value}")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help itself
        return 0 if exc.code in (0, None) else 2
    try:
        _check_budget_flags(args)
        with limits.scoped(args.max_vertices, args.max_aut,
                           args.max_colorings):
            return args.func(args, argv)
    except BudgetExceededError as exc:
        print(f"symbreak: {exc}", file=sys.stderr)
        return 3
    except (Graph6Error, EdgeListError, InvalidInputError,
            PreconditionError) as exc:
        print(f"symbreak: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"symbreak: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
