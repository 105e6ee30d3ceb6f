"""Freeze the answers every benchmark invocation is checked against.

Runs the program in process on the unrelabelled inputs and writes
expected.json next to this file.  Run it only on a commit whose answers are
trusted (it was run on the commit that introduced the benchmark):

    python3 symbench/freeze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as w


def _run(argv) -> tuple[int, str]:
    import symbreak.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = symbreak.cli.main(list(argv))
    return code, out.getvalue()


def _records(argv) -> list:
    inv = w.Invocation(tuple(argv), None, 0)
    code, payload = w.answer(inv, *_run(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return [list(r[:6]) + [r[6]] for r in payload]


def main() -> None:
    sys.path.insert(0, str(w.ROOT / "src"))
    w.WORK.mkdir(parents=True, exist_ok=True)
    corpus_file = w.WORK / "corpus_all.g6"
    corpus_file.write_text("".join(g + "\n" for g in w.corpus_graphs()))
    expected = {"corpus": _records(
        ("analyze", str(corpus_file), "--phi-max", str(w.CORPUS_PHI_MAX),
         "--steady"))}
    expected["symmetric"] = {}
    for name, ((n, edges), phi_max) in w.SYMMETRIC.items():
        argv = ["analyze", "g6:" + w.g6_encode(n, edges)]
        if phi_max is not None:
            argv += ["--phi-max", str(phi_max)]
        expected["symmetric"][name] = _records(argv)[0]
    expected["verify"] = {}
    for rule in w.VERIFY_RULES:
        inv = w.Invocation(w.verify_argv(rule), None, 0)
        code, payload = w.answer(inv, *_run(inv.argv))
        if code != 0:
            raise SystemExit(f"verify {rule} exited {code}")
        expected["verify"][rule] = payload
    w.EXPECTED.write_text(json.dumps(expected, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
