"""graph6 and edge-list serialization.

graph6 lines carry the vertex count followed by the upper triangle of the
adjacency matrix, read column by column, packed into 6-bit groups offset by
63.  Sizes up to 62 take one byte; larger sizes use an 0x7e escape and 18
bits (three bytes), and sizes past 258047 use a double escape and 36 bits.
Parse errors carry the byte offset so a bad character in a long line is easy
to locate.

The edge-list format is a header line ``n m`` followed by m lines ``u v``.
Blank lines and ``#`` comments are permitted and ignored.
"""

from __future__ import annotations

from . import limits
from .errors import (
    EdgeListError,
    Graph6ByteRangeError,
    Graph6Error,
    Graph6LengthError,
    Graph6PaddingError,
)
from .graphs import Graph, build_graph

HEADER = ">>graph6<<"

_LOW = 63
_HIGH = 126
_ESCAPE = 126


def encode_size(n: int) -> bytes:
    """Size prefix: 1 byte below 63, else escaped 18- or 36-bit big-endian."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n <= 62:
        return bytes([n + _LOW])
    if n <= 258047:
        return bytes([_ESCAPE,
                      _LOW + (n >> 12 & 63),
                      _LOW + (n >> 6 & 63),
                      _LOW + (n & 63)])
    if n <= 68719476735:
        return bytes([_ESCAPE, _ESCAPE]) + bytes(
            _LOW + (n >> shift & 63) for shift in range(30, -1, -6))
    raise ValueError("size exceeds the 36-bit graph6 limit")


def decode_size(data: bytes) -> tuple[int, int]:
    """Read the size prefix; return (n, bytes consumed)."""
    if not data:
        raise Graph6LengthError("empty graph6 line")
    if data[0] != _ESCAPE:
        return data[0] - _LOW, 1
    if len(data) >= 2 and data[1] != _ESCAPE:
        if len(data) < 4:
            raise Graph6LengthError("truncated 3-byte size prefix")
        n = 0
        for b in data[1:4]:
            n = n << 6 | (b - _LOW)
        return n, 4
    if len(data) < 8:
        raise Graph6LengthError("truncated 6-byte size prefix")
    n = 0
    for b in data[2:8]:
        n = n << 6 | (b - _LOW)
    return n, 8


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 line (optionally prefixed by the format header)."""
    if isinstance(line, str):
        # a non-ASCII character encodes to bytes above _HIGH, which the
        # byte range check below rejects at its offset
        data = line.encode("utf-8", errors="surrogateescape")
    else:
        data = line
    if data.startswith(HEADER.encode()):
        data = data[len(HEADER):]
    data = data.rstrip(b"\r\n")
    for off, b in enumerate(data):
        if not _LOW <= b <= _HIGH:
            raise Graph6ByteRangeError(off, b)

    n, start = decode_size(data)
    nbits = n * (n - 1) // 2
    want = start + (nbits + 5) // 6
    if len(data) != want:
        raise Graph6LengthError(
            f"graph6 line for n={n} must be {want} bytes, got {len(data)}")

    edges = []
    bit = 0
    body = data[start:]
    for v in range(1, n):
        for u in range(v):
            byte = body[bit // 6]
            if (byte - _LOW) >> (5 - bit % 6) & 1:
                edges.append((u, v))
            bit += 1
    if nbits % 6:
        tail = body[-1] - _LOW
        if tail & ((1 << (6 - nbits % 6)) - 1):
            raise Graph6PaddingError("nonzero padding bits at end of line")
    return build_graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    nbits = g.n * (g.n - 1) // 2
    groups = bytearray(encode_size(g.n))
    acc = 0
    filled = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = acc << 1 | (1 if g.has_edge(u, v) else 0)
            filled += 1
            if filled == 6:
                groups.append(_LOW + acc)
                acc, filled = 0, 0
    if filled:
        groups.append(_LOW + (acc << (6 - filled)))
    assert len(groups) - len(encode_size(g.n)) == (nbits + 5) // 6
    return groups.decode("ascii")


def parse_graph6_many(text: str) -> list[Graph]:
    """Decode every nonblank line of a graph6 file."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from exc
    return out


def parse_edgelist(text: str) -> Graph:
    """Decode the ``n m`` edge-list format.  Every number is an integer
    of limits.INTEGER: ASCII digits after an optional minus sign."""
    lines = text.splitlines()
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise EdgeListError(1, "missing 'n m' header line")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListError(lineno, f"header must be 'n m', got {header!r}")
    if not all(map(limits.INTEGER.fullmatch, parts)):
        raise EdgeListError(lineno, f"header must be two integers, "
                                    f"got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise EdgeListError(lineno, "n and m must be nonnegative")
    if len(rows) - 1 != m:
        raise EdgeListError(lineno,
                            f"header promises {m} edges, file has "
                            f"{len(rows) - 1} edge lines")

    edges = []
    seen = set()
    for lineno, body in rows[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise EdgeListError(lineno, f"edge line must be 'u v', "
                                        f"got {body!r}")
        if not all(map(limits.INTEGER.fullmatch, parts)):
            raise EdgeListError(lineno, f"edge endpoints must be integers, "
                                        f"got {body!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(lineno, f"edge ({u}, {v}) out of range for "
                                        f"{n} vertices")
        if u == v:
            raise EdgeListError(lineno, f"loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListError(lineno, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    return build_graph(n, edges)


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
