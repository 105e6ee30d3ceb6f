"""Exception taxonomy.

Every error the library raises on purpose derives from SymbreakError, split
by how the command line reports it: invalid input and unmet preconditions
exit with status 2, exhausted search budgets with status 3.
"""

from __future__ import annotations


class SymbreakError(Exception):
    """Base class for all intentional errors."""


class InvalidInputError(SymbreakError):
    """Malformed or out-of-range input (bad vertex ids, oversize graphs, ...)."""


class PreconditionError(SymbreakError):
    """An operation's stated precondition does not hold for the given input."""


class BudgetExceededError(SymbreakError):
    """A search exceeded its configured group-order or coloring budget."""


class Graph6Error(InvalidInputError):
    """Malformed graph6 input."""


class Graph6ByteRangeError(Graph6Error):
    """A byte outside the printable graph6 range 63..126."""

    def __init__(self, offset: int, byte: int):
        super().__init__(f"byte {byte} at offset {offset} outside graph6 range 63..126")
        self.offset = offset
        self.byte = byte


class Graph6LengthError(Graph6Error):
    """Payload length does not match the encoded vertex count."""


class Graph6PaddingError(Graph6Error):
    """Nonzero padding bits after the adjacency bit string."""


class EdgeListError(InvalidInputError):
    """Malformed edge-list input; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line, self.reason = line, message
