"""Resource budgets for the search routines.

Three knobs, all process-wide:

  max_vertices   hard cap on graph size accepted by constructors (default
                 64); the kernels' bitmasks are ints of any width, so the
                 cap bounds the input a run accepts, not what they can hold
  max_aut        automorphism-search budget: abort once the group is known
                 to have more than this many elements
  max_colorings  node budget for the distinguishing-coloring search

Defaults can be overridden through SYMBREAK_MAX_VERTICES, SYMBREAK_MAX_AUT
and SYMBREAK_MAX_COLORINGS, read on first use rather than at import, so a
bad value surfaces as an InvalidInputError naming the variable (exit 2 on
the command line) instead of breaking the import; and at runtime via
configure() or the scoped() context manager, which the CLI wraps around
each command to apply --max-vertices/--max-aut/--max-colorings and tests use
to provoke budget errors cheaply.  Every budget must be a positive integer.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InvalidInputError

DEFAULT_MAX_VERTICES = 64
DEFAULT_MAX_AUT = 10_000_000
DEFAULT_MAX_COLORINGS = 10_000_000

# the one integer grammar of budgets, flags, specs and grids; int() alone
# would also take other digits, underscores, a plus sign and spaces
INTEGER = re.compile(r"-?[0-9]+")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    if not INTEGER.fullmatch(raw):
        raise InvalidInputError(f"{name} must be an integer, got {raw!r}")
    value = int(raw)
    _check_positive(name, value)
    return value


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise InvalidInputError(f"{name} must be positive, got {value}")


@dataclass
class Limits:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_aut: int = DEFAULT_MAX_AUT
    max_colorings: int = DEFAULT_MAX_COLORINGS


_active: Limits | None = None


def _limits() -> Limits:
    """The process-wide budgets, read from the environment on first use."""
    global _active
    if _active is None:
        _active = Limits(
            max_vertices=_env_int("SYMBREAK_MAX_VERTICES",
                                  DEFAULT_MAX_VERTICES),
            max_aut=_env_int("SYMBREAK_MAX_AUT", DEFAULT_MAX_AUT),
            max_colorings=_env_int("SYMBREAK_MAX_COLORINGS",
                                   DEFAULT_MAX_COLORINGS),
        )
    return _active


def vertex_cap() -> int:
    return _limits().max_vertices


def aut_cap() -> int:
    return _limits().max_aut


def coloring_cap() -> int:
    return _limits().max_colorings


def configure(max_vertices: int | None = None,
              max_aut: int | None = None,
              max_colorings: int | None = None) -> None:
    """Override one or more budgets for the rest of the process."""
    active = _limits()
    for name, value in (("max_vertices", max_vertices), ("max_aut", max_aut),
                        ("max_colorings", max_colorings)):
        if value is not None:
            _check_positive(name, value)
            setattr(active, name, value)


@contextmanager
def scoped(max_vertices: int | None = None,
           max_aut: int | None = None,
           max_colorings: int | None = None):
    """Temporarily override budgets; restores the previous values on exit."""
    active = _limits()
    saved = Limits(active.max_vertices, active.max_aut, active.max_colorings)
    try:
        configure(max_vertices, max_aut, max_colorings)
        yield
    finally:
        active.max_vertices = saved.max_vertices
        active.max_aut = saved.max_aut
        active.max_colorings = saved.max_colorings
