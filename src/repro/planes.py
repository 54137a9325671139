"""The plane config: which implementation each process-wide plane runs.

Four planes have a fast implementation and a reference twin kept as the
differential oracle (:data:`PLANE_TABLE`).  Together the four oracle
values are the repository's single oracle path: the naive engine, the
reference graph substrate, the scalar decide loop and no cross-instance
artifact reuse.

The environment is read once, on the first :func:`planes` call (not at
import: raising then would crash ``import repro`` before the CLI's error
handling exists); after that :func:`planes` is a plain global read.
:func:`set_planes` replaces fields process-wide and
:func:`using_planes` scopes a replacement to a block::

    with using_planes(engine="naive", decide="scalar"):
        reference = solve(instance)

Every rejected value — from the environment or a setter — raises
:class:`~repro.errors.ConfigurationError` naming the variable, the value
and the allowed values.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError

#: ``(field, environment variable, fast value, oracle value)`` per plane.
PLANE_TABLE = (
    ("engine", "REPRO_ENGINE", "compiled", "naive"),
    ("graph", "REPRO_GRAPH", "vectorized", "reference"),
    ("decide", "REPRO_DECIDE", "vector", "scalar"),
    ("artifacts", "REPRO_ARTIFACTS", "on", "off"),
)

_ROWS = {row[0]: row for row in PLANE_TABLE}


@dataclasses.dataclass(frozen=True)
class Planes:
    """The active value of every plane; the defaults are the fast path."""

    engine: str = "compiled"
    graph: str = "vectorized"
    decide: str = "vector"
    artifacts: str = "on"

    def overrides(self) -> List[str]:
        """``field=value`` for every plane not at its default, in table
        order — the config echo of run headers and ``/healthz``."""
        return [
            f"{field}={getattr(self, field)}"
            for field, _env, fast, _oracle in PLANE_TABLE
            if getattr(self, field) != fast
        ]


def _checked(field: str, value: str) -> str:
    row = _ROWS.get(field)
    if row is None:
        raise ConfigurationError(
            f"unknown plane {field!r}; expected one of {tuple(_ROWS)}"
        )
    _field, env, fast, oracle = row
    if value not in (fast, oracle):
        raise ConfigurationError(
            f"{env}={value!r} is not a valid {field} plane; "
            f"expected one of {(fast, oracle)}"
        )
    return value


def planes_from_env() -> Planes:
    """Parse every plane variable (case- and space-insensitive)."""
    return Planes(**{
        field: _checked(field, os.environ.get(env, fast).strip().lower())
        for field, env, fast, _oracle in PLANE_TABLE
    })


_PLANES: Optional[Planes] = None


def planes() -> Planes:
    """The active plane config (resolved from the environment once)."""
    global _PLANES
    if _PLANES is None:
        _PLANES = planes_from_env()
    return _PLANES


def set_planes(**fields: str) -> Planes:
    """Replace the given planes process-wide; returns the previous config."""
    global _PLANES
    previous = planes()
    for field, value in fields.items():
        _checked(field, value)
    _PLANES = dataclasses.replace(previous, **fields)
    return previous


@contextmanager
def using_planes(**fields: str) -> Iterator[Planes]:
    """Run the body with the given planes replaced, then restore."""
    global _PLANES
    previous = set_planes(**fields)
    try:
        yield _PLANES
    finally:
        _PLANES = previous
