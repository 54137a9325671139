"""Partial assignments of values to discrete random variables.

A :class:`PartialAssignment` records which variables have been fixed and to
what value.  The deterministic fixers of the paper build one incrementally:
a variable, once fixed, is never revisited.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import InvalidAssignmentError
from repro.probability.variable import DiscreteVariable


class PartialAssignment:
    """A mapping from variable names to fixed values.

    The class is a thin, mostly-immutable wrapper around a ``dict``.  The
    mutating entry point is :meth:`fix`, which returns ``self`` to allow
    chaining; :meth:`fixed` produces an independent copy extended by one
    binding, which the fixers use to evaluate hypothetical choices without
    disturbing the committed state.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[Hashable, Hashable]] = None) -> None:
        self._values: Dict[Hashable, Hashable] = dict(values) if values else {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_fixed(self, name: Hashable) -> bool:
        """Whether the named variable has been assigned a value."""
        return name in self._values

    def value_of(self, name: Hashable) -> Hashable:
        """The value assigned to ``name``.

        Raises
        ------
        InvalidAssignmentError
            If the variable has not been fixed.
        """
        try:
            return self._values[name]
        except KeyError:
            raise InvalidAssignmentError(
                f"variable {name!r} has not been fixed"
            ) from None

    def get(self, name: Hashable, default: Hashable = None) -> Hashable:
        """The value assigned to ``name``, or ``default``."""
        return self._values.get(name, default)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def items(self) -> Iterable[Tuple[Hashable, Hashable]]:
        """Iterate over ``(name, value)`` bindings."""
        return self._values.items()

    def as_dict(self) -> Dict[Hashable, Hashable]:
        """A copy of the bindings as a plain dictionary."""
        return dict(self._values)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def fix(self, variable: DiscreteVariable, value: Hashable) -> "PartialAssignment":
        """Bind ``variable`` to ``value`` in place and return ``self``.

        Raises
        ------
        InvalidAssignmentError
            If the value is outside the variable's support, or the
            variable was already fixed to a *different* value.
        """
        if value not in variable:
            raise support_error(variable.name, value)
        existing = self._values.get(variable.name, _UNSET)
        if existing is not _UNSET and existing != value:
            raise refix_error(variable.name, existing, value)
        self._values[variable.name] = value
        return self

    def fixed(self, variable: DiscreteVariable, value: Hashable) -> "PartialAssignment":
        """Return a *copy* of this assignment with one extra binding."""
        copy = PartialAssignment(self._values)
        return copy.fix(variable, value)

    def copy(self) -> "PartialAssignment":
        """An independent copy of this assignment."""
        return PartialAssignment(self._values)

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def restriction_key(
        self, scope_names: Iterable[Hashable]
    ) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """A hashable key identifying this assignment restricted to a scope.

        Two assignments that agree on every fixed variable of ``scope_names``
        produce equal keys; events use this to cache conditional
        probabilities, which only depend on the scope restriction.
        """
        pairs = [
            (name, self._values[name]) for name in scope_names if name in self._values
        ]
        pairs.sort(key=lambda pair: repr(pair[0]))
        return tuple(pairs)

    def restriction_key_with(
        self,
        scope_names: Iterable[Hashable],
        extra_name: Hashable,
        extra_value: Hashable,
    ) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """The :meth:`restriction_key` of ``self`` plus one extra binding.

        Equivalent to ``self.fixed(var, value).restriction_key(scope)``
        but without copying the assignment; the batch ``Inc`` query uses
        it to pre-populate an event's probability cache with every
        hypothetical one-value extension it just computed.
        """
        pairs = [
            (name, self._values[name]) for name in scope_names if name in self._values
        ]
        pairs.append((extra_name, extra_value))
        pairs.sort(key=lambda pair: repr(pair[0]))
        return tuple(pairs)

    def __repr__(self) -> str:
        return f"PartialAssignment({self._values!r})"


def support_error(name: Hashable, value: Hashable) -> InvalidAssignmentError:
    """The error :meth:`PartialAssignment.fix` raises for a value outside
    the variable's support."""
    return InvalidAssignmentError(
        f"value {value!r} is not in the support of {name!r}"
    )


def refix_error(
    name: Hashable, existing: Hashable, value: Hashable
) -> InvalidAssignmentError:
    """The error :meth:`PartialAssignment.fix` raises for re-fixing a
    variable to a different value."""
    return InvalidAssignmentError(
        f"variable {name!r} already fixed to {existing!r}; "
        f"cannot re-fix to {value!r}"
    )


class _Unset:
    """Sentinel distinguishing 'not fixed' from 'fixed to None'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()
