"""Discrete random variables with finite support.

The paper's probability spaces are spanned by finitely many independent
discrete random variables.  :class:`DiscreteVariable` is the immutable
building block: a name, a finite tuple of values, and a probability for
each value.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Optional, Sequence, Tuple

from repro.errors import InvalidAssignmentError, InvalidDistributionError

#: Probabilities are accepted as a distribution if they sum to 1 up to this.
_SUM_TOLERANCE = 1e-9


class DiscreteVariable:
    """An independent random variable with a finite discrete distribution.

    Instances are immutable and hashable by :attr:`name`, so they can be
    used as dictionary keys and set members.  Two variables with the same
    name are considered the same variable; constructing two *different*
    distributions under the same name within one instance is a modelling
    error that :class:`repro.lll.LLLInstance` rejects.

    Parameters
    ----------
    name:
        Hashable identifier, unique within an LLL instance.
    values:
        The support of the variable.  Values may be any hashable objects.
    probabilities:
        One probability per value.  Must be non-negative and sum to one.
        If omitted, the distribution is uniform.
    """

    __slots__ = ("_name", "_values", "_probabilities", "_index")

    def __init__(
        self,
        name: Hashable,
        values: Sequence[Hashable],
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        values = tuple(values)
        if not values:
            raise InvalidDistributionError(
                f"variable {name!r} must have at least one value"
            )
        if len(set(values)) != len(values):
            raise InvalidDistributionError(
                f"variable {name!r} has duplicate values: {values!r}"
            )
        if probabilities is None:
            probabilities = tuple(1.0 / len(values) for _ in values)
        elif type(probabilities) is not tuple or not all(
            type(p) is float for p in probabilities
        ):
            # A tuple of floats is kept as given, so variables built
            # from one tuple share it.
            probabilities = tuple(map(float, probabilities))
        if len(probabilities) != len(values):
            raise InvalidDistributionError(
                f"variable {name!r}: {len(values)} values but "
                f"{len(probabilities)} probabilities"
            )
        if any(p < 0.0 for p in probabilities):
            raise InvalidDistributionError(
                f"variable {name!r} has negative probabilities"
            )
        total = math.fsum(probabilities)
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise InvalidDistributionError(
                f"variable {name!r}: probabilities sum to {total}, expected 1"
            )
        self._name = name
        self._values = values
        self._probabilities = probabilities
        self._index = {value: i for i, value in enumerate(values)}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> Hashable:
        """The variable's identifier."""
        return self._name

    @property
    def values(self) -> Tuple[Hashable, ...]:
        """The support of the variable, in construction order."""
        return self._values

    @property
    def probabilities(self) -> Tuple[float, ...]:
        """The probability of each value, aligned with :attr:`values`."""
        return self._probabilities

    @property
    def num_values(self) -> int:
        """Size of the support."""
        return len(self._values)

    def probability_of(self, value: Hashable) -> float:
        """Return ``Pr[X = value]``.

        Raises
        ------
        InvalidAssignmentError
            If ``value`` is not in the support.
        """
        index = self._index.get(value)
        if index is None:
            raise InvalidAssignmentError(
                f"value {value!r} is not in the support of variable "
                f"{self._name!r}"
            )
        return self._probabilities[index]

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def index_of(self, value: Hashable) -> Optional[int]:
        """Position of ``value`` in :attr:`values`, or ``None`` if absent.

        The compiled probability engine uses value indices as mixed-radix
        digits; a ``None`` signals an out-of-support value that must take
        the uncompiled path.
        """
        return self._index.get(value)

    def support_items(self) -> Iterable[Tuple[Hashable, float]]:
        """Yield ``(value, probability)`` pairs with positive probability."""
        for value, prob in zip(self._values, self._probabilities):
            if prob > 0.0:
                yield value, prob

    @property
    def is_uniform(self) -> bool:
        """Whether every value has the same probability."""
        first = self._probabilities[0]
        return all(abs(p - first) <= _SUM_TOLERANCE for p in self._probabilities)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng) -> Hashable:
        """Draw one value using ``rng`` (a :class:`random.Random`)."""
        point = rng.random()
        cumulative = 0.0
        for value, prob in zip(self._values, self._probabilities):
            cumulative += prob
            if point < cumulative:
                return value
        # Floating point slack: fall back to the last positive-probability
        # value so sampling never fails.
        for value, prob in reversed(tuple(zip(self._values, self._probabilities))):
            if prob > 0.0:
                return value
        return self._values[-1]

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, name: Hashable, values: Sequence[Hashable]) -> "DiscreteVariable":
        """A uniformly distributed variable over ``values``."""
        return cls(name, values)

    @classmethod
    def fair_coin(cls, name: Hashable) -> "DiscreteVariable":
        """A uniform variable over ``(0, 1)``."""
        return cls(name, (0, 1))

    @classmethod
    def bernoulli(cls, name: Hashable, p_one: float) -> "DiscreteVariable":
        """A ``{0, 1}`` variable with ``Pr[X = 1] = p_one``."""
        return cls(name, (0, 1), (1.0 - p_one, p_one))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        return hash(self._name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteVariable):
            return NotImplemented
        return (
            self._name == other._name
            and self._values == other._values
            and self._probabilities == other._probabilities
        )

    def __repr__(self) -> str:
        return (
            f"DiscreteVariable(name={self._name!r}, "
            f"values={self._values!r}, probabilities={self._probabilities!r})"
        )
