"""Exact discrete probability engine (substrate S1).

Independent finite random variables (:class:`DiscreteVariable`), partial
assignments (:class:`PartialAssignment`), bad events with exact conditional
probabilities (:class:`BadEvent`), whole-space operations
(:class:`ProductSpace`), and the table-driven compiled kernel engine
(:mod:`repro.probability.engine`, the ``engine`` plane of
:mod:`repro.planes`).
"""

from repro.probability.assignment import PartialAssignment
from repro.probability.engine import (
    EventKernel,
    reset_stats as reset_engine_stats,
    stats as engine_stats,
)
from repro.probability.event import (
    BadEvent,
    DEFAULT_CACHE_LIMIT,
    DEFAULT_ENUMERATION_LIMIT,
)
from repro.probability.space import DEFAULT_SPACE_LIMIT, ProductSpace
from repro.probability.variable import DiscreteVariable

__all__ = [
    "BadEvent",
    "DiscreteVariable",
    "EventKernel",
    "PartialAssignment",
    "ProductSpace",
    "DEFAULT_CACHE_LIMIT",
    "DEFAULT_ENUMERATION_LIMIT",
    "DEFAULT_SPACE_LIMIT",
    "engine_stats",
    "reset_engine_stats",
]
