"""Compiled event kernels: the table-driven exact-probability engine.

The naive substrate re-enumerates an event's predicate over the Cartesian
product of its free supports on *every* probability query.  This module
compiles each predicate **once** into a tabulated kernel indexed by
mixed-radix outcome codes:

* each scope variable gets a *stride* (the mixed-radix place value of its
  position) and a *weight vector* (its probability tuple);
* the full outcome table is enumerated a single time, and the outcomes
  where the predicate holds are kept as rows of value indices (plus their
  codes, for O(1) ``occurs`` membership);
* ``probability(assignment)`` becomes a strided sum over the table rows
  consistent with the pins of the fixed scope variables — no predicate
  calls, no per-outcome dict building;
* ``conditional_increases`` computes the ``Inc`` ratios of Definition 3.8
  for *every* candidate value of a variable in one table pass, by
  bucketing row masses on the target variable's index.

Numerical contract: the kernel multiplies the same probability floats in
the same (scope-position) order as the naive enumerator and sums with
``math.fsum``, so the two engines agree bit-for-bit wherever both are
defined — the differential Hypothesis suite in
``tests/test_probability_engine.py`` holds them to 1e-12.

The engine is the ``engine`` plane of :mod:`repro.planes`: ``compiled``
by default; ``naive`` (``REPRO_ENGINE=naive``) retains the enumerating
path as the differential oracle.  Events whose full scope product
exceeds :func:`compile_limit` are never compiled and always take the
naive path, so oversized scopes keep their existing
:class:`~repro.errors.EnumerationLimitError` behaviour.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.artifacts.fingerprint import content_digest
from repro.errors import ProbabilityMassError

#: Probability mass above ``1 + tolerance`` indicates a support/weight bug.
PROBABILITY_MASS_TOLERANCE = 1e-9

#: Default cap on the full-scope outcome count a kernel may tabulate.
DEFAULT_COMPILE_LIMIT = 1 << 16


def compile_limit() -> int:
    """Maximum full-scope outcome count a kernel may tabulate."""
    return DEFAULT_COMPILE_LIMIT


# ----------------------------------------------------------------------
# Engine statistics (aggregated across all events; see repro.obs)
# ----------------------------------------------------------------------
_STAT_NAMES = (
    "kernel_compiles",
    "kernel_reuses",
    "kernel_compile_outcomes",
    "kernel_queries",
    "kernel_batch_queries",
    "kernel_occurs_queries",
    "naive_queries",
    "naive_batch_queries",
    "vector_queries",
    "vector_passes",
    "vector_fallbacks",
    "vector_memo_hits",
    "verify_columnar_events",
    "verify_scalar_events",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
)


class EngineStats:
    """Plain-integer counters; incremented inline on the hot path."""

    __slots__ = _STAT_NAMES

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in _STAT_NAMES:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_NAMES}


#: The process-wide counters every event increments.
STATS = EngineStats()

#: Snapshot of the last values pushed to a recorder, per stat name.
_PUBLISHED: Dict[str, int] = {name: 0 for name in _STAT_NAMES}


def reset_stats() -> None:
    """Zero the engine counters (and the published snapshot)."""
    STATS.reset()
    for name in _STAT_NAMES:
        _PUBLISHED[name] = 0


def stats() -> Dict[str, int]:
    """Current values of all engine counters."""
    return STATS.as_dict()


def publish_stats(recorder) -> Dict[str, int]:
    """Push counter *deltas* since the last publish into ``recorder``.

    Counters on a :class:`repro.obs.Recorder` are monotonic, so repeated
    publishes must only add what accrued in between.  Returns the deltas.
    """
    deltas: Dict[str, int] = {}
    for name in _STAT_NAMES:
        value = getattr(STATS, name)
        delta = value - _PUBLISHED[name]
        if delta > 0:
            recorder.count("engine", name, delta)
            _PUBLISHED[name] = value
            deltas[name] = delta
    return deltas


# ----------------------------------------------------------------------
# Mass checking (satellite: no silent clamping)
# ----------------------------------------------------------------------
def checked_mass_sum(terms: Iterable[float], context: str) -> float:
    """``fsum`` the probability terms, rejecting mass beyond ``1 + eps``.

    A total above ``1 + PROBABILITY_MASS_TOLERANCE`` cannot arise from
    valid distributions; it indicates a support/weight bug, so it raises
    :class:`~repro.errors.ProbabilityMassError` instead of being clamped
    silently.  Float dust within tolerance is still clamped to 1.0 so the
    invariant checks downstream can rely on probabilities ``<= 1``.
    """
    total = math.fsum(terms)
    if total > 1.0 + PROBABILITY_MASS_TOLERANCE:
        raise ProbabilityMassError(
            f"{context}: probability mass sums to {total!r} > 1; "
            f"the supports or weights are inconsistent"
        )
    return min(total, 1.0)


# ----------------------------------------------------------------------
# The compiled kernel
# ----------------------------------------------------------------------
class EventKernel:
    """A predicate compiled into a mixed-radix outcome table.

    Rows are the *bad* outcomes, stored as tuples of per-variable value
    indices (scope order); ``codes`` are their mixed-radix encodings
    ``sum(index[i] * stride[i])`` for O(1) ``occurs`` membership.

    Queries take *pins*: a list with one entry per scope position, the
    pinned value index for fixed variables and ``-1`` for free ones.
    """

    __slots__ = (
        "_values",
        "_probs",
        "_index_maps",
        "_num_values",
        "_strides",
        "_rows",
        "_codes",
        "_fingerprint",
        "_batch_arrays",
        "_bad_codes",
        "num_outcomes",
    )

    def __init__(
        self,
        variables: Sequence,
        rows: Iterable[Tuple[int, ...]],
    ) -> None:
        self._values: Tuple[Tuple[Hashable, ...], ...] = tuple(
            variable.values for variable in variables
        )
        self._probs: Tuple[Tuple[float, ...], ...] = tuple(
            variable.probabilities for variable in variables
        )
        self._index_maps: Tuple[Dict[Hashable, int], ...] = tuple(
            {value: index for index, value in enumerate(variable.values)}
            for variable in variables
        )
        self._num_values: Tuple[int, ...] = tuple(
            variable.num_values for variable in variables
        )
        strides = [1] * len(self._num_values)
        for position in range(len(strides) - 2, -1, -1):
            strides[position] = (
                strides[position + 1] * self._num_values[position + 1]
            )
        self._strides: Tuple[int, ...] = tuple(strides)
        self.num_outcomes = 1
        for count in self._num_values:
            self.num_outcomes *= count
        # Sort rows by code: deterministic, and identical to the
        # lexicographic order itertools.product produces.
        self._rows: Tuple[Tuple[int, ...], ...] = tuple(
            sorted(set(tuple(row) for row in rows))
        )
        self._codes: frozenset = frozenset(
            self.encode(row) for row in self._rows
        )
        self._fingerprint: Optional[bytes] = None
        self._batch_arrays = None
        self._bad_codes = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, variables: Sequence, predicate) -> "EventKernel":
        """Enumerate the full outcome table once and keep the bad rows.

        The enumeration is depth-first over scope positions so that each
        step rebinds a *single* entry of the values dict (product-style
        iteration would rewrite every entry per outcome); with the last
        position varying fastest this amortises to ~1 dict write per
        predicate call, which matters because compilation is the only
        O(num_outcomes) work the compiled engine ever does per event.
        """
        names = [variable.name for variable in variables]
        value_lists = [variable.values for variable in variables]
        rows: List[Tuple[int, ...]] = []
        width = len(names)
        if width == 0:
            if predicate({}):
                rows.append(())
            return cls(variables, rows)
        values: Dict[Hashable, Hashable] = {}
        combo = [0] * width
        last = width - 1
        last_name = names[last]
        last_values = value_lists[last]

        def descend(position: int) -> None:
            if position == last:
                for index, value in enumerate(last_values):
                    values[last_name] = value
                    if predicate(values):
                        combo[last] = index
                        rows.append(tuple(combo))
                return
            name = names[position]
            for index, value in enumerate(value_lists[position]):
                values[name] = value
                combo[position] = index
                descend(position + 1)

        descend(0)
        return cls(variables, rows)

    @classmethod
    def from_outcomes(
        cls,
        variables: Sequence,
        bad_outcomes: Iterable[Tuple[Hashable, ...]],
    ) -> "EventKernel":
        """Build a kernel directly from tabulated bad value tuples.

        Used for events constructed via
        :meth:`repro.probability.BadEvent.from_bad_outcomes`: the bad set
        *is* the truth table, so no predicate enumeration is needed.
        Outcomes mentioning values outside a variable's support can never
        occur and are dropped.
        """
        index_maps = [
            {value: index for index, value in enumerate(variable.values)}
            for variable in variables
        ]
        width = len(index_maps)
        rows: List[Tuple[int, ...]] = []
        for outcome in bad_outcomes:
            outcome = tuple(outcome)
            if len(outcome) != width:
                continue
            row: List[int] = []
            for position, value in enumerate(outcome):
                index = index_maps[position].get(value)
                if index is None:
                    break
                row.append(index)
            else:
                rows.append(tuple(row))
        return cls(variables, rows)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_bad(self) -> int:
        """Number of bad outcomes in the table."""
        return len(self._rows)

    @property
    def width(self) -> int:
        """Number of scope positions (variables) of the kernel."""
        return len(self._num_values)

    @property
    def num_values(self) -> Tuple[int, ...]:
        """Support size of each scope position."""
        return self._num_values

    def batch_arrays(self):
        """The truth table as numpy arrays, built lazily and cached.

        Returns ``(rows, factors)`` with shape ``[num_bad, width]``:
        ``rows[r, p]`` is the value index of bad row ``r`` at scope
        position ``p`` and ``factors[r, p]`` its probability weight
        ``probs[p][rows[r, p]]``.  These are the per-kernel inputs
        :class:`KernelStack` pads and stacks for whole-class queries.
        """
        if self._batch_arrays is None:
            np = _numpy()
            rows = np.array(self._rows, dtype=np.int64).reshape(
                self.num_bad, self.width
            )
            factors = np.ones((self.num_bad, self.width), dtype=np.float64)
            for position, probs in enumerate(self._probs):
                factors[:, position] = np.asarray(probs, dtype=np.float64)[
                    rows[:, position]
                ]
            self._batch_arrays = (rows, factors)
        return self._batch_arrays

    @property
    def strides(self) -> Tuple[int, ...]:
        """The mixed-radix place value of each scope position."""
        return self._strides

    def encode(self, row: Sequence[int]) -> int:
        """The mixed-radix code of a row of value indices."""
        code = 0
        for index, stride in zip(row, self._strides):
            code += index * stride
        return code

    def value_index(self, position: int, value: Hashable) -> Optional[int]:
        """Index of ``value`` in the scope variable at ``position``."""
        return self._index_maps[position].get(value)

    def bad_codes(self):
        """The bad rows' mixed-radix codes as a sorted int64 array (cached).

        The columnar form of :meth:`occurs`: a code is bad iff it is in
        this array.
        """
        if self._bad_codes is None:
            np = _numpy()
            self._bad_codes = np.fromiter(
                sorted(self._codes), dtype=np.int64, count=len(self._codes)
            )
        return self._bad_codes

    def support_map(
        self, position: int, values: Tuple[Hashable, ...]
    ) -> Optional[Tuple[int, ...]]:
        """Value indices of a support tuple at one scope position.

        ``None`` if any value is outside the scope variable's value list.
        The vector decide plane asks once per (event shape, scope
        position, support) and keeps the answer on its template.
        """
        index_map = self._index_maps[position]
        indices = tuple(index_map.get(value, -1) for value in values)
        return None if -1 in indices else indices

    def bad_value_tuples(self) -> List[Tuple[Hashable, ...]]:
        """The bad outcomes as value tuples, in code (lexicographic) order.

        This is exactly the tabulation
        :func:`repro.lll.io.instance_to_dict` needs, so serialisation can
        reuse the compiled table instead of re-enumerating the predicate.
        """
        values = self._values
        return [
            tuple(values[position][index] for position, index in enumerate(row))
            for row in self._rows
        ]

    def fingerprint(self) -> bytes:
        """A content digest of the kernel's numeric structure.

        Two kernels share a fingerprint iff they have the same weight
        vectors and the same bad-row table — exactly the inputs that
        determine every numeric query answer (``probability`` and
        ``conditional_masses`` operate on indices, never on value
        labels).  A vector-plane template stacks one truth table per
        fingerprint, so content-identical kernels share a stack slot.
        Cached on the kernel; no table outlives it.
        """
        if self._fingerprint is None:
            self._fingerprint = content_digest((self._probs, self._rows))
        return self._fingerprint

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def occurs(self, row: Sequence[int]) -> bool:
        """Whether the fully-indexed outcome is bad (one set lookup)."""
        STATS.kernel_occurs_queries += 1
        return self.encode(row) in self._codes

    def probability(self, pins: Sequence[int], context: str) -> float:
        """Strided sum over the table slice selected by ``pins``.

        Rows disagreeing with a pinned index contribute nothing; free
        positions contribute their weight-vector entry.  Multiplication
        runs in scope-position order — the same float sequence the naive
        enumerator produces — and the terms are ``fsum``-ed, so the result
        is bit-identical to naive enumeration.
        """
        STATS.kernel_queries += 1
        probs = self._probs
        terms: List[float] = []
        for row in self._rows:
            mass = 1.0
            for position, index in enumerate(row):
                pin = pins[position]
                if pin >= 0:
                    if pin != index:
                        mass = -1.0
                        break
                else:
                    mass *= probs[position][index]
            if mass >= 0.0:
                terms.append(mass)
        return checked_mass_sum(terms, context)

    def conditional_masses(
        self,
        pins: Sequence[int],
        target: int,
        context: str,
    ) -> List[float]:
        """``Pr[event | pins, target=index]`` for every index, in one pass.

        The batch leg of the ``Inc`` computation: row masses are bucketed
        by the target position's value index, skipping the target's own
        weight factor (conditioning pins it).  Entry ``i`` of the result
        equals ``probability(pins with target pinned to i)`` exactly.
        """
        STATS.kernel_batch_queries += 1
        probs = self._probs
        buckets: List[List[float]] = [
            [] for _ in range(self._num_values[target])
        ]
        for row in self._rows:
            mass = 1.0
            for position, index in enumerate(row):
                if position == target:
                    continue
                pin = pins[position]
                if pin >= 0:
                    if pin != index:
                        mass = -1.0
                        break
                else:
                    mass *= probs[position][index]
            if mass >= 0.0:
                buckets[row[target]].append(mass)
        return [checked_mass_sum(terms, context) for terms in buckets]

    def __repr__(self) -> str:
        return (
            f"EventKernel(outcomes={self.num_outcomes}, bad={self.num_bad})"
        )


# ----------------------------------------------------------------------
# Whole-class batch evaluation (the vector decide plane's engine layer)
# ----------------------------------------------------------------------
_NUMPY = None


def _numpy():
    """Import numpy on first batch use, keeping scalar imports light."""
    global _NUMPY
    if _NUMPY is None:
        import numpy

        _NUMPY = numpy
    return _NUMPY


#: Padded-stack cells beyond which :class:`KernelStack` refuses to build
#: (callers fall back to the scalar path instead of burning memory).
DEFAULT_STACK_LIMIT = 1 << 22


class KernelStack:
    """The truth tables of a color class's events, stacked and padded.

    One instance covers every event a class's decisions read: kernel
    ``e``'s table occupies slice ``e`` of three padded arrays —
    ``rows[e, r, p]`` (value indices, padded with 0), ``factors[e, r, p]``
    (probability weights, padded with 1.0) and ``row_valid[e, r]``
    (``False`` for padding rows).  Padded scope positions carry pin ``-1``
    (free) and factor 1.0, so they multiply masses by exactly 1.0 and
    never constrain row validity — the padded query is bit-identical to
    the unpadded one.

    :meth:`query` answers a whole batch of ``conditional_masses`` +
    ``probability`` pairs (one per affected event per op of a wave) in a
    handful of numpy passes, preserving the scalar engine's numerical
    contract:

    * per-row masses multiply the same probability floats in the same
      scope-position order (skipped positions multiply by 1.0, which is
      exact for IEEE doubles);
    * bucket and before sums with more than one surviving row are
      delegated to the scalar kernel methods, whose ``math.fsum`` order
      is the contract — the scatter fast path only applies where a
      bucket holds at most one row, where ``fsum([x]) == x`` exactly;
    * the ``checked_mass_sum`` raise/clamp semantics are reproduced,
      including the per-event error context.
    """

    __slots__ = (
        "kernels",
        "width",
        "depth",
        "rows",
        "factors",
        "row_valid",
        "cells",
    )

    def __init__(self, kernels: Sequence[EventKernel]) -> None:
        np = _numpy()
        self.kernels = list(kernels)
        count = len(self.kernels)
        self.width = max((k.width for k in self.kernels), default=0)
        self.depth = max((k.num_bad for k in self.kernels), default=0)
        depth = max(self.depth, 1)
        width = max(self.width, 1)
        self.cells = count * depth * width
        self.rows = np.zeros((count, depth, width), dtype=np.int64)
        self.factors = np.ones((count, depth, width), dtype=np.float64)
        self.row_valid = np.zeros((count, depth), dtype=bool)
        for index, kernel in enumerate(self.kernels):
            if kernel.num_bad == 0:
                continue
            k_rows, k_factors = kernel.batch_arrays()
            self.rows[index, : kernel.num_bad, : kernel.width] = k_rows
            self.factors[index, : kernel.num_bad, : kernel.width] = k_factors
            self.row_valid[index, : kernel.num_bad] = True

    def query(
        self,
        event_index,
        pins,
        targets,
        max_values: int,
        names: Sequence[Hashable],
    ):
        """Batched ``(conditional_masses, probability)`` for ``Q`` queries.

        Parameters
        ----------
        event_index:
            ``[Q]`` int array — which stacked kernel each query reads.
        pins:
            ``[Q, width]`` int array — the querying event's current pins
            (``-1`` = free), padded with ``-1``.
        targets:
            ``[Q]`` int array — the scope position being conditioned on.
        max_values:
            Width of the returned ``afters`` matrix (max support size
            over the batch); entries beyond a target's support stay 0.
        names:
            Per-*query* event names, for ``checked_mass_sum`` contexts
            (several queries may share one stacked kernel when events
            are deduplicated by fingerprint).

        Returns ``(afters, before)``: ``afters[q, i]`` equals
        ``kernel.conditional_masses(pins, target)[i]`` and ``before[q]``
        equals ``kernel.probability(pins)`` — bit-identical to the
        scalar methods.
        """
        np = _numpy()
        count = int(event_index.shape[0])
        STATS.vector_passes += 1
        STATS.vector_queries += count
        afters = np.zeros((count, max_values), dtype=np.float64)
        before = np.zeros(count, dtype=np.float64)
        if count == 0:
            return afters, before
        if self.depth <= 1:
            # Single-row tables (the common all-zero generators): every
            # bucket holds at most one row, so the scatter path is always
            # exact and the bucket bookkeeping can be skipped wholesale.
            rows0 = self.rows[event_index, 0]
            factors0 = self.factors[event_index, 0]
            free = pins < 0
            valid = self.row_valid[event_index, 0] & (
                free | (pins == rows0)
            ).all(axis=1)
            masses = np.ones(count, dtype=np.float64)
            befores = np.ones(count, dtype=np.float64)
            for position in range(self.width):
                column = factors0[:, position]
                masses = masses * np.where(
                    free[:, position] & (targets != position), column, 1.0
                )
                befores = befores * np.where(free[:, position], column, 1.0)
            lanes = np.arange(count)
            target_values = rows0[lanes, targets]
            afters[lanes[valid], target_values[valid]] = masses[valid]
            before = np.where(valid, befores, 0.0)
            limit = 1.0 + PROBABILITY_MASS_TOLERANCE
            if bool((masses > limit).any()) or bool((befores > limit).any()):
                bad = valid & ((masses > limit) | (befores > limit))
                for q in np.nonzero(bad)[0]:
                    self._scalar_query(
                        np, int(q), event_index, pins, targets, names,
                        afters, before,
                    )
            np.minimum(afters, 1.0, out=afters)
            np.minimum(before, 1.0, out=before)
            return afters, before
        rows = self.rows[event_index]
        factors = self.factors[event_index]
        valid = self.row_valid[event_index]
        if self.width:
            free = pins < 0
            valid = valid & (free[:, None, :] | (pins[:, None, :] == rows)).all(
                axis=2
            )
            masses = np.ones(rows.shape[:2], dtype=np.float64)
            befores = np.ones(rows.shape[:2], dtype=np.float64)
            for position in range(self.width):
                column = factors[:, :, position]
                include = free[:, position] & (targets != position)
                masses = masses * np.where(include[:, None], column, 1.0)
                befores = befores * np.where(
                    free[:, position, None], column, 1.0
                )
        else:
            masses = np.ones(rows.shape[:2], dtype=np.float64)
            befores = masses
        target_values = np.take_along_axis(
            rows, targets[:, None, None], axis=2
        )[:, :, 0]
        keys = np.arange(count)[:, None] * max_values + target_values
        flat_keys = keys[valid]
        bucket_counts = np.bincount(
            flat_keys, minlength=count * max_values
        ).reshape(count, max_values)
        row_counts = valid.sum(axis=1)
        # Queries whose buckets all hold <= 1 row take the exact scatter
        # path (fsum of a singleton is the value itself); the rest replay
        # through the scalar kernel methods to preserve fsum order.
        simple = (bucket_counts.max(axis=1) <= 1) & (row_counts <= 1)
        scatter = valid & simple[:, None]
        afters_flat = afters.reshape(-1)
        afters_flat[keys[scatter]] = masses[scatter]
        before = np.where(
            simple, np.where(valid, befores, 0.0).max(axis=1, initial=0.0), 0.0
        )
        limit = 1.0 + PROBABILITY_MASS_TOLERANCE
        if bool((afters > limit).any()) or bool((before > limit).any()):
            # Over-unit mass: replay the offending queries through the
            # scalar methods so the ProbabilityMassError (context and
            # message included) is the one the scalar engine raises.
            bad = (afters > limit).any(axis=1) | (before > limit)
            for q in np.nonzero(bad)[0]:
                self._scalar_query(
                    np, int(q), event_index, pins, targets, names,
                    afters, before,
                )
        np.minimum(afters, 1.0, out=afters)
        np.minimum(before, 1.0, out=before)
        if not bool(simple.all()):
            for q in np.nonzero(~simple)[0]:
                STATS.vector_fallbacks += 1
                self._scalar_query(
                    np, int(q), event_index, pins, targets, names,
                    afters, before,
                )
        return afters, before

    def _scalar_query(
        self, np, q, event_index, pins, targets, names, afters, before
    ) -> None:
        """Answer query ``q`` via the scalar kernel methods, in place."""
        kernel = self.kernels[int(event_index[q])]
        pin_list = [int(pin) for pin in pins[q, : kernel.width]]
        context = f"event {names[q]!r}"
        target = int(targets[q])
        masses = kernel.conditional_masses(pin_list, target, context)
        afters[q, : len(masses)] = masses
        afters[q, len(masses):] = 0.0
        before[q] = kernel.probability(pin_list, context)
