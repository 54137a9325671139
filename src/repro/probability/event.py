"""Bad events over discrete random variables, with exact conditionals.

A :class:`BadEvent` is a predicate over the values of a finite *scope* of
independent discrete variables.  The central operation is
:meth:`BadEvent.probability`: the exact probability that the event occurs
conditioned on a partial assignment.

Exactness matters: the paper's algorithms compare conditional probability
*ratios* (``Inc`` values) against geometric constraints with equality cases,
so a Monte-Carlo estimate would make the invariant checks meaningless.

Two engines compute the same quantities (see
:mod:`repro.probability.engine`):

* the **naive** enumerator walks the product space of the still-unfixed
  scope variables and calls the predicate per outcome — always available,
  retained as the differential oracle;
* the **compiled** kernel (default) tabulates the predicate once into a
  mixed-radix truth table, after which ``probability`` is a strided sum
  over the pinned table slice and :meth:`conditional_increases` answers
  the ``Inc`` ratios of *all* candidate values of a variable in a single
  table pass.

The public signatures are engine-agnostic; callers outside the hot path
never see the difference.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.artifacts.fingerprint import event_shape_key
from repro.artifacts.store import LRUCache, STORE as _ARTIFACTS
from repro.errors import EnumerationLimitError, InvalidAssignmentError, UnknownVariableError
from repro.planes import planes
from repro.probability import engine as _engine
from repro.probability.assignment import PartialAssignment
from repro.probability.engine import EventKernel, checked_mass_sum
from repro.probability.variable import DiscreteVariable

#: Default cap on the number of outcomes enumerated per probability query.
DEFAULT_ENUMERATION_LIMIT = 1 << 22

#: Default cap on memoised conditional probabilities per event.  A long
#: sweep touches each event under many scope restrictions; the cap keeps
#: memory bounded while still covering the working set of a fixing run.
DEFAULT_CACHE_LIMIT = 4096


class _Uncompiled:
    """Sentinel: kernel compilation has not been attempted yet."""

    __slots__ = ()


_UNCOMPILED = _Uncompiled()


class BadEvent:
    """A bad event depending on a finite set of discrete variables.

    Parameters
    ----------
    name:
        Hashable identifier, unique within an LLL instance.  In the
        distributed view this is the node of the dependency graph hosting
        the event.
    variables:
        The scope: every variable the predicate may read.  The dependency
        graph of an instance is derived from scope intersections, so the
        scope should be tight.
    predicate:
        ``predicate(values)`` receives a dict mapping each scope variable's
        name to a value and returns ``True`` iff the *bad* event occurs
        under that outcome.
    enumeration_limit:
        Safety cap on exact enumeration size (see
        :class:`repro.errors.EnumerationLimitError`).
    cache_limit:
        Cap on memoised conditional probabilities; the least recently
        used entry is evicted once the cap is reached.  ``0`` disables
        caching.
    """

    __slots__ = (
        "_name",
        "_variables",
        "_scope_names",
        "_predicate",
        "_enumeration_limit",
        "_cache",
        "_cache_limit",
        "_kernel",
        "_bad_outcomes_hint",
        "_shape_key",
    )

    def __init__(
        self,
        name: Hashable,
        variables: Sequence[DiscreteVariable],
        predicate: Callable[[Mapping[Hashable, Hashable]], bool],
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        self._name = name
        self._variables = tuple(variables)
        self._scope_names = tuple(v.name for v in self._variables)
        if len(set(self._scope_names)) != len(self._scope_names):
            raise UnknownVariableError(
                f"event {name!r} lists a variable twice in its scope"
            )
        self._predicate = predicate
        self._enumeration_limit = int(enumeration_limit)
        self._cache_limit = int(cache_limit)
        self._cache = LRUCache(self._cache_limit)
        self._kernel = _UNCOMPILED
        self._bad_outcomes_hint: Optional[FrozenSet[Tuple[Hashable, ...]]] = None
        # Memoised shape key (repro.artifacts.fingerprint); the event is
        # immutable once its hint is set, so it never goes stale.
        self._shape_key: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> Hashable:
        """The event's identifier."""
        return self._name

    @property
    def variables(self) -> Tuple[DiscreteVariable, ...]:
        """The scope variables, in construction order."""
        return self._variables

    @property
    def scope_names(self) -> Tuple[Hashable, ...]:
        """Names of the scope variables."""
        return self._scope_names

    def depends_on(self, variable_name: Hashable) -> bool:
        """Whether ``variable_name`` is in the event's scope."""
        return variable_name in self._scope_names

    @property
    def bad_outcomes_hint(self) -> Optional[FrozenSet[Tuple[Hashable, ...]]]:
        """The tabulated bad outcomes, when the event carries them.

        Present on events built via :meth:`from_bad_outcomes` /
        :meth:`all_equal` (and everything loaded through
        :mod:`repro.lll.io`); the hint is the complete predicate
        semantics, which is what makes an event — and any instance
        containing it — structurally fingerprintable for the artifact
        cache.  ``None`` for opaque predicate closures.
        """
        return self._bad_outcomes_hint

    # ------------------------------------------------------------------
    # Kernel management
    # ------------------------------------------------------------------
    def _acquire_kernel(self) -> Optional[EventKernel]:
        """The compiled kernel, or ``None`` when unavailable.

        Compilation happens lazily on first use and only when the engine
        mode is ``compiled`` and the full scope product fits under both
        the compile limit and the event's own enumeration limit (so a
        kernel-computable query is always naive-computable too).
        """
        if planes().engine == "naive":
            return None
        kernel = self._kernel
        if kernel is _UNCOMPILED:
            kernel = self._compile_kernel()
            self._kernel = kernel
        return kernel

    def _compile_kernel(self) -> Optional[EventKernel]:
        limit = min(_engine.compile_limit(), self._enumeration_limit)
        size = 1
        for variable in self._variables:
            size *= variable.num_values
            if size > limit:
                return None
        # Shape reuse: an event whose semantics are tabulated
        # (bad-outcomes hint) has a name-free shape key, and a kernel
        # holds no names, so every event of that shape — in this
        # instance or in one solved earlier — shares one compile.
        # Compile counts are therefore per distinct shape under
        # REPRO_ARTIFACTS=on and per event under off.
        shape_key = (
            event_shape_key(self) if planes().artifacts == "on" else None
        )
        if shape_key is not None:
            kernel = _ARTIFACTS.get("kernels", shape_key)
            if kernel is not None:
                _engine.STATS.kernel_reuses += 1
                return kernel
        if self._bad_outcomes_hint is not None:
            kernel = EventKernel.from_outcomes(
                self._variables, self._bad_outcomes_hint
            )
        else:
            kernel = EventKernel.compile(self._variables, self._predicate)
        _engine.STATS.kernel_compiles += 1
        _engine.STATS.kernel_compile_outcomes += kernel.num_outcomes
        from repro.obs.recorder import active as _obs_active

        recorder = _obs_active()
        if recorder is not None:
            recorder.count("engine", "kernel_compiles_live")
            recorder.event(
                "engine",
                "kernel_compile",
                event_name=repr(self._name),
                outcomes=kernel.num_outcomes,
                bad_outcomes=kernel.num_bad,
            )
        if shape_key is not None:
            _ARTIFACTS.put("kernels", shape_key, kernel)
        return kernel

    @property
    def kernel_compiled(self) -> bool:
        """Whether a compiled kernel is attached to this event."""
        return isinstance(self._kernel, EventKernel)

    def compiled_kernel(self) -> Optional[EventKernel]:
        """The event's compiled kernel, compiling lazily if possible.

        Returns ``None`` when the engine runs in naive mode or the scope
        product exceeds the compile limit — callers (the batch and
        process schedulers) must fall back to the regular event API.
        """
        return self._acquire_kernel()

    def _pins(self, assignment: PartialAssignment) -> Optional[List[int]]:
        """Pinned value indices per scope position (``-1`` = free).

        Returns ``None`` when a fixed value is outside its variable's
        support (possible for assignments built from raw dicts); such
        queries fall back to the naive path, which hands the raw value to
        the predicate exactly as before.
        """
        kernel = self._kernel
        pins: List[int] = []
        for position, name in enumerate(self._scope_names):
            if assignment.is_fixed(name):
                index = kernel.value_index(position, assignment.value_of(name))
                if index is None:
                    return None
                pins.append(index)
            else:
                pins.append(-1)
        return pins

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def occurs(self, assignment: PartialAssignment) -> bool:
        """Evaluate the predicate under a *complete* (for this scope) assignment.

        Raises
        ------
        UnknownVariableError
            If any scope variable is unfixed.
        """
        for name in self._scope_names:
            if not assignment.is_fixed(name):
                raise UnknownVariableError(
                    f"cannot evaluate event {self._name!r}: variable {name!r} "
                    f"is not fixed"
                )
        kernel = self._acquire_kernel()
        if kernel is not None:
            row: List[int] = []
            for position, name in enumerate(self._scope_names):
                index = kernel.value_index(position, assignment.value_of(name))
                if index is None:
                    break
                row.append(index)
            else:
                return kernel.occurs(row)
        return self.predicate_occurs(assignment)

    def predicate_occurs(self, assignment: PartialAssignment) -> bool:
        """The predicate itself under an assignment fixing the whole scope.

        What :meth:`occurs` answers without a kernel, or for a value its
        kernel cannot index (one outside the variable's value list).
        """
        values = {
            name: assignment.value_of(name) for name in self._scope_names
        }
        return bool(self._predicate(values))

    def probability(self, assignment: Optional[PartialAssignment] = None) -> float:
        """Exact ``Pr[event | assignment]``.

        Unfixed scope variables are enumerated over their full support;
        fixed scope variables are pinned.  Variables outside the scope are
        ignored (they are independent of the event).
        """
        if assignment is None:
            assignment = _EMPTY_ASSIGNMENT
        key = assignment.restriction_key(self._scope_names)
        cached = self._cache.get(key)
        if cached is not None:
            _engine.STATS.cache_hits += 1
            return cached
        _engine.STATS.cache_misses += 1

        probability = None
        kernel = self._acquire_kernel()
        if kernel is not None:
            pins = self._pins(assignment)
            if pins is not None:
                probability = kernel.probability(
                    pins, f"event {self._name!r}"
                )
        if probability is None:
            probability = self._naive_probability(assignment)
        self._cache_store(key, probability)
        return probability

    def _naive_probability(self, assignment: PartialAssignment) -> float:
        """The enumerating oracle path (also the large-scope fallback)."""
        _engine.STATS.naive_queries += 1
        fixed_values: Dict[Hashable, Hashable] = {}
        free: List[DiscreteVariable] = []
        for variable in self._variables:
            if assignment.is_fixed(variable.name):
                fixed_values[variable.name] = assignment.value_of(variable.name)
            else:
                free.append(variable)
        self._check_enumeration_size(free)
        return self._enumerate(fixed_values, free)

    def _check_enumeration_size(
        self, free: Sequence[DiscreteVariable]
    ) -> int:
        """Validate the full free-scope product *before* any enumeration.

        Raises
        ------
        EnumerationLimitError
            Naming the event's scope so oversized instances fail fast,
            with zero enumeration work done.
        """
        outcome_count = 1
        for variable in free:
            outcome_count *= variable.num_values
        if outcome_count > self._enumeration_limit:
            raise EnumerationLimitError(
                f"event {self._name!r} (scope {self._scope_names!r}): "
                f"enumerating {outcome_count} outcomes over {len(free)} "
                f"free variables exceeds the limit of "
                f"{self._enumeration_limit}"
            )
        return outcome_count

    def _enumerate(
        self,
        fixed_values: Dict[Hashable, Hashable],
        free: Sequence[DiscreteVariable],
    ) -> float:
        """Sum the probability mass of outcomes where the predicate holds."""
        if not free:
            return 1.0 if self._predicate(fixed_values) else 0.0
        supports = [tuple(variable.support_items()) for variable in free]
        names = [variable.name for variable in free]
        terms = []
        values = dict(fixed_values)
        for combo in itertools.product(*supports):
            mass = 1.0
            for name, (value, prob) in zip(names, combo):
                values[name] = value
                mass *= prob
            if self._predicate(values):
                terms.append(mass)
        return checked_mass_sum(terms, f"event {self._name!r}")

    def conditional_increase(
        self,
        assignment: PartialAssignment,
        variable: DiscreteVariable,
        value: Hashable,
    ) -> float:
        """The ``Inc`` ratio of the paper for fixing ``variable = value``.

        Returns ``Pr[event | assignment, variable=value] /
        Pr[event | assignment]``, or ``0.0`` when the denominator is zero
        (matching the convention below Definition 3.8 of the paper).
        Fixing a variable outside the scope returns ``1.0``.
        """
        if not self.depends_on(variable.name):
            return 1.0
        before = self.probability(assignment)
        if before == 0.0:
            return 0.0
        after = self.probability(assignment.fixed(variable, value))
        return after / before

    def conditional_increases(
        self,
        assignment: PartialAssignment,
        variable: DiscreteVariable,
    ) -> Dict[Hashable, float]:
        """Batch ``Inc``: the ratio for *every* support value at once.

        Equivalent to ``{y: conditional_increase(assignment, variable, y)
        for y, _ in variable.support_items()}`` but, under the compiled
        engine, computed in a single table pass instead of one enumeration
        per candidate value.  The per-value conditional probabilities are
        written into the cache, so the follow-up ``probability`` query
        after the fixer commits a value is a cache hit.

        ``variable`` must not be fixed in ``assignment`` (the fixers only
        ever query unfixed variables).
        """
        if not self.depends_on(variable.name):
            return {value: 1.0 for value, _prob in variable.support_items()}
        if assignment.is_fixed(variable.name):
            raise InvalidAssignmentError(
                f"conditional_increases: variable {variable.name!r} is "
                f"already fixed"
            )
        before = self.probability(assignment)
        if before == 0.0:
            return {value: 0.0 for value, _prob in variable.support_items()}

        kernel = self._acquire_kernel()
        if kernel is not None:
            pins = self._pins(assignment)
            if pins is not None:
                target = self._scope_names.index(variable.name)
                afters = kernel.conditional_masses(
                    pins, target, f"event {self._name!r}"
                )
                increases: Dict[Hashable, float] = {}
                for value, _prob in variable.support_items():
                    index = kernel.value_index(target, value)
                    after = afters[index]
                    key = assignment.restriction_key_with(
                        self._scope_names, variable.name, value
                    )
                    if key not in self._cache:
                        self._cache_store(key, after)
                    increases[value] = after / before
                return increases

        _engine.STATS.naive_batch_queries += 1
        return {
            value: self.conditional_increase(assignment, variable, value)
            for value, _prob in variable.support_items()
        }

    # ------------------------------------------------------------------
    # Tabulation
    # ------------------------------------------------------------------
    def bad_outcomes(
        self, limit: Optional[int] = None
    ) -> List[Tuple[Hashable, ...]]:
        """Tabulate the bad outcomes as value tuples in scope order.

        Reuses the compiled truth table when one is available (or
        compilable); otherwise enumerates the predicate over the full
        scope product, capped at ``limit`` (default: the event's
        enumeration limit).  Outcomes are returned in lexicographic
        (mixed-radix code) order, so serialisation round trips are
        byte-stable across engines.
        """
        kernel = self._acquire_kernel()
        if kernel is not None:
            return kernel.bad_value_tuples()
        cap = self._enumeration_limit if limit is None else int(limit)
        outcome_count = 1
        for variable in self._variables:
            outcome_count *= variable.num_values
        if outcome_count > cap:
            raise EnumerationLimitError(
                f"event {self._name!r} (scope {self._scope_names!r}): "
                f"tabulating {outcome_count} outcomes exceeds the limit "
                f"{cap}"
            )
        outcomes: List[Tuple[Hashable, ...]] = []
        values: Dict[Hashable, Hashable] = {}
        for combo in itertools.product(
            *(variable.values for variable in self._variables)
        ):
            for name, value in zip(self._scope_names, combo):
                values[name] = value
            if self._predicate(values):
                outcomes.append(combo)
        return outcomes

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _cache_store(
        self, key: Tuple[Tuple[Hashable, Hashable], ...], value: float
    ) -> None:
        if self._cache.put(key, value) is not None:
            _engine.STATS.cache_evictions += 1

    def clear_cache(self) -> None:
        """Drop all memoised conditional probabilities."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        """Number of memoised conditional probabilities."""
        return len(self._cache)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/eviction counts and current size/limit of the cache."""
        cache = self._cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "size": len(cache),
            "limit": self._cache_limit,
        }

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def from_bad_outcomes(
        cls,
        name: Hashable,
        variables: Sequence[DiscreteVariable],
        bad_outcomes: Iterable[Tuple[Hashable, ...]],
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> "BadEvent":
        """Build an event from an explicit list of bad outcome tuples.

        Each tuple lists one value per scope variable, aligned with
        ``variables``.  The outcome set doubles as a precomputed truth
        table: the compiled engine builds the kernel directly from it,
        without re-enumerating the scope product.
        """
        order = tuple(v.name for v in variables)
        bad = frozenset(tuple(outcome) for outcome in bad_outcomes)

        def predicate(values: Mapping[Hashable, Hashable]) -> bool:
            return tuple(values[n] for n in order) in bad

        event = cls(name, variables, predicate, enumeration_limit)
        event._bad_outcomes_hint = bad
        return event

    @classmethod
    def all_equal(
        cls,
        name: Hashable,
        variables: Sequence[DiscreteVariable],
        target: Hashable,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> "BadEvent":
        """The event "every scope variable equals ``target``".

        This is the shape of sinkless-orientation-style events: a node is
        bad iff every incident edge variable points at it.
        """
        order = tuple(v.name for v in variables)

        def predicate(values: Mapping[Hashable, Hashable]) -> bool:
            return all(values[n] == target for n in order)

        event = cls(name, variables, predicate, enumeration_limit)
        if all(target in variable for variable in variables):
            event._bad_outcomes_hint = frozenset(
                {tuple(target for _ in variables)}
            )
        else:
            event._bad_outcomes_hint = frozenset()
        return event

    def __repr__(self) -> str:
        return f"BadEvent(name={self._name!r}, scope={self._scope_names!r})"


_EMPTY_ASSIGNMENT = PartialAssignment()
