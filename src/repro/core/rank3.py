"""The rank-3 deterministic fixer (Theorem 1.3 / Corollary 1.4).

Variables may affect up to three bad events.  The fixer maintains
property P* (:class:`repro.core.pstar.PStarState`).  To fix a rank-3
variable on the event triangle ``{u, v, w}``:

1. read the current representable triple
   ``(a, b, c) = (phi_e^u phi_e'^u, phi_e^v phi_e''^v, phi_e'^w phi_e''^w)``,
2. for each candidate value ``y`` compute the exact increase triple
   ``(Inc(u,y), Inc(v,y), Inc(w,y))``,
3. keep the values whose scaled triple stays in ``S_rep`` — these are
   exactly the non-(a,b,c)-evil values of Definition 3.8, whose existence
   Lemma 3.2 guarantees via the incurvedness of ``S_rep`` —
4. fix the variable to the value with the largest representability
   margin and write the decomposition of the new triple back onto the
   three edges.

Rank-2 variables are handled by the weighted pair rule (the "weighted
version" discussed in Section 3.1): with current edge values ``(s, t)``
there is a value with ``s*Inc_u + t*Inc_v <= 2``, and the edge is updated
to ``(s*Inc_u, t*Inc_v)``.  Rank-1 variables take any value with
``Inc <= 1``.  This realises the paper's virtual-third-event reduction
without inflating the dependency graph.

The ``Inc`` ratios come from the batch
:meth:`~repro.probability.BadEvent.conditional_increases` API via
:mod:`repro.core.selection` — one query per affected event per step, a
single truth-table pass each under the compiled engine (see
``docs/engine.md``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from repro.obs.recorder import MARGIN_BUCKETS
from repro.lll.instance import LLLInstance
from repro.lll.verify import check_preconditions
from repro.core import vector
from repro.core.fixer import Fixer
from repro.core.pstar import PStarState, checked_edge_write, observe_edge_write
from repro.core.results import FixingResult


_apply_slots = itemgetter(vector.TOP_APPLY)


class Rank3Fixer(Fixer):
    """Sequential deterministic fixer for instances of rank at most 3.

    Parameters
    ----------
    instance:
        The LLL instance.  Every variable must affect at most three events.
    require_criterion:
        If True (default), reject instances violating ``p < 2^-d``.
        Disable to probe behaviour at the threshold, where
        :class:`NoGoodValueError` may legitimately occur.
    validate_invariant:
        If True, assert property P* after every fixing step (slow; used
        by tests).
    """

    vector_kind = "rank3"
    obs_component = "fixer.rank3"

    def __init__(
        self,
        instance: LLLInstance,
        require_criterion: bool = True,
        validate_invariant: bool = False,
    ) -> None:
        check_preconditions(
            instance, max_rank=3, require_criterion=require_criterion
        )
        super().__init__(instance, validate_invariant)
        self._pstar = PStarState(instance)

    @property
    def pstar(self) -> PStarState:
        """The live property-P* bookkeeping state."""
        return self._pstar

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def local_weights(self, variable, events: Sequence) -> Tuple[float, ...]:
        """The phi-ledger values a decision on ``events`` reads.

        ``()`` for rank 1, the edge pair ``(phi_e^u, phi_e^v)`` for rank
        2, the representable triple ``(a, b, c)`` for rank 3.
        """
        names = tuple(event.name for event in events)
        ref = self._ledger_ref(variable, names)
        if ref is None:
            return ()
        if len(names) == 2:
            u, v = names
            return (ref[u], ref[v])
        u, v, w = names
        entry_uv, entry_uw, entry_vw = ref
        return (
            entry_uv[u] * entry_uw[u],
            entry_uv[v] * entry_vw[v],
            entry_uw[w] * entry_vw[w],
        )

    def _ledger_ref(self, variable, names, keys=None):
        """``None``, the edge's phi entry, or the triangle's three entries.

        ``keys`` are the entries' edge keys when the caller holds them
        (the vector plane's template does); a given key with no entry
        raises ``KeyError``.  Keys derived here are checked against the
        dependency graph (:meth:`PStarState.edge_key`).  P* entries all
        exist from the start, so there is no first touch to record.
        """
        if len(names) == 1:
            return None
        if keys is None:
            edge_key = self._pstar.edge_key
            if len(names) == 2:
                keys = (edge_key(*names),)
            else:
                u, v, w = names
                keys = (edge_key(u, v), edge_key(u, w), edge_key(v, w))
        entries = self._pstar.entries
        if len(keys) == 1:
            return entries[keys[0]]
        return (entries[keys[0]], entries[keys[1]], entries[keys[2]])

    def _write(self, ref, names, choice):
        """Write phi values, validated like :meth:`PStarState.set_edge`.

        Values certainly in range (non-negative pairs summing to at most
        2 — the common case) are written directly; anything else goes
        through :func:`repro.core.pstar.checked_edge_write`, so
        validation, clamping and error messages match ``set_edge``
        exactly, and the clamped values are returned.
        """
        if len(names) == 2:
            u, v = names
            value_u, value_v = choice.new_weights
            if value_u >= 0.0 and value_v >= 0.0 and value_u + value_v <= 2.0:
                ref[u] = value_u
                ref[v] = value_v
                return None
            checked_edge_write(ref, u, v, value_u, value_v)
            return (ref[u], ref[v])
        u, v, w = names
        entry_uv, entry_uw, entry_vw = ref
        a1, b1, a2, c2, b3, c3 = choice.new_weights
        if (
            a1 >= 0.0
            and b1 >= 0.0
            and a1 + b1 <= 2.0
            and a2 >= 0.0
            and c2 >= 0.0
            and a2 + c2 <= 2.0
            and b3 >= 0.0
            and c3 >= 0.0
            and b3 + c3 <= 2.0
        ):
            entry_uv[u] = a1
            entry_uv[v] = b1
            entry_uw[u] = a2
            entry_uw[w] = c2
            entry_vw[v] = b3
            entry_vw[w] = c3
            return None
        checked_edge_write(entry_uv, u, v, a1, b1)
        checked_edge_write(entry_uw, u, w, a2, c2)
        checked_edge_write(entry_vw, v, w, b3, c3)
        return (
            entry_uv[u],
            entry_uv[v],
            entry_uw[u],
            entry_uw[w],
            entry_vw[v],
            entry_vw[w],
        )

    # ------------------------------------------------------------------
    # Vector plane
    # ------------------------------------------------------------------
    def _fill_phi(self, phi, template) -> None:
        """Copy every P* entry into its phi slots."""
        entries = self._pstar.entries
        names = template.names
        for base, _first_key, keys in template.ledger_keys:
            width = keys.shape[1]
            for index, row in enumerate(keys.tolist()):
                members = [names[event] for event in row]
                live = entries.get(frozenset(members))
                if live is not None:
                    slot = base + index * width
                    for offset, name in enumerate(members):
                        phi[slot + offset] = live[name]

    def _open_section(self, state, section):
        """The live P* entries of the section's ops."""
        return vector.section_refs(state, section, self)

    def _commit_decided(self, records, ops, choices, parts, phi) -> None:
        """Per-op writes through the live entries; clamped values go
        back into ``phi``."""
        if len(parts) == 1:
            refs = parts[0][2]
        else:
            refs = [ref for part in parts for ref in part[2]]
        self._commit_ops(
            zip(records, refs, map(_apply_slots, ops), choices), phi
        )

    def _observe_step(self, recorder, record, ref) -> None:
        """P* edge writes, and the margin of a rank-3 step."""
        for entry in (ref,) if isinstance(ref, dict) else ref or ():
            observe_edge_write(recorder, entry)
        if len(record.events) == 3:
            recorder.observe(
                self.obs_component,
                "representability_margin",
                record.slack,
                bounds=MARGIN_BUCKETS,
            )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def certified_bounds(self) -> Dict[Hashable, float]:
        """The P* bound ``p_v * prod phi_e^v`` of every event."""
        return self._pstar.certified_bounds()

    def check_invariant(self) -> None:
        """Assert property P* for the current partial assignment."""
        self._pstar.check(self._assignment)


def solve_rank3(
    instance: LLLInstance,
    order: Optional[Iterable[Hashable]] = None,
    require_criterion: bool = True,
) -> FixingResult:
    """Convenience wrapper: build a :class:`Rank3Fixer` and run it."""
    fixer = Rank3Fixer(instance, require_criterion=require_criterion)
    return fixer.run(order)
