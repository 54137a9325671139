"""The deterministic fault plan: *what* fails, *where*, reproducibly.

The paper's guarantee is adversarial — below ``p = 2^-d`` the
sequential-local process succeeds under **any** fixing order — and the
execution plane promises the systems-level analogue: a worker may crash,
hang past its deadline or reply slowly, a simulator message may be
dropped or duplicated, and the run must still converge to the exact
serial transcript (or fail with a typed error naming the fault).  A
:class:`FaultPlan` is the adversary of that promise made reproducible:
every injection decision is a pure function of ``(seed, site, index,
attempt)``, derived through a cryptographic hash so it is stable across
processes, platforms and ``PYTHONHASHSEED`` values.  Two runs with the
same plan see byte-identical fault schedules.

Fault classes
-------------

* **Worker faults** (consulted by
  :class:`~repro.runtime.schedulers.ProcessScheduler`, executed by
  :func:`~repro.runtime.workers.execute_chunk_shm`): ``crash`` (the worker
  process dies mid-chunk), ``hang`` (the worker sleeps past any
  reasonable deadline), ``slow`` (bounded extra latency) and ``garble``
  (the worker returns a truncated reply).  Faults may be pinned to an
  explicit chunk (``crash@3``) — which fires on the first attempt only,
  so recovery is deterministic — or drawn at a rate per ``(chunk,
  attempt)``, so a chunk can keep failing until the scheduler's retry
  budget routes it to the in-parent fallback.
* **Message faults** (consulted by the LOCAL simulators): ``drop`` (a
  delivery attempt is lost; the reliable-delivery layer retransmits) and
  ``duplicate`` (a message arrives twice; delivery is idempotent and the
  duplicate is suppressed).  Both recover to the exact fault-free
  transcript; a message dropped on every redelivery attempt raises
  :class:`~repro.errors.FaultRecoveryError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Worker fault kinds, in injection-priority order.
WORKER_FAULT_KINDS = ("crash", "hang", "slow", "garble")

#: Message fault kinds.
MESSAGE_FAULT_KINDS = ("drop", "duplicate")


def _hash01(*parts: object) -> float:
    """A uniform draw in ``[0, 1)`` determined by ``parts``.

    Uses SHA-256 over the ``repr`` of the parts, so the value is stable
    across interpreter runs and hash randomization — the property that
    makes a fault schedule a reproducible artifact rather than a flake.
    """
    digest = hashlib.sha256(
        "\x1f".join(repr(part) for part in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class WorkerFault:
    """One injected worker fault, shipped (pickled) into the worker."""

    #: One of :data:`WORKER_FAULT_KINDS`.
    kind: str
    #: Latency for ``slow``, sleep duration for ``hang`` (bounded so an
    #: abandoned worker eventually exits even if termination fails).
    seconds: float = 0.0

    def as_payload(self) -> Dict[str, object]:
        """A JSON-friendly description for worker-side obs events."""
        payload: Dict[str, object] = {"kind": self.kind}
        if self.seconds:
            payload["seconds"] = self.seconds
        return payload


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    All rates are probabilities in ``[0, 1]`` evaluated through
    :func:`_hash01`; explicit ``*_chunks`` pins override rates for the
    named chunk on its first attempt.  The inert plan (all rates zero,
    no pins) is falsy and injects nothing.
    """

    #: Root of every hash draw; same seed, same fault schedule.
    seed: int = 0

    # Worker-fault knobs (ProcessScheduler chunks).
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    garble_rate: float = 0.0
    #: Explicit first-attempt faults: ``{chunk_index: kind}``.
    explicit_chunks: Tuple[Tuple[int, str], ...] = ()

    # Message-fault knobs (LOCAL simulators).
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: Redelivery attempts before a persistent drop becomes a typed error.
    max_redelivery: int = 5

    # Durations and policy hints.
    #: Injected latency of a ``slow`` worker.
    slow_seconds: float = 0.01
    #: Sleep duration of a ``hang`` worker (a *cap*, not a promise — the
    #: scheduler's deadline should be far below it).
    hang_seconds: float = 30.0
    #: Suggested per-chunk deadline for schedulers built from this plan
    #: (``None`` leaves the scheduler's own default in place).
    deadline: Optional[float] = None

    _explicit: Dict[int, str] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        from repro.errors import FaultSpecError

        for name in (
            "crash_rate",
            "hang_rate",
            "slow_rate",
            "garble_rate",
            "drop_rate",
            "duplicate_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"fault rate {name}={rate!r} outside [0, 1]"
                )
        if self.max_redelivery < 1:
            raise FaultSpecError(
                f"max_redelivery must be >= 1, got {self.max_redelivery}"
            )
        for chunk, kind in self.explicit_chunks:
            if kind not in WORKER_FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown worker fault kind {kind!r} for chunk {chunk}"
                )
        object.__setattr__(
            self, "_explicit", dict(self.explicit_chunks)
        )

    # ------------------------------------------------------------------
    # Activity predicates (hot-path guards)
    # ------------------------------------------------------------------
    @property
    def has_worker_faults(self) -> bool:
        """Whether any worker-fault knob is live."""
        return bool(
            self._explicit
            or self.crash_rate
            or self.hang_rate
            or self.slow_rate
            or self.garble_rate
        )

    @property
    def has_message_faults(self) -> bool:
        """Whether any message-fault knob is live."""
        return bool(self.drop_rate or self.duplicate_rate)

    def __bool__(self) -> bool:
        return self.has_worker_faults or self.has_message_faults

    # ------------------------------------------------------------------
    # Injection decisions
    # ------------------------------------------------------------------
    def worker_fault(
        self, chunk_index: int, attempt: int
    ) -> Optional[WorkerFault]:
        """The fault (if any) for one dispatch of one chunk.

        Explicit pins fire on the first attempt only — the retry is
        guaranteed clean, making single-fault recovery deterministic.
        Rate-based faults draw fresh per ``(chunk, attempt)``, so a
        chunk can fail repeatedly and exhaust the retry budget.
        """
        kind: Optional[str] = None
        if attempt == 0:
            kind = self._explicit.get(chunk_index)
        if kind is None:
            for candidate, rate in (
                ("crash", self.crash_rate),
                ("hang", self.hang_rate),
                ("slow", self.slow_rate),
                ("garble", self.garble_rate),
            ):
                if rate and _hash01(
                    self.seed, "worker", candidate, chunk_index, attempt
                ) < rate:
                    kind = candidate
                    break
        if kind is None:
            return None
        if kind == "hang":
            return WorkerFault(kind, self.hang_seconds)
        if kind == "slow":
            return WorkerFault(kind, self.slow_seconds)
        return WorkerFault(kind)

    def message_action(
        self, round_number: int, message_index: int, attempt: int
    ) -> Optional[str]:
        """The fate of one delivery attempt of one message.

        ``message_index`` is the message's position in the round's
        delivery order.  Drops re-draw per attempt (redelivery can fail
        again — or forever, at rate 1.0); duplication is decided once,
        on the first attempt.
        """
        if self.drop_rate and _hash01(
            self.seed, "drop", round_number, message_index, attempt
        ) < self.drop_rate:
            return "drop"
        if (
            attempt == 0
            and self.duplicate_rate
            and _hash01(self.seed, "dup", round_number, message_index)
            < self.duplicate_rate
        ):
            return "duplicate"
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary for obs payloads and benchmarks."""
        summary: Dict[str, object] = {"seed": self.seed}
        for name in (
            "crash_rate",
            "hang_rate",
            "slow_rate",
            "garble_rate",
            "drop_rate",
            "duplicate_rate",
        ):
            rate = getattr(self, name)
            if rate:
                summary[name] = rate
        if self._explicit:
            summary["explicit_chunks"] = {
                str(chunk): kind
                for chunk, kind in sorted(self._explicit.items())
            }
        if self.deadline is not None:
            summary["deadline"] = self.deadline
        summary["max_redelivery"] = self.max_redelivery
        return summary
