"""The cross-instance artifact store: one cache plane, many tiers.

The theorems this repository reproduces are structural — the threshold
criterion and the fixing procedures depend only on the *shape* of the
dependency structure and the event truth tables — so every expensive
derived object is a pure function of that shape: compiled
:class:`~repro.probability.engine.EventKernel`\\ s, stacked kernel
batches, lowered vector-plane templates, CSR index maps, colorings and
:class:`~repro.runtime.plan.FixPlan`\\ s.  Before this module each layer
kept its own private cache (per-event FIFO dicts, per-instance template
dicts, ``WeakKeyDictionary``\\ s, a per-``execute`` memo); none of them
survived the object that owned them, so two instances of the same shape
recomputed everything from scratch.

:class:`ArtifactStore` unifies those caches into named **tiers** of one
process-global store (:data:`STORE`).  Each tier is a size-bounded
:class:`LRUCache` with hit/miss/eviction counters; keys are canonical
structural fingerprints (see :mod:`repro.artifacts.fingerprint`), so an
artifact computed for one instance is found by every later instance of
the same shape — across fixers, schedulers, and (for the kernel-stack
tier) across process-pool workers, which hold their own per-process
store warmed by repeated chunk dispatch.

The ``artifacts`` plane of :mod:`repro.planes`
(``REPRO_ARTIFACTS=on|off``, default ``on``) switches the store; ``off``
disables every cross-object tier and is the differential oracle — the
legacy per-object caches retain their exact behaviour, so a transcript
under ``off`` is the reference an ``on`` run must reproduce bit for
bit.  Per-tier capacities can be overridden with
``REPRO_ARTIFACTS_CAPACITY=tier=n[,tier=n...]``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.planes import planes

#: Environment variable overriding per-tier capacities,
#: e.g. ``REPRO_ARTIFACTS_CAPACITY=kernels=2048,plans=16``.
CAPACITY_ENV = "REPRO_ARTIFACTS_CAPACITY"

#: Default per-tier entry capacities.  The kernel tier is keyed on the
#: name-free shape digest of an event, so it holds one entry per
#: distinct event shape; its capacity still covers an n = 10^6 instance
#: whose every event has its own shape.  The structural tiers hold one
#: entry per instance *shape*, which production traffic keeps small by
#: construction.
DEFAULT_CAPACITIES: Dict[str, int] = {
    "kernels": 1 << 20,
    "stacks": 512,
    "templates": 128,
    "plans": 128,
    "indexings": 256,
    "parameters": 64,
    # Whole solve responses memoized by the solve service, keyed on
    # canonical request *content* (not shape): sound because the
    # fixers are deterministic, so an identical instance always
    # produces the bit-identical result.
    "solutions": 512,
}

#: Capacity for tiers not listed in :data:`DEFAULT_CAPACITIES`.
FALLBACK_CAPACITY = 256


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    The shared cache primitive of the artifact plane: store tiers are
    LRU caches, and the per-object caches that stay local (the
    per-event conditional-probability cache, the per-section decision
    memo) use the same class so every cache in the system counts hits,
    misses and evictions the same way — and none of them silently stops
    inserting at capacity.

    ``capacity <= 0`` disables insertion entirely (reads always miss),
    matching the ``cache_limit=0`` contract of :class:`BadEvent`.
    """

    __slots__ = ("data", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        data = self.data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> Optional[Hashable]:
        """Insert ``key``; returns the evicted key, if any."""
        if self.capacity <= 0:
            return None
        data = self.data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return None
        evicted = None
        if len(data) >= self.capacity:
            evicted, _ = data.popitem(last=False)
            self.evictions += 1
        data[key] = value
        return evicted

    def __contains__(self, key: Hashable) -> bool:
        # Membership probes are bookkeeping, not lookups: no recency
        # refresh, no hit/miss accounting.
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.data.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class ArtifactTier(LRUCache):
    """One named tier of the store."""

    __slots__ = ("name",)

    def __init__(self, name: str, capacity: int) -> None:
        super().__init__(capacity)
        self.name = name


class ArtifactStore:
    """Named LRU tiers behind one get/put surface.

    ``get``/``put`` are no-ops (always-miss, never-populate, nothing
    counted) when the plane is off or the caller could not fingerprint
    its input (``key is None``) — so ``REPRO_ARTIFACTS=off`` reproduces
    the pre-store behaviour of every call site exactly.
    """

    def __init__(self, capacities: Optional[Dict[str, int]] = None) -> None:
        self._tiers: Dict[str, ArtifactTier] = {}
        self._capacities = dict(capacities) if capacities else None
        self._env_capacities: Optional[Dict[str, int]] = None
        self._published: Dict[str, int] = {}

    # -- capacity resolution -------------------------------------------
    def _capacity(self, name: str) -> int:
        if self._capacities is not None and name in self._capacities:
            return self._capacities[name]
        if self._env_capacities is None:
            self._env_capacities = self._parse_capacity_env()
        if name in self._env_capacities:
            return self._env_capacities[name]
        return DEFAULT_CAPACITIES.get(name, FALLBACK_CAPACITY)

    @staticmethod
    def _parse_capacity_env() -> Dict[str, int]:
        raw = os.environ.get(CAPACITY_ENV, "").strip()
        if not raw:
            return {}
        overrides: Dict[str, int] = {}
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition("=")
            try:
                overrides[name.strip()] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"{CAPACITY_ENV}: cannot parse {part!r}; expected "
                    f"tier=integer"
                ) from None
        return overrides

    # -- tier access ---------------------------------------------------
    def tier(self, name: str) -> ArtifactTier:
        """The named tier, created on first use."""
        tier = self._tiers.get(name)
        if tier is None:
            tier = ArtifactTier(name, self._capacity(name))
            self._tiers[name] = tier
        return tier

    def get(self, tier_name: str, key: Optional[Hashable]) -> Any:
        """Tier lookup; ``None`` when off, unfingerprintable, or missing."""
        if key is None or planes().artifacts == "off":
            return None
        return self.tier(tier_name).get(key)

    def put(self, tier_name: str, key: Optional[Hashable], value: Any) -> None:
        """Tier insert; dropped when off or unfingerprintable."""
        if key is None or planes().artifacts == "off":
            return
        self.tier(tier_name).put(key, value)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier ``{hits, misses, evictions, size, capacity}``."""
        return {
            name: {
                "hits": tier.hits,
                "misses": tier.misses,
                "evictions": tier.evictions,
                "size": len(tier),
                "capacity": tier.capacity,
            }
            for name, tier in sorted(self._tiers.items())
        }

    def totals(self) -> Dict[str, int]:
        """Store-wide hit/miss/eviction/size sums."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "size": 0}
        for tier in self._tiers.values():
            totals["hits"] += tier.hits
            totals["misses"] += tier.misses
            totals["evictions"] += tier.evictions
            totals["size"] += len(tier)
        return totals

    def clear(self) -> None:
        """Drop every artifact and reset all counters and publish marks."""
        for tier in self._tiers.values():
            tier.clear()
            tier.reset_stats()
        self._published.clear()

    def publish_stats(self, recorder) -> None:
        """Push per-tier counter deltas and size gauges to a recorder.

        Delta-based like :func:`repro.probability.engine.publish_stats`:
        safe to call repeatedly (the scheduler publishes at the end of
        every ``execute``), each counter's total is preserved across
        publishes.
        """
        for name, tier in sorted(self._tiers.items()):
            for stat in ("hits", "misses", "evictions"):
                key = f"{name}_{stat}"
                value = getattr(tier, stat)
                delta = value - self._published.get(key, 0)
                if delta > 0:
                    recorder.count("artifacts", key, delta)
                self._published[key] = value
            recorder.gauge("artifacts", f"{name}_size", len(tier))


_MISSING = object()

#: The process-global artifact store.  Worker processes build their own
#: on first import — that per-process store is the worker-side warm
#: cache: it persists across the chunks a pooled worker executes.
STORE = ArtifactStore()
