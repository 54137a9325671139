"""The cross-instance artifact store: one cache plane, five tiers.

The theorems this repository reproduces are structural — the threshold
criterion and the fixing procedures depend only on the *shape* of the
dependency structure and the event truth tables — so every expensive
derived object is a pure function of that shape: compiled
:class:`~repro.probability.engine.EventKernel`\\ s, lowered vector-plane
templates, colorings + :class:`~repro.runtime.plan.FixPlan`\\ s and
instance parameters.  Before this module each layer kept its own private
cache (per-event FIFO dicts, per-instance template dicts,
``WeakKeyDictionary``\\ s, a per-``execute`` memo); none of them survived
the object that owned them, so two instances of the same shape
recomputed everything from scratch.

:class:`ArtifactStore` unifies those caches into the named **tiers** of
:data:`DEFAULT_CAPACITIES`, held by one process-global store
(:data:`STORE`).  Each tier is a size-bounded :class:`LRUCache` with
hit/miss/eviction counters; keys are canonical structural fingerprints
(see :mod:`repro.artifacts.fingerprint`), so an artifact computed for
one instance is found by every later instance of the same shape —
across fixers and schedulers.  A tier name outside the table is a
:class:`~repro.errors.ConfigurationError`.

The ``artifacts`` plane of :mod:`repro.planes`
(``REPRO_ARTIFACTS=on|off``, default ``on``) switches the store; ``off``
disables every cross-object tier and is the differential oracle — the
legacy per-object caches retain their exact behaviour, so a transcript
under ``off`` is the reference an ``on`` run must reproduce bit for
bit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.errors import ConfigurationError
from repro.planes import planes

#: The tiers and their entry capacities.  The kernel tier is keyed on the
#: name-free shape digest of an event, so it holds one entry per
#: distinct event shape; its capacity still covers an n = 10^6 instance
#: whose every event has its own shape.  The structural tiers hold one
#: entry per instance *shape*, which production traffic keeps small by
#: construction.
DEFAULT_CAPACITIES: Dict[str, int] = {
    "kernels": 1 << 20,
    "templates": 128,
    "plans": 128,
    "parameters": 64,
    # Whole solve responses memoized by the solve service, keyed on
    # canonical request *content* (not shape): sound because the
    # fixers are deterministic, so an identical instance always
    # produces the bit-identical result.
    "solutions": 512,
}


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


class ArtifactStore:
    """Named LRU tiers behind one get/put surface.

    ``capacities`` overrides entries of the table (a test seam); it
    cannot add a tier.  ``get``/``put`` are no-ops (always-miss,
    never-populate, nothing counted) when the plane is off or the caller
    could not fingerprint its input (``key is None``) — so
    ``REPRO_ARTIFACTS=off`` reproduces the pre-store behaviour of every
    call site exactly.
    """

    def __init__(self, capacities: Optional[Dict[str, int]] = None) -> None:
        self._tiers: Dict[str, LRUCache] = {
            name: LRUCache(capacity)
            for name, capacity in sorted(DEFAULT_CAPACITIES.items())
        }
        for name, capacity in (capacities or {}).items():
            self.tier(name).capacity = int(capacity)
        self._published: Dict[str, int] = {}

    def tier(self, name: str) -> LRUCache:
        """The named tier."""
        tier = self._tiers.get(name)
        if tier is None:
            raise ConfigurationError(
                f"unknown artifact tier {name!r}; the tiers are "
                f"{', '.join(DEFAULT_CAPACITIES)}"
            )
        return tier

    def get(self, tier_name: str, key: Optional[Hashable]) -> Any:
        """Tier lookup; ``None`` when off, unfingerprintable, or missing."""
        tier = self.tier(tier_name)
        if key is None or planes().artifacts == "off":
            return None
        return tier.get(key)

    def put(self, tier_name: str, key: Optional[Hashable], value: Any) -> None:
        """Tier insert; dropped when off or unfingerprintable."""
        tier = self.tier(tier_name)
        if key is None or planes().artifacts == "off":
            return
        tier.put(key, value)

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
            for name, tier in self._tiers.items()
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
        for name, tier in self._tiers.items():
            for stat in ("hits", "misses", "evictions"):
                key = f"{name}_{stat}"
                value = getattr(tier, stat)
                delta = value - self._published.get(key, 0)
                if delta > 0:
                    recorder.count("artifacts", key, delta)
                self._published[key] = value
            recorder.gauge("artifacts", f"{name}_size", len(tier))


_MISSING = object()

#: The process-global artifact store.
STORE = ArtifactStore()
