"""repro.artifacts — the structural-fingerprint artifact cache.

One size-bounded, obs-instrumented store (:data:`STORE`) whose tiers
hold every expensive derived object as a pure function of instance
*shape*: compiled event kernels, stacked kernel batches, lowered
vector-plane templates, CSR index maps, and colorings + FixPlans.
The ``artifacts`` plane of :mod:`repro.planes`
(``REPRO_ARTIFACTS=on|off``) switches it; ``off`` is the differential
oracle.  See :mod:`repro.artifacts.store` for the cache
semantics and :mod:`repro.artifacts.fingerprint` for the key scheme.
"""

from repro.artifacts.store import (
    CAPACITY_ENV,
    DEFAULT_CAPACITIES,
    ArtifactStore,
    ArtifactTier,
    LRUCache,
    STORE,
)
from repro.artifacts.fingerprint import (
    event_shape_key,
    instance_fingerprint,
    instance_key,
    stack_key,
)

__all__ = [
    "CAPACITY_ENV",
    "DEFAULT_CAPACITIES",
    "ArtifactStore",
    "ArtifactTier",
    "LRUCache",
    "STORE",
    "event_shape_key",
    "instance_fingerprint",
    "instance_key",
    "stack_key",
]
