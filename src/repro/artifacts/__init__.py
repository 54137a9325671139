"""repro.artifacts — the structural-fingerprint artifact cache.

One size-bounded, obs-instrumented store (:data:`STORE`) whose five
tiers hold every expensive derived object as a pure function of
instance *shape*: compiled event kernels, lowered vector-plane
templates, colorings + FixPlans and instance parameters — plus the
solve service's content-keyed solutions.
The ``artifacts`` plane of :mod:`repro.planes`
(``REPRO_ARTIFACTS=on|off``) switches it; ``off`` is the differential
oracle.  See :mod:`repro.artifacts.store` for the cache
semantics and :mod:`repro.artifacts.fingerprint` for the key scheme.
"""

from repro.artifacts.store import (
    DEFAULT_CAPACITIES,
    ArtifactStore,
    LRUCache,
    STORE,
)
from repro.artifacts.fingerprint import (
    event_shape_key,
    instance_fingerprint,
    instance_key,
)

__all__ = [
    "DEFAULT_CAPACITIES",
    "ArtifactStore",
    "LRUCache",
    "STORE",
    "event_shape_key",
    "instance_fingerprint",
    "instance_key",
]
