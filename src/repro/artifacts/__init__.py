"""repro.artifacts — the structural-fingerprint artifact cache.

One size-bounded, obs-instrumented store (:data:`STORE`) whose tiers
hold every expensive derived object as a pure function of instance
*shape*: compiled event kernels, stacked kernel batches, lowered
vector-plane templates, CSR index maps, and colorings + FixPlans.
``REPRO_ARTIFACTS=on|off`` selects the plane; ``off`` is the
differential oracle.  See :mod:`repro.artifacts.store` for the cache
semantics and :mod:`repro.artifacts.fingerprint` for the key scheme.
"""

from repro.artifacts.store import (
    ARTIFACTS_ENV,
    CAPACITY_ENV,
    DEFAULT_CAPACITIES,
    ArtifactStore,
    ArtifactTier,
    LRUCache,
    STORE,
    artifacts_enabled,
    artifacts_mode,
    set_artifacts_mode,
    using_artifacts,
)
from repro.artifacts.fingerprint import (
    event_shape_key,
    instance_fingerprint,
    instance_key,
    stack_key,
)

__all__ = [
    "ARTIFACTS_ENV",
    "CAPACITY_ENV",
    "DEFAULT_CAPACITIES",
    "ArtifactStore",
    "ArtifactTier",
    "LRUCache",
    "STORE",
    "artifacts_enabled",
    "artifacts_mode",
    "set_artifacts_mode",
    "using_artifacts",
    "event_shape_key",
    "instance_fingerprint",
    "instance_key",
    "stack_key",
]
