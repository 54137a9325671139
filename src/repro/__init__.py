"""repro — reproduction of Brandt, Maus & Uitto (PODC 2019).

"A Sharp Threshold Phenomenon for the Distributed Complexity of the
Lovász Local Lemma": deterministic LLL fixing below the exponential
threshold ``p < 2^-d`` for variables of rank at most 3, with a LOCAL-model
simulator, deterministic coloring substrates, randomized baselines and the
paper's applications.

The most commonly used names are re-exported here; see the subpackages for
the full API:

* :mod:`repro.probability` — exact discrete probability engine
* :mod:`repro.lll` — LLL instances, criteria, verification
* :mod:`repro.geometry` — representable triples, the surface ``f(a, b)``
* :mod:`repro.core` — the paper's fixers (sequential and distributed)
* :mod:`repro.local_model` — synchronous LOCAL-model simulator
* :mod:`repro.coloring` — deterministic distributed coloring
* :mod:`repro.baselines` — Moser-Tardos and other baselines
* :mod:`repro.applications` — sinkless orientation, weak splitting, ...
* :mod:`repro.generators` — graphs, hypergraphs and instance workloads
* :mod:`repro.analysis` — log*, round-bound formulas, experiment records
* :mod:`repro.planes` — the fast/oracle plane config (``REPRO_ENGINE``,
  ``REPRO_GRAPH``, ``REPRO_DECIDE``, ``REPRO_ARTIFACTS``)
"""

from repro.lll import (
    ExponentialCriterion,
    LLLInstance,
    check_preconditions,
    verify_solution,
)
from repro.probability import (
    BadEvent,
    DiscreteVariable,
    PartialAssignment,
    ProductSpace,
)

__version__ = "1.0.0"

__all__ = [
    "BadEvent",
    "DiscreteVariable",
    "ExponentialCriterion",
    "LLLInstance",
    "PartialAssignment",
    "ProductSpace",
    "check_preconditions",
    "verify_solution",
    "__version__",
]
