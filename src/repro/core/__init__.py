"""The paper's primary contribution (S4-S6, S9).

Deterministic LLL fixers below the exponential threshold ``p < 2^-d``:

* :class:`Rank2Fixer` / :func:`solve_rank2` — Theorem 1.1,
* :class:`Rank3Fixer` / :func:`solve_rank3` — Theorem 1.3 via property P*
  (:class:`PStarState`) and the Variable Fixing Lemma,
* :func:`solve` — rank-dispatching sequential driver with static orders
  and adaptive adversaries,
* :mod:`repro.core.distributed` — the LOCAL-model algorithms of
  Corollaries 1.2 and 1.4 (imported lazily to keep the sequential API
  free of simulator dependencies).
"""

from repro.core.distributed import (
    DistributedResult,
    solve_distributed,
    solve_distributed_rank2,
    solve_distributed_rank3,
)
from repro.core.audit import (
    AuditReport,
    audit_trace,
    certify_recovery,
    run_audit,
)
from repro.core.indexing import (
    event_incidence,
    indexed_csr,
    indexed_dependency_network,
)
from repro.core.local_protocol import (
    LocalFixingProtocol,
    solve_distributed_local,
)
from repro.core.local_verify import (
    LocalVerificationAlgorithm,
    verify_distributed,
)
from repro.core.naive_rankr import (
    NaiveRankRFixer,
    check_naive_criterion,
    naive_threshold,
    solve_naive,
)
from repro.core.pstar import PStarState, PSTAR_TOLERANCE
from repro.core.selection import (
    Rank1Choice,
    Rank2Choice,
    Rank3Choice,
    RankRChoice,
    select_rank1,
    select_rank2,
    select_rank3,
    select_rankr,
)
from repro.core.rank2 import Rank2Fixer, solve_rank2
from repro.core.rank3 import Rank3Fixer, solve_rank3
from repro.core.results import FixingResult, StepRecord
from repro.core.sequential import (
    construction_order,
    interleaved_order,
    lexicographic_chooser,
    make_random_chooser,
    max_pressure_chooser,
    min_pressure_chooser,
    random_order,
    reversed_order,
    run_with_adversary,
    solve,
)

__all__ = [
    "AuditReport",
    "DistributedResult",
    "audit_trace",
    "certify_recovery",
    "run_audit",
    "FixingResult",
    "LocalFixingProtocol",
    "LocalVerificationAlgorithm",
    "verify_distributed",
    "NaiveRankRFixer",
    "Rank1Choice",
    "Rank2Choice",
    "Rank3Choice",
    "check_naive_criterion",
    "event_incidence",
    "indexed_csr",
    "indexed_dependency_network",
    "naive_threshold",
    "RankRChoice",
    "select_rank1",
    "select_rank2",
    "select_rank3",
    "select_rankr",
    "solve_distributed_local",
    "solve_naive",
    "PSTAR_TOLERANCE",
    "PStarState",
    "Rank2Fixer",
    "Rank3Fixer",
    "StepRecord",
    "construction_order",
    "interleaved_order",
    "lexicographic_chooser",
    "make_random_chooser",
    "max_pressure_chooser",
    "min_pressure_chooser",
    "random_order",
    "reversed_order",
    "run_with_adversary",
    "solve",
    "solve_distributed",
    "solve_distributed_rank2",
    "solve_distributed_rank3",
    "solve_rank2",
    "solve_rank3",
]
