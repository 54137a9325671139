"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidDistributionError(ReproError):
    """A discrete distribution is malformed.

    Raised when probabilities are negative, do not sum to one, or the
    number of probabilities does not match the number of values.
    """


class UnknownVariableError(ReproError):
    """An operation referenced a variable that is not part of the scope."""


class InvalidAssignmentError(ReproError):
    """A variable was assigned a value outside its support."""


class ProbabilityMassError(ReproError):
    """Enumerated probability mass exceeded 1 beyond tolerance.

    Valid distributions cannot sum to more than one; mass above
    ``1 + eps`` indicates inconsistent supports or weights, so the
    engines raise instead of silently clamping the result.
    """


class EnumerationLimitError(ReproError):
    """An exact probability computation would enumerate too many outcomes.

    The exact engine enumerates the product space of the *unfixed* variables
    in an event's scope.  Instances in the paper's regime (bounded degree)
    keep this small; this error surfaces accidental blow-ups instead of
    letting a computation run away silently.
    """


class CriterionViolationError(ReproError):
    """An LLL instance does not satisfy the criterion required by an algorithm."""


class RankViolationError(ReproError):
    """A variable affects more events than the algorithm supports."""


class NoGoodValueError(ReproError):
    """No value of a random variable preserves the algorithm's invariant.

    For instances satisfying ``p < 2^-d`` the paper proves this can never
    happen (Lemma 3.2 / Theorem 1.1); seeing this error on such an instance
    indicates a bug or a numerical-tolerance problem, so the fixers raise
    loudly rather than guessing.
    """


class NotRepresentableError(ReproError):
    """A triple is outside ``S_rep`` and therefore cannot be decomposed."""


class PStarViolationError(ReproError):
    """The property P* bookkeeping invariant was violated."""


class AlgorithmFailedError(ReproError):
    """A (typically randomized) algorithm exceeded its execution budget."""


class SimulationError(ReproError):
    """The LOCAL-model simulation reached an inconsistent state."""


class SchedulerProtocolError(ReproError):
    """A scheduler worker reply violated the dispatch protocol.

    Raised when a worker returns the wrong number of cell results or a
    short/garbled choice list for a cell.  Committing such a reply would
    silently corrupt the phi ledger, so the parent raises *before* any
    commit — the error names the offending cell or chunk.
    """


class ConfigurationError(ReproError):
    """A configuration knob (environment variable or setter) is invalid.

    Raised when a ``REPRO_*`` environment variable or a programmatic
    mode setter names a value outside the allowed set.  The message
    always names the variable (or setter) and the allowed values, so a
    typo'd deployment environment fails loudly at first use instead of
    silently changing which plane serves traffic.
    """


class AdmissionError(ReproError):
    """The solve service rejected a request at admission.

    The 429-style overload signal: the server's bounded in-flight queue
    is full, or the server is draining and no longer accepts work.  The
    request was never started, so retrying later is always safe.
    """


class DeadlineExceededError(ReproError):
    """A request's deadline elapsed before a result was produced.

    Raised by the solve service when a request spends its whole budget
    queued behind other work, or when execution outlives the remaining
    budget.  The underlying scheduler pool is not poisoned: per-chunk
    deadlines (PR 5) bound worker hangs independently, so subsequent
    requests proceed normally.
    """


class CertificateError(ReproError):
    """A solve produced an answer its certificate does not back.

    Raised by the solve service when an answer fails a check of the
    paper's certificate: the assignment does not verify (some bad event
    occurs), the largest certified bound is not below 1, or the
    smallest slack is negative.  The message names the failed check.
    Such an answer is never served or memoised; it is a fault of the
    program, not of the request.
    """


class FaultSpecError(ReproError):
    """A fault-injection specification string or plan is malformed."""


class FaultRecoveryError(ReproError):
    """Fault recovery exhausted its budget without restoring the run.

    Raised when an injected (or real) fault persists past every retry:
    a message dropped on all redelivery attempts, for example.  The
    message names the fault site so post-mortems need no log spelunking.
    """


class GraphSubstrateError(ReproError):
    """The array-native graph substrate received malformed input.

    Raised by :mod:`repro.graph` when a CSR construction sees
    out-of-range endpoints, self-loops, or NumPy falling back to object
    dtype (which would silently forfeit every vectorized fast path).
    """


class ColoringError(ReproError):
    """A coloring routine produced or received an invalid coloring."""


class ScopeColumnsError(ReproError):
    """A generator's declared scope columns disagree with its objects.

    Raised when :func:`repro.artifacts.fingerprint.scope_layout` checks
    the columns a generator declared (its variable and shape numbering)
    against the events and variables it built; the layout is never
    rebuilt by the walk instead.
    """


class ObsError(ReproError):
    """An observability record or trace is malformed.

    Raised by the :mod:`repro.obs` schema checker when an emitted event is
    missing required fields or has fields of the wrong type, and by the
    trace reader when a JSONL line cannot be parsed.
    """
