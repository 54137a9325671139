"""The execution plane: color-class fix plans and pluggable schedulers.

The distributed algorithms of the paper (Corollaries 1.2 and 1.4) reduce
fixing to a *schedule*: a sequence of color classes, each a set of
independent cells whose fixings touch pairwise-disjoint event sets.
This package makes that schedule an explicit, inspectable object
(:class:`FixPlan`) and executes it through interchangeable backends:

* :class:`SerialScheduler` — plan order, in-process; the differential
  oracle the process backend must match bit-for-bit;
* :class:`ProcessScheduler` — cells of a class are dispatched to worker
  processes over a shared-memory segment and their decisions committed
  in deterministic plan order.

The equivalence of the two is exactly the paper's independence
argument: within a class, a variable appears only in the scopes of its
own cell's events, so cross-cell decisions commute.
"""

from repro.runtime.plan import (
    ColorClass,
    FixCell,
    FixOp,
    FixPlan,
    build_plan_rank2,
    build_plan_rank3,
    build_resampling_round,
    build_serial_plan,
    plan_for_instance,
)
from repro.runtime.schedulers import (
    ProcessScheduler,
    Scheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.runtime.shm import live_segment_names

__all__ = [
    "ColorClass",
    "FixCell",
    "FixOp",
    "FixPlan",
    "build_plan_rank2",
    "build_plan_rank3",
    "build_resampling_round",
    "build_serial_plan",
    "plan_for_instance",
    "ProcessScheduler",
    "Scheduler",
    "SerialScheduler",
    "make_scheduler",
    "live_segment_names",
]
