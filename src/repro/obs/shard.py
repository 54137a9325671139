"""Cross-process trace shards: worker-side recording, parent-side merge.

The PR 1 :class:`~repro.obs.recorder.Recorder` is strictly in-parent, so
every decide executed by the
:class:`~repro.runtime.schedulers.ProcessScheduler` was a blind spot.
This module closes it with a three-part protocol:

1. **Propagation.**  The parent builds one :class:`TraceContext` per
   chunk dispatch — ``run_id``, the span id of the parent ``dispatch``
   event, a deterministic logical ``worker_id``, the 0-based
   ``attempt`` — and ships it (pickled) alongside the chunk descriptor.
2. **Shard recording.**  The worker installs a :class:`ShardRecorder`:
   a buffer of plain-dict event records with worker-local ``seq`` and
   monotonic ``ts_ns``.  Records are returned piggybacked on the chunk
   reply; when the context names a ``shard_path``, every record is
   *also* appended eagerly (line-buffered) to a JSONL shard file, so a
   worker that crashes or hangs mid-chunk still leaves its partial
   telemetry on disk for the parent to recover.
3. **Merge.**  The parent re-emits each shard record through
   :meth:`Recorder.emit_shard_record`, stamping ``worker_id`` /
   ``parent_span`` / ``attempt`` and fresh parent ``seq`` numbers.
   Successful chunks merge from the reply; failed attempts merge from
   the shard file at failure-handling time — so a retried chunk keeps
   the events of *both* attempts, distinguished by ``attempt``, and the
   merged trace stays causally ordered (dispatch before its children)
   and deterministic for a fixed fault schedule.

Worker ids are *logical* (``worker:<chunk_id>``), not process ids, so
the merged trace is reproducible across reruns; the operating-system
``pid`` is reported once per shard in the ``worker_start`` payload for
operators who need to correlate with system tools.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, IO, List, Optional

from repro.errors import ObsError


@dataclass(frozen=True)
class TraceContext:
    """Everything a worker needs to join the parent's trace.

    Picklable by construction (plain strings and ints); shipped with
    the chunk payloads.  ``profile`` carries the parent's resolved
    ``REPRO_PROFILE`` mode so pool workers profile consistently even if
    their environment diverges from the parent's.
    """

    #: The parent recorder's run id.
    run_id: str
    #: Span id of the parent ``dispatch`` event (the causal edge).
    parent_span: str
    #: Deterministic logical worker identity (``worker:<chunk_id>``).
    worker_id: str
    #: 0-based dispatch attempt of this chunk.
    attempt: int = 0
    #: JSONL fallback shard file for crash/hang recovery (optional).
    shard_path: Optional[str] = None
    #: Profiling mode inside the worker (``sample``/``cprofile``/None).
    profile: Optional[str] = None


class _ShardSpan:
    """Context-manager timer of one worker-side span."""

    __slots__ = ("_recorder", "component", "name", "payload", "_start")

    def __init__(
        self, recorder: "ShardRecorder", component: str, name: str,
        payload: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.component = component
        self.name = name
        self.payload = payload
        self._start = 0

    def __enter__(self) -> "_ShardSpan":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter_ns() - self._start
        self._recorder.record_span(
            self.component, self.name, duration, **self.payload
        )


class ShardRecorder:
    """A lightweight in-worker event buffer with a JSONL file fallback.

    Deliberately much smaller than the parent Recorder: no sinks, no
    nesting stack, no histogram registry — workers run short chunks and
    everything is merged (and aggregated) in the parent.  Counters are
    buffered and flushed as ``counter`` summary events by :meth:`drain`,
    which the parent-side trace summarizer folds additively into the
    run totals, exactly like multi-run traces.
    """

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self.records: List[Dict[str, Any]] = []
        self._seq = 0
        self._t0 = time.perf_counter_ns()
        self._counters: Dict[Any, int] = {}
        self._file: Optional[IO[str]] = None
        if context.shard_path:
            try:
                # Line-buffered: each record hits the disk at the
                # newline, so telemetry survives os._exit and SIGTERM.
                self._file = open(
                    context.shard_path, "w", encoding="utf-8", buffering=1
                )
            except OSError:
                # A worker that cannot open its fallback file must still
                # compute; piggybacked delivery continues to work.
                self._file = None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def event(
        self,
        component: str,
        event: str,
        step: Optional[int] = None,
        round: Optional[int] = None,
        **payload: Any,
    ) -> Dict[str, Any]:
        """Buffer one event record (and append it to the shard file)."""
        record: Dict[str, Any] = {
            "seq": self._seq,
            "ts_ns": time.perf_counter_ns() - self._t0,
            "component": component,
            "event": event,
            "payload": payload,
        }
        if step is not None:
            record["step"] = step
        if round is not None:
            record["round"] = round
        self._seq += 1
        self.records.append(record)
        if self._file is not None:
            try:
                json.dump(record, self._file, default=repr)
                self._file.write("\n")
            except (OSError, ValueError):
                self._file = None
        return record

    def span(self, component: str, name: str, **payload: Any) -> _ShardSpan:
        """A context-manager timer emitting a ``span`` event on exit."""
        return _ShardSpan(self, component, name, payload)

    def record_span(
        self, component: str, name: str, duration_ns: int, **payload: Any
    ) -> None:
        """Record one completed span."""
        self.event(
            component, "span", name=name, duration_ns=duration_ns,
            depth=0, **payload,
        )

    def count(self, component: str, name: str, delta: int = 1) -> int:
        """Increment a worker-local counter; flushed by :meth:`drain`."""
        key = (component, name)
        value = self._counters.get(key, 0) + delta
        self._counters[key] = value
        return value

    # ------------------------------------------------------------------
    # Hand-off
    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Flush counters, close the shard file, return the records."""
        for (component, name), value in sorted(
            self._counters.items(), key=repr
        ):
            self.event(
                "obs", "counter", metric_component=component, name=name,
                value=value,
            )
        self._counters.clear()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        return self.records


def read_shard_file(path: str) -> List[Dict[str, Any]]:
    """Read a (possibly truncated) worker shard file.

    A worker killed mid-write may leave a partial final line; unlike
    :func:`repro.obs.read_trace` this reader *tolerates* an unparseable
    tail (the crash is the event being recovered, not an error), but a
    corrupt line followed by valid ones still raises — that is file
    corruption, not a truncated write.
    """
    records: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise ObsError(f"cannot read shard {path}: {error}") from None
    with handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if index == len(lines) - 1:
                break  # truncated tail of a dying worker
            raise ObsError(
                f"shard {path}:{index + 1}: not valid JSON ({error})"
            ) from None
    return records


def collect_shard_fallback(path: Optional[str]) -> List[Dict[str, Any]]:
    """The shard records a failed worker attempt left behind (if any).

    Returns an empty list when no context was shipped, the worker never
    started, or the file is unreadable — recovery telemetry is strictly
    best-effort and must never turn a survivable fault into an error.
    """
    if not path or not os.path.exists(path):
        return []
    try:
        return read_shard_file(path)
    except ObsError:
        return []
