"""Supervised multi-process worker pool for fleet campaigns.

The :class:`FleetSupervisor` runs a grid of
:class:`~repro.fleetops.cells.CellSpec` cells across a pool of worker
processes and is robust by construction, borrowing the discipline the
on-vehicle :class:`~repro.robustness.health.HealthMonitor` applies to
vehicle modules:

* **Heartbeat liveness.**  Every worker runs a daemon thread stamping a
  shared-memory timestamp; a stale stamp (or a dead process) marks the
  worker failed, its in-flight cell is re-queued, and the worker is
  restarted — up to a bounded restart budget, like the watchdog's
  supervised module restarts.
* **Per-cell wall-clock timeouts.**  A cell that exceeds
  ``cell_timeout_s`` gets its worker terminated and the cell retried
  elsewhere.
* **Bounded seeded-backoff retries.**  Failed dispatches retry after an
  exponential backoff with seeded jitter (same seed, same schedule);
  past ``max_retries_per_cell`` failures the cell falls back to one
  final in-process serial attempt.
* **Straggler speculation.**  An in-flight cell running far past the
  median completed-cell wall time is speculatively re-dispatched to an
  idle worker; the first result wins and the loser's duplicate is
  discarded by cell id.  Because :func:`~repro.fleetops.cells.run_cell`
  is pure per spec, both results are bit-identical, so discarding is
  lossless.
* **Graceful degradation to serial.**  When the pool collapses (every
  worker dead, restart budget spent) the supervisor finishes the
  remaining cells in-process — slower, never wrong, the campaign-engine
  analogue of REACTIVE_ONLY mode.

Completed cells are checkpointed to the crash-consistent campaign
journal (:mod:`repro.fleetops.journal`) before being counted, so an
interrupted campaign resumes with exactly-once accounting: zero lost
cells, zero duplicated cells.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing as mp
import statistics
import threading
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cells import CellResult, CellSpec, run_cell
from .injection import WorkerFaultPlan
from .journal import (
    CampaignJournal,
    campaign_signature,
    load_journal,
    truncate_to_valid_prefix,
)


@dataclass(frozen=True)
class FleetConfig:
    """Supervision policy for one fleet run."""

    n_workers: int = 4
    #: Hard per-cell wall-clock ceiling; past it the worker is killed
    #: and the cell retried.
    cell_timeout_s: float = 120.0
    #: Worker heartbeat cadence (a daemon thread stamps shared memory).
    heartbeat_interval_s: float = 0.25
    #: A worker whose stamp is older than this is declared hung.
    heartbeat_timeout_s: float = 30.0
    #: Re-dispatches allowed per cell after its first failure; past the
    #: budget the cell gets one final in-process serial attempt.
    max_retries_per_cell: int = 2
    retry_backoff_base_s: float = 0.05
    retry_backoff_cap_s: float = 2.0
    #: Straggler threshold: max(min_straggler_s, factor x median wall
    #: time of completed cells).  Speculation needs an idle worker.
    straggler_factor: float = 6.0
    min_straggler_s: float = 5.0
    speculative_execution: bool = True
    #: Worker restarts allowed pool-wide before the pool is declared
    #: collapsed and the campaign degrades to serial execution.
    max_worker_restarts: int = 8
    #: Supervisor poll cadence (result-queue wait per loop turn).
    poll_interval_s: float = 0.02
    #: Multiprocessing start method (None: fork where available).
    mp_start_method: Optional[str] = None
    #: Seed for the retry-backoff jitter stream.
    seed: int = 0
    #: fsync the journal after every record (crash consistency; turn
    #: off only for throughput experiments).
    journal_fsync: bool = True

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("fleet needs at least one worker")
        if self.cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError("heartbeat timeout must exceed the interval")
        if self.max_retries_per_cell < 0:
            raise ValueError("retry budget cannot be negative")
        if self.max_worker_restarts < 0:
            raise ValueError("restart budget cannot be negative")


@dataclass
class FleetRunReport:
    """Everything one supervised campaign run did and survived."""

    n_cells: int
    n_workers: int
    results: List[CellResult] = field(default_factory=list)
    cells_from_journal: int = 0
    journal_tail_dropped: int = 0
    journal_duplicates_dropped: int = 0
    retries: int = 0
    cell_errors: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    worker_timeouts: int = 0
    workers_restarted: int = 0
    stragglers_detected: int = 0
    speculative_launches: int = 0
    duplicates_discarded: int = 0
    serial_fallback_cells: int = 0
    degraded_to_serial: bool = False
    dropped_messages: int = 0
    failed_cells: Tuple[str, ...] = ()
    #: cell_id -> last worker-side exception traceback, for every cell
    #: that errored at least once (failed cells keep theirs; cells that
    #: eventually completed carry it on ``CellResult.error`` instead).
    failure_details: Dict[str, str] = field(default_factory=dict)
    wall_s: float = 0.0
    journal_path: Optional[str] = None

    @property
    def lost_cells(self) -> int:
        """Cells the campaign never accounted for — must be zero."""
        return self.n_cells - len(self.results) - len(self.failed_cells)

    @property
    def duplicate_cells(self) -> int:
        """Cells counted more than once in the final accounting — zero
        by construction (speculative duplicates are discarded on
        arrival, journal duplicates on load)."""
        return len(self.results) - len({r.cell_id for r in self.results})

    @property
    def cells_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return len(self.results) / self.wall_s

    @property
    def ok(self) -> bool:
        return (
            not self.failed_cells
            and self.lost_cells == 0
            and self.duplicate_cells == 0
        )

    def summary(self) -> Dict[str, float]:
        """Flat numeric view (experiment rows, bench snapshots)."""
        return {
            "n_cells": float(self.n_cells),
            "completed": float(len(self.results)),
            "lost_cells": float(self.lost_cells),
            "duplicate_cells": float(self.duplicate_cells),
            "cells_from_journal": float(self.cells_from_journal),
            "retries": float(self.retries),
            "worker_crashes": float(self.worker_crashes),
            "worker_hangs": float(self.worker_hangs),
            "worker_timeouts": float(self.worker_timeouts),
            "workers_restarted": float(self.workers_restarted),
            "stragglers_detected": float(self.stragglers_detected),
            "speculative_launches": float(self.speculative_launches),
            "duplicates_discarded": float(self.duplicates_discarded),
            "serial_fallback_cells": float(self.serial_fallback_cells),
            "degraded_to_serial": float(self.degraded_to_serial),
            "failed_cells": float(len(self.failed_cells)),
            "cells_per_s": self.cells_per_s,
            "wall_s": self.wall_s,
        }


# -- worker side ---------------------------------------------------------------


class _ResultChannel:
    """Worker-to-supervisor messages over one pipe shared by the workers.

    A worker sends synchronously under the writers' lock, so the lock is
    free again before the worker dequeues its next cell: a worker that
    dies between cells cannot leave the channel locked for the others.
    (``multiprocessing.Queue`` sends from a feeder thread, which may still
    hold the shared write lock when its worker dies an instant after the
    supervisor has read the result and handed it the next cell.)
    """

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, message) -> None:
        with self._lock:
            self._writer.send(message)

    def get(self, timeout_s: float):
        """The next message, or None if none arrives within *timeout_s*."""
        if not self._reader.poll(timeout_s):
            return None
        return self._reader.recv()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _worker_main(
    worker_id: int,
    task_q,
    result_q,
    heartbeat,
    heartbeat_interval_s: float,
    fault_plan: Optional[WorkerFaultPlan],
) -> None:
    """Worker loop: heartbeat thread + one cell at a time.

    Module-level (not a closure) so it pickles under any start method.
    The injected crash fires *after* the cell is dequeued and before any
    result is sent — the worker vanishes mid-cell, exactly the failure
    the supervisor must absorb.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval_s)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            spec, attempt = task
            if fault_plan is not None:
                delay = fault_plan.delay_for(spec.cell_id, attempt)
                if delay > 0.0:
                    time.sleep(delay)
                if fault_plan.should_crash(spec.cell_id, attempt):
                    fault_plan.crash_now()
            try:
                result = run_cell(spec)
                result_q.put(
                    ("result", worker_id, spec.cell_id, attempt, result)
                )
            except Exception:
                result_q.put(
                    (
                        "error",
                        worker_id,
                        spec.cell_id,
                        attempt,
                        traceback.format_exc(limit=8),
                    )
                )
    finally:
        stop.set()


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(
        self,
        ctx,
        worker_id: int,
        result_q,
        config: FleetConfig,
        fault_plan: Optional[WorkerFaultPlan],
    ) -> None:
        self.id = worker_id
        self.task_q = ctx.Queue()
        self.heartbeat = ctx.Value("d", time.monotonic())
        self.cell_id: Optional[str] = None
        self.attempt = 0
        self.dispatched_at = 0.0
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.task_q,
                result_q,
                self.heartbeat,
                config.heartbeat_interval_s,
                fault_plan,
            ),
            daemon=True,
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def idle(self) -> bool:
        return self.cell_id is None

    def heartbeat_age_s(self, now: float) -> float:
        return now - float(self.heartbeat.value)

    def assign(self, spec: CellSpec, attempt: int, now: float) -> None:
        self.cell_id = spec.cell_id
        self.attempt = attempt
        self.dispatched_at = now
        self.task_q.put((spec, attempt))

    def release(self) -> None:
        self.cell_id = None

    def shutdown(self, timeout_s: float = 1.0) -> None:
        try:
            if self.alive:
                self.task_q.put(None)
        except Exception:
            pass
        self.process.join(timeout_s)
        if self.alive:
            self.process.terminate()
            self.process.join(timeout_s)
        try:
            self.task_q.cancel_join_thread()
            self.task_q.close()
        except Exception:
            pass


# -- supervisor ----------------------------------------------------------------


@dataclass
class _CellState:
    """In-flight bookkeeping for one not-yet-completed cell."""

    spec: CellSpec
    dispatches: int = 0
    failures: int = 0
    workers: Set[int] = field(default_factory=set)
    first_dispatched_at: float = 0.0
    speculated: bool = False


class FleetSupervisor:
    """Run a cell grid across a supervised worker pool."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()

    # -- public API ------------------------------------------------------------

    def run(
        self,
        specs: Sequence[CellSpec],
        journal_path: Optional[str] = None,
        fault_plan: Optional[WorkerFaultPlan] = None,
        meta: Optional[Dict] = None,
    ) -> FleetRunReport:
        """Execute every cell exactly once; resume from the journal.

        Results come back sorted by ``spec.index`` — the serial order —
        so downstream aggregation cannot observe worker scheduling.
        """
        specs = list(specs)
        ids = [spec.cell_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("cell ids must be unique within a campaign")
        signature = campaign_signature(specs)
        report = FleetRunReport(
            n_cells=len(specs),
            n_workers=self.config.n_workers,
            journal_path=journal_path,
        )
        started = time.perf_counter()
        completed: Dict[str, CellResult] = {}
        journal: Optional[CampaignJournal] = None
        if journal_path is not None:
            state = load_journal(journal_path)
            if state.header is not None:
                if state.campaign != signature:
                    raise ValueError(
                        f"journal {journal_path!r} belongs to campaign "
                        f"{state.campaign!r}, not {signature!r}; refusing "
                        "to mix histories"
                    )
                known = set(ids)
                for cell_id, result in state.results.items():
                    if cell_id in known:
                        completed[cell_id] = result
                report.cells_from_journal = len(completed)
                report.journal_tail_dropped = state.tail_dropped
                report.journal_duplicates_dropped = state.duplicates_dropped
                truncate_to_valid_prefix(state)
            journal = CampaignJournal(
                journal_path, fsync=self.config.journal_fsync
            )
            if state.header is None:
                journal.write_header(signature, len(specs), meta)
        try:
            remaining = [s for s in specs if s.cell_id not in completed]
            if remaining:
                if self.config.n_workers == 1:
                    self._run_serial(remaining, completed, journal, report)
                else:
                    self._run_pool(
                        remaining, completed, journal, report, fault_plan
                    )
        finally:
            if journal is not None:
                journal.close()
        report.results = sorted(
            completed.values(), key=lambda result: result.index
        )
        report.wall_s = time.perf_counter() - started
        return report

    # -- serial path (n_workers == 1 or pool collapse) -------------------------

    def _run_serial(
        self,
        specs: Sequence[CellSpec],
        completed: Dict[str, CellResult],
        journal: Optional[CampaignJournal],
        report: FleetRunReport,
    ) -> None:
        failed = list(report.failed_cells)
        for spec in specs:
            if spec.cell_id in completed:
                continue
            try:
                result = run_cell(spec)
            except Exception:
                failed.append(spec.cell_id)
                report.failure_details[spec.cell_id] = traceback.format_exc(
                    limit=8
                )
                continue
            completed[spec.cell_id] = result
            report.serial_fallback_cells += 1
            if journal is not None:
                journal.append_cell(result, attempt=0, worker=-1)
        report.failed_cells = tuple(failed)

    # -- pool path --------------------------------------------------------------

    def _backoff_s(self, cell_id: str, failure: int) -> float:
        rng = np.random.default_rng(
            [self.config.seed, zlib.crc32(cell_id.encode("utf-8")), failure]
        )
        base = min(
            self.config.retry_backoff_cap_s,
            self.config.retry_backoff_base_s * (2.0 ** max(0, failure - 1)),
        )
        return base * (0.5 + float(rng.random()))

    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        completed: Dict[str, CellResult],
        journal: Optional[CampaignJournal],
        report: FleetRunReport,
        fault_plan: Optional[WorkerFaultPlan],
    ) -> None:
        config = self.config
        try:
            method = config.mp_start_method or (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else mp.get_start_method(allow_none=False)
            )
            ctx = mp.get_context(method)
        except Exception:
            # No usable multiprocessing: the pool never forms at all.
            report.degraded_to_serial = True
            self._run_serial(specs, completed, journal, report)
            return

        result_q = _ResultChannel(ctx)
        spec_by_id = {spec.cell_id: spec for spec in specs}
        pending = deque(specs)
        cells: Dict[str, _CellState] = {}
        retry_heap: List[Tuple[float, int, str]] = []
        retry_seq = 0
        abandoned: List[str] = list(report.failed_cells)
        wall_times: List[float] = []
        restarts_left = config.max_worker_restarts
        next_worker_id = 0
        workers: Dict[int, _WorkerHandle] = {}

        def spawn_worker() -> None:
            nonlocal next_worker_id
            handle = _WorkerHandle(
                ctx, next_worker_id, result_q, config, fault_plan
            )
            workers[handle.id] = handle
            next_worker_id += 1

        def accept(result: CellResult, attempt: int, worker: int) -> None:
            if result.cell_id in completed:
                report.duplicates_discarded += 1
                return
            # A cell that errored on earlier attempts but completed here
            # carries the last traceback as diagnostic payload (it is
            # excluded from identity(), so bit-identity is unaffected).
            detail = report.failure_details.pop(result.cell_id, None)
            if detail is not None and result.error is None:
                result = dataclasses.replace(result, error=detail)
            completed[result.cell_id] = result
            wall_times.append(result.wall_s)
            cells.pop(result.cell_id, None)
            if journal is not None:
                journal.append_cell(result, attempt=attempt, worker=worker)

        def schedule_retry(cell_id: str) -> None:
            """One dispatch of *cell_id* failed; retry, or fall back."""
            nonlocal retry_seq
            if cell_id in completed or cell_id in abandoned:
                return
            state = cells.get(cell_id)
            if state is None:
                return
            state.failures += 1
            if state.workers:
                # A speculative twin is still running; let it race.
                return
            if state.failures <= config.max_retries_per_cell:
                report.retries += 1
                ready_at = time.monotonic() + self._backoff_s(
                    cell_id, state.failures
                )
                heapq.heappush(retry_heap, (ready_at, retry_seq, cell_id))
                retry_seq += 1
                return
            # Retry budget spent: one final in-process serial attempt.
            cells.pop(cell_id, None)
            try:
                result = run_cell(state.spec)
            except Exception:
                abandoned.append(cell_id)
                report.failure_details[cell_id] = traceback.format_exc(
                    limit=8
                )
                return
            report.serial_fallback_cells += 1
            accept(result, attempt=state.dispatches, worker=-1)

        def fail_assignment(worker: _WorkerHandle) -> None:
            cell_id = worker.cell_id
            worker.release()
            if cell_id is None:
                return
            state = cells.get(cell_id)
            if state is not None:
                state.workers.discard(worker.id)
            schedule_retry(cell_id)

        def straggler_threshold_s() -> float:
            if len(wall_times) >= 3:
                return max(
                    config.min_straggler_s,
                    config.straggler_factor * statistics.median(wall_times),
                )
            return config.min_straggler_s

        def next_dispatchable(now: float) -> Optional[CellSpec]:
            while retry_heap and retry_heap[0][0] <= now:
                _ready, _seq, cell_id = heapq.heappop(retry_heap)
                if cell_id in completed or cell_id in abandoned:
                    continue
                return spec_by_id[cell_id]
            while pending:
                spec = pending.popleft()
                if spec.cell_id not in completed:
                    return spec
            return None

        def dispatch(worker: _WorkerHandle, spec: CellSpec, now: float) -> None:
            state = cells.get(spec.cell_id)
            if state is None:
                state = _CellState(spec=spec, first_dispatched_at=now)
                cells[spec.cell_id] = state
            attempt = state.dispatches
            state.dispatches += 1
            state.workers.add(worker.id)
            worker.assign(spec, attempt, now)

        for _ in range(config.n_workers):
            spawn_worker()

        def outstanding() -> int:
            done = sum(
                1
                for cell_id in spec_by_id
                if cell_id in completed or cell_id in abandoned
            )
            return len(spec_by_id) - done

        def receive(timeout_s: float):
            """The next worker message, or None (*timeout_s* 0: no wait)."""
            try:
                return result_q.get(timeout_s)
            except Exception:
                # A torn pipe from a dying worker; the cell itself is
                # recovered by the liveness pass, so just count it.
                report.dropped_messages += 1
                return None

        def work_waiting(now: float) -> bool:
            """An idle worker could be handed a cell right now."""
            if not (pending or (retry_heap and retry_heap[0][0] <= now)):
                return False
            return any(h.idle and h.alive for h in workers.values())

        try:
            while outstanding() > 0:
                # 1. Drain completed work: every message already queued,
                # before the supervision passes.  Wait for one only when
                # no idle worker has work to be dispatched, so a freed
                # worker is handed its next cell on this same turn.
                wait_s = (
                    0.0
                    if work_waiting(time.monotonic())
                    else config.poll_interval_s
                )
                message = receive(wait_s)
                while message is not None:
                    kind, worker_id, cell_id, attempt, payload = message
                    handle = workers.get(worker_id)
                    if handle is not None and handle.cell_id == cell_id:
                        handle.release()
                        state = cells.get(cell_id)
                        if state is not None:
                            state.workers.discard(worker_id)
                    if kind == "result":
                        accept(payload, attempt=attempt, worker=worker_id)
                    else:
                        report.cell_errors += 1
                        report.failure_details[cell_id] = payload
                        schedule_retry(cell_id)
                    message = receive(0.0)

                now = time.monotonic()

                # 2. Liveness: dead processes, stale heartbeats, timeouts.
                for handle in list(workers.values()):
                    if not handle.alive:
                        report.worker_crashes += 1
                        del workers[handle.id]
                        fail_assignment(handle)
                        handle.shutdown(timeout_s=0.1)
                        if restarts_left > 0:
                            restarts_left -= 1
                            report.workers_restarted += 1
                            spawn_worker()
                        continue
                    if handle.heartbeat_age_s(now) > config.heartbeat_timeout_s:
                        report.worker_hangs += 1
                        handle.process.terminate()
                        handle.process.join(0.5)
                        del workers[handle.id]
                        fail_assignment(handle)
                        handle.shutdown(timeout_s=0.1)
                        if restarts_left > 0:
                            restarts_left -= 1
                            report.workers_restarted += 1
                            spawn_worker()
                        continue
                    if (
                        not handle.idle
                        and now - handle.dispatched_at > config.cell_timeout_s
                    ):
                        report.worker_timeouts += 1
                        handle.process.terminate()
                        handle.process.join(0.5)
                        del workers[handle.id]
                        fail_assignment(handle)
                        handle.shutdown(timeout_s=0.1)
                        if restarts_left > 0:
                            restarts_left -= 1
                            report.workers_restarted += 1
                            spawn_worker()

                # 3. Pool collapse -> graceful degradation to serial.
                if not workers:
                    report.degraded_to_serial = True
                    report.failed_cells = tuple(abandoned)
                    leftovers = [
                        spec
                        for spec in specs
                        if spec.cell_id not in completed
                        and spec.cell_id not in abandoned
                    ]
                    self._run_serial(leftovers, completed, journal, report)
                    return

                # 4. Straggler speculation (needs an idle worker).
                if config.speculative_execution:
                    threshold = straggler_threshold_s()
                    idle = [h for h in workers.values() if h.idle and h.alive]
                    for state in list(cells.values()):
                        if not idle:
                            break
                        if state.speculated or len(state.workers) != 1:
                            continue
                        if now - state.first_dispatched_at <= threshold:
                            continue
                        report.stragglers_detected += 1
                        report.speculative_launches += 1
                        state.speculated = True
                        dispatch(idle.pop(), state.spec, now)

                # 5. Dispatch pending/retry work onto idle workers.
                for handle in workers.values():
                    if not handle.idle or not handle.alive:
                        continue
                    spec = next_dispatchable(now)
                    if spec is None:
                        break
                    dispatch(handle, spec, now)
        finally:
            merged = list(abandoned)
            for cell_id in report.failed_cells:
                if cell_id not in merged:
                    merged.append(cell_id)
            report.failed_cells = tuple(merged)
            for handle in workers.values():
                handle.shutdown()
            try:
                result_q.close()
            except Exception:
                pass
