"""Per-layer host-time tracing, applied from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (module
attributes and class methods of ``repro``) for the duration of a ``with``
block and restores the originals on exit, so the program itself carries no
tracing code.  Spans stay in memory: one record per call, except for the
per-simulation-step ``DriveLoop.begin_step`` / ``finish_step`` calls, which
are folded into one aggregate per drive loop and enclosing span.

A span's self time is its duration minus the time its child spans cover.
The coverage figure is the share of the timed wall that spans below the
outermost ones hold: the part of the wall the named layers explain, rather
than the outermost call that the wall is measured around.

Wrappers pass straight through in processes forked while they are
installed, so pool workers run untraced; the in-worker numbers of a pool
run are derived on the parent side from ``CellResult`` fields.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.fleetops.cells as cells_mod
import repro.fleetops.journal as journal_mod
import repro.fleetops.supervisor as supervisor_mod
import repro.planning.mpc as mpc_mod
import repro.robustness.chaos as chaos_mod
import repro.runtime.batched as batched_mod
import repro.runtime.kernels as kernels_mod
import repro.runtime.sov as sov_mod
import repro.scene.providers as providers_mod
import repro.testing.invariants as invariants_mod

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` becomes span ``layer.attr``."""

    owner: object
    attr: str
    layer: str
    #: Fold calls into one aggregate per (enclosing span, key(args)).
    aggregate: bool = False
    #: Optional span arguments computed from (tracer, args, result).
    note: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def _note_cells(tracer, args, result):
    return {"cells": [spec.cell_id for spec in args[0]]}


def _note_requests(tracer, args, result):
    return {"requests": len(args[0])}


def _note_cache(tracer, args, result):
    # A hit returns a SceneCache object this pass has seen before; a build
    # (first use, or a rebuild after eviction) returns a new one.  The
    # benchmark clears the cache before each pass, so no object carries
    # over from an earlier pass.
    built = id(result) not in tracer.seen_caches
    if built:
        tracer.seen_caches[id(result)] = result  # keep alive: ids stay unique
    return {"built": built}


TARGETS: Tuple[Target, ...] = (
    Target(cells_mod, "run_cells", "fleetops.cells", note=_note_cells),
    Target(supervisor_mod.FleetSupervisor, "run", "fleetops.supervisor"),
    Target(journal_mod.CampaignJournal, "append_cell", "fleetops.journal"),
    Target(chaos_mod, "build_chaos_drive", "robustness.chaos"),
    Target(chaos_mod, "chaos_drive_record", "robustness.chaos"),
    Target(providers_mod, "resolve_scene", "scene.providers"),
    Target(sov_mod.SystemsOnAVehicle, "drive", "runtime.sov"),
    Target(sov_mod.DriveLoop, "begin_step", "runtime.sov", aggregate=True),
    Target(sov_mod.DriveLoop, "finish_step", "runtime.sov", aggregate=True),
    Target(sov_mod.DriveLoop, "finalize", "runtime.sov"),
    Target(mpc_mod.MpcPlanner, "plan", "planning.mpc"),
    Target(batched_mod, "drive_batch", "runtime.batched"),
    Target(batched_mod, "plan_requests", "runtime.batched", note=_note_requests),
    Target(batched_mod, "cache_for", "scene.cache", note=_note_cache),
    Target(kernels_mod, "rollout_batch", "runtime.kernels"),
    Target(kernels_mod, "collision_batch", "runtime.kernels"),
    Target(kernels_mod, "cost_batch", "runtime.kernels"),
    Target(invariants_mod, "drive_fingerprint", "testing.invariants"),
)


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into LayerTracer.spans, -1 for a root
    self_ns: int
    args: Optional[Dict] = None
    #: Calls folded into this record (aggregates only).
    calls: int = 1

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerTracer:
    """Installs span-recording wrappers around :data:`TARGETS`.

    The stack holds one ``[span index, child ns]`` frame per open call; a
    folded call's frame carries the enclosing span's index, so anything it
    calls hangs off that span.
    """

    spans: List[Span] = field(default_factory=list)
    #: Aggregated calls: (parent span, name, key) -> Span with ``calls``.
    aggregates: Dict[Tuple[int, str, int], Span] = field(default_factory=dict)
    seen_caches: Dict[int, object] = field(default_factory=dict)
    _stack: List[List[int]] = field(default_factory=lambda: [[-1, 0]])
    _saved: List[Tuple[object, str, object]] = field(default_factory=list)
    _active: bool = False

    def __enter__(self) -> "LayerTracer":
        self._active = True
        os.register_at_fork(after_in_child=self._deactivate)
        for target in TARGETS:
            original = target.owner.__dict__[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _deactivate(self) -> None:
        self._active = False

    def _wrap(self, fn, target: Target):
        tracer, stack = self, self._stack
        name, layer = target.name, target.layer
        if target.aggregate:

            def wrapper(*args, **kwargs):
                if not tracer._active:
                    return fn(*args, **kwargs)
                frame = [stack[-1][0], 0]
                stack.append(frame)
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = _now() - start
                    stack.pop()
                    stack[-1][1] += dur
                    key = (frame[0], name, id(args[0]))
                    entry = tracer.aggregates.get(key)
                    if entry is None:
                        entry = Span(name, layer, start, start, frame[0], 0, {"loop": key[2]}, 0)
                        tracer.aggregates[key] = entry
                    # An aggregate's end is start + summed duration.
                    entry.end_ns += dur
                    entry.self_ns += dur - frame[1]
                    entry.calls += 1

        else:
            note = target.note

            def wrapper(*args, **kwargs):
                if not tracer._active:
                    return fn(*args, **kwargs)
                frame = [len(tracer.spans), 0]
                tracer.spans.append(None)  # type: ignore[arg-type]
                stack.append(frame)
                start = _now()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = _now()
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += end - start
                    span_args = None if note is None else note(tracer, args, result)
                    tracer.spans[frame[0]] = Span(
                        name, layer, start, end, parent[0], end - start - frame[1], span_args
                    )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    # -- views -----------------------------------------------------------------

    def records(self) -> List[Span]:
        return self.spans + list(self.aggregates.values())

    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = defaultdict(list)
        for span in self.records():
            out[span.name].append(span)
        return out

    def root_ns(self) -> int:
        return sum(s.dur_ns for s in self.spans if s.parent < 0)

    def below_root_ns(self) -> int:
        """Time held by spans below the outermost ones."""
        return sum(s.dur_ns - s.self_ns for s in self.spans if s.parent < 0)

    def self_time_table(self, wall_s: float, by: str = "layer") -> List[Tuple[str, float, float, int]]:
        """Rows ``(layer or span name, self ms, share of timed wall, calls)``,
        costliest first, closed by the time outside every span."""
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        for span in self.records():
            key = getattr(span, by)
            self_ns[key] += span.self_ns
            calls[key] += span.calls
        rows = [
            (key, ns / 1e6, ns / 1e9 / wall_s, calls[key])
            for key, ns in self_ns.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        untraced = wall_s - self.root_ns() / 1e9
        rows.append(("(outside any span)", untraced * 1e3, untraced / wall_s, 0))
        return rows

    def trace_events(self) -> Dict:
        """A Perfetto-loadable trace_event JSON document.

        Calls nest on thread 1.  Each aggregate spans its summed duration
        from its first call, so it lies inside its parent span; aggregates
        get one thread per (entry point, loop slot within the parent), which
        keeps the slices on every thread from overlapping.
        """
        t0 = min((s.start_ns for s in self.records()), default=0)
        names = sorted({name for _parent, name, _key in self.aggregates})
        slots: Dict[Tuple[int, int], int] = {}
        per_parent: Dict[int, int] = defaultdict(int)
        placed = [(1, span) for span in self.spans]
        threads = {1: "calls"}
        for (parent, name, key), span in self.aggregates.items():
            if (parent, key) not in slots:
                slots[parent, key] = per_parent[parent]
                per_parent[parent] += 1
            slot = slots[parent, key]
            tid = 2 + slot * len(names) + names.index(name)
            threads[tid] = f"{name} (loop {slot})"
            placed.append((tid, span))
        events: List[Dict] = [_thread_name(tid, name) for tid, name in sorted(threads.items())]
        for tid, span in placed:
            args = dict(span.args or {})
            args.update(self_us=span.self_ns / 1e3, calls=span.calls)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start_ns - t0) / 1e3,
                    "dur": span.dur_ns / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _thread_name(tid: int, name: str) -> Dict:
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}


def _total_ms(spans: Sequence[Span]) -> float:
    return sum(s.dur_ns for s in spans) / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, run, untraced_cells_per_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass; *untraced_cells_per_s* is
    the normalised rate of the untraced passes it is compared with."""
    spans = tracer.by_name()
    n = len(run.results)
    rounds = spans["runtime.batched.plan_requests"]
    round_ids = {i for i, s in enumerate(tracer.spans) if s.name == "runtime.batched.plan_requests"}
    requests = sum(s.args["requests"] for s in rounds)
    plans = spans["planning.mpc.plan"]
    fallbacks = sum(1 for s in plans if s.parent in round_ids)
    caches = spans["scene.cache.cache_for"]
    appends = spans["fleetops.journal.append_cell"]
    walls = [r.wall_s for r in run.results]
    traced_cps = n * run.host_factor / run.wall_s
    return {
        "planning.mpc.plan_ms_per_call": _ratio(_total_ms(plans), len(plans)),
        "planning.mpc.calls_per_cell": len(plans) / n,
        "runtime.sov.begin_step_ms_per_cell": _total_ms(spans["runtime.sov.begin_step"]) / n,
        "runtime.sov.finish_step_ms_per_cell": _total_ms(spans["runtime.sov.finish_step"]) / n,
        "runtime.sov.finalize_ms_per_cell": _total_ms(spans["runtime.sov.finalize"]) / n,
        "runtime.batched.plan_requests_ms_per_round": _ratio(_total_ms(rounds), len(rounds)),
        "runtime.batched.requests_per_round": _ratio(requests, len(rounds)),
        "runtime.batched.scalar_fallback_frac": _ratio(fallbacks, requests),
        "runtime.kernels.rollout_batch_ms": _ratio(
            _total_ms(spans["runtime.kernels.rollout_batch"]), len(rounds)
        ),
        "runtime.kernels.collision_batch_ms": _ratio(
            _total_ms(spans["runtime.kernels.collision_batch"]), len(rounds)
        ),
        "runtime.kernels.cost_batch_ms": _ratio(
            _total_ms(spans["runtime.kernels.cost_batch"]), len(rounds)
        ),
        "scene.cache.calls_per_cell": len(caches) / n,
        "scene.cache.build_frac": _ratio(
            sum(1 for s in caches if s.args["built"]), len(caches)
        ),
        "robustness.chaos.build_ms_per_cell": _total_ms(spans["robustness.chaos.build_chaos_drive"]) / n,
        "testing.invariants.fingerprint_ms_per_cell": _total_ms(
            spans["testing.invariants.drive_fingerprint"]
        ) / n,
        "fleetops.worker_idle_ms_per_cell": (run.n_workers * run.wall_s - sum(walls)) / n * 1e3,
        "fleetops.cell_compute_ms_p50": statistics.median(walls) * 1e3,
        "fleetops.result_bytes_per_cell": sum(len(pickle.dumps(r)) for r in run.results) / n,
        "fleetops.journal_append_ms_p50": (
            statistics.median(s.dur_ns for s in appends) / 1e6 if appends else 0.0
        ),
        "fleetops.journal_bytes_per_cell": run.journal_bytes / n,
        "trace.coverage_frac": tracer.below_root_ns() / 1e9 / run.wall_s,
        "trace.overhead_frac": 1.0 - traced_cps / untraced_cells_per_s,
    }


def write_outputs(tracer: LayerTracer, wall_s: float, stem: str) -> Tuple[str, str]:
    """Write ``<stem>.trace.json`` (Perfetto) and ``<stem>.selftime.txt``."""
    trace_path, table_path = f"{stem}.trace.json", f"{stem}.selftime.txt"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.trace_events(), fh)
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(f"timed wall {wall_s * 1e3:.1f} ms\n")
        for by in ("layer", "name"):
            fh.write(f"\n{'self time by ' + by:<48} {'ms':>10} {'share':>7} {'calls':>8}\n")
            for key, ms, share, calls in tracer.self_time_table(wall_s, by):
                fh.write(f"{key:<48} {ms:>10.1f} {share:>7.1%} {calls:>8}\n")
    return trace_path, table_path
