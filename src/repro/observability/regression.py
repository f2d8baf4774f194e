"""Seeded benchmark snapshots and the perf-regression gate.

The ROADMAP's north star ("as fast as the hardware allows") needs a
trajectory: every perf PR must prove it did not regress the loop.  The
mechanism is a *snapshot → gate* pair:

1. :func:`snapshot_closedloop` runs a fully seeded closed-loop drive and
   collects its latency distribution (mean/p99/best/worst) plus the
   operational counters — all deterministic per seed — and a wall-clock
   per-tick cost (informational; machine-dependent, not gated).
2. :func:`write_snapshot` persists it as ``BENCH_<name>.json`` (committed
   to the repo as the accepted baseline).
3. :func:`gate_against_baseline` re-runs the same seeded workload and
   fails when a gated metric regresses beyond its tolerance.

Simulated-latency metrics are bit-stable per seed, so their tolerance
exists only to absorb *intentional* recalibrations: an unintentional
change of the sampled distribution trips the gate immediately.  The
``bench-gate`` CLI (:mod:`repro.observability.bench_gate`) wraps this
for CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

#: Metrics the gate checks, with their default relative tolerances.
#: Latency metrics regress *upward*; the gate is one-sided.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "latency_mean_s": 0.05,
    "latency_p99_s": 0.10,
}

#: Per-workload gated metrics and tolerances.  All simulated metrics are
#: bit-stable per seed; nonzero tolerances exist only to absorb
#: *intentional* recalibrations.
WORKLOAD_TOLERANCES: Dict[str, Dict[str, float]] = {
    "closedloop": DEFAULT_TOLERANCES,
    # The chaos-campaign workload gates the safety envelope itself: a
    # single leaked collision or new deadline miss fails immediately.
    "chaos": {
        "collision_rate": 0.0,
        "safe_stop_rate": 0.0,
        "deadline_misses": 0.0,
    },
    # The scheduler workload gates sustained pipeline throughput
    # (downward) alongside per-frame service latency (upward).
    "scheduler": {
        "throughput_hz": 0.05,
        "latency_mean_s": 0.05,
        "latency_p99_s": 0.10,
    },
    # The ingest workload gates the telemetry pipeline's delivery
    # guarantee exactly (no realtime loss, no post-dedup duplicates,
    # ever) alongside fleet throughput (downward) and p99 ingest
    # latency (upward).
    "ingest": {
        "throughput_logs_per_s": 0.05,
        "ingest_p99_s": 0.10,
        "realtime_delivery_rate": 0.0,
        "post_dedup_duplicates": 0.0,
    },
    # The fleet workload gates the campaign engine's exactly-once
    # accounting at zero tolerance (a lost or duplicated cell is a
    # correctness bug, never noise) and the measured envelope exactly,
    # alongside campaign throughput (downward, generous tolerance —
    # wall-clock on shared CI is noisy; the correctness gates are the
    # sharp ones).
    "fleet": {
        "cells_per_s": 0.5,
        "lost_cells": 0.0,
        "duplicate_cells": 0.0,
        "failed_cells": 0.0,
        "collision_rate": 0.0,
        "deadline_misses": 0.0,
    },
    # The procgen workload sweeps generated scenarios through the fleet
    # engine and the invariant harness: the invariant verdict, the
    # exactly-once accounting, and the safety envelope gate at zero
    # tolerance, and the scene_fingerprint shape invariant (below)
    # pins scene generation bit for bit — any change to the generator's
    # draws fails the gate as a shape change, not a tolerance miss.
    "procgen": {
        "cells_per_s": 0.5,
        "violations": 0.0,
        "lost_cells": 0.0,
        "duplicate_cells": 0.0,
        "failed_cells": 0.0,
        "collision_rate": 0.0,
    },
    # The triage workload gates the failure-triage contracts: every
    # minimized counterexample must still violate and every corpus
    # record must replay bit-identically (both zero tolerance,
    # regressing downward), the mean shrink reduction must not decay,
    # and nothing may land in quarantine.  Shrink throughput gates
    # downward with a generous tolerance (wall-clock on shared CI).
    "triage": {
        "mean_reduction_ratio": 0.0,
        "minimized_still_violates_rate": 0.0,
        "corpus_replay_pass_rate": 0.0,
        "corpus_quarantined": 0.0,
        "shrink_evals_per_s": 0.5,
    },
    # The batched workload races the batched multi-drive stepper against
    # the serial engine on the same N corridor drives.  Equivalence gates
    # at zero tolerance (one diverging drive fingerprint fails
    # immediately — the stepper's whole contract is bit-identity), and
    # the measured speedup gates *downward* with a generous tolerance
    # (wall-clock ratios on shared CI are noisy; losing half the
    # vectorization win is still a regression worth failing on).
    "batched": {
        "fingerprint_mismatches": 0.0,
        "collisions": 0.0,
        "speedup": 0.5,
    },
}

#: Which way each gated metric regresses.  Default is "upper" (bigger is
#: worse — latencies, rates, misses); "lower" metrics regress downward
#: (throughput).
DEFAULT_DIRECTIONS: Dict[str, str] = {
    "throughput_hz": "lower",
    "throughput_logs_per_s": "lower",
    "realtime_delivery_rate": "lower",
    "cells_per_s": "lower",
    "mean_reduction_ratio": "lower",
    "minimized_still_violates_rate": "lower",
    "corpus_replay_pass_rate": "lower",
    "shrink_evals_per_s": "lower",
    "speedup": "lower",
}

#: Workload-shape invariants: when present in both snapshots these must
#: match exactly, otherwise the gate is comparing different workloads.
SHAPE_INVARIANTS = (
    "latency_samples",
    "control_ticks",
    "n_drives",
    "frames",
    "n_logs",
    "n_cells",
    "scene_fingerprint",
    "n_violations",
    "shrink_evaluations",
    "corpus_records",
)

#: Snapshot format version (bump on incompatible metric renames).
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class BenchmarkSnapshot:
    """One named, seeded benchmark run, flattened to numeric metrics."""

    name: str
    seed: int
    duration_s: float
    metrics: Dict[str, float]
    version: int = SNAPSHOT_VERSION
    #: Which seeded workload produced this snapshot (drives the re-run
    #: during ``check``); pre-PR-4 snapshots default to "closedloop".
    workload: str = "closedloop"
    #: Extra workload parameters the re-run needs (e.g. n_drives).
    params: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "version": self.version,
            "workload": self.workload,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
        if self.params:
            payload["params"] = {
                k: self.params[k] for k in sorted(self.params)
            }
        return json.dumps(payload, indent=2)


def snapshot_path(name: str, directory: str = ".") -> str:
    import os

    return os.path.join(directory, f"BENCH_{name}.json")


def write_snapshot(snapshot: BenchmarkSnapshot, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(snapshot.to_json() + "\n")


def load_snapshot(path: str) -> BenchmarkSnapshot:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {path!r} has version {data.get('version')}; "
            f"this code reads version {SNAPSHOT_VERSION}"
        )
    workload = data.get("workload", "closedloop")
    if workload not in WORKLOAD_TOLERANCES:
        raise ValueError(
            f"snapshot {path!r} names unknown workload {workload!r}; "
            f"known: {sorted(WORKLOAD_TOLERANCES)}"
        )
    return BenchmarkSnapshot(
        name=data["name"],
        seed=int(data["seed"]),
        duration_s=float(data["duration_s"]),
        metrics={k: float(v) for k, v in data["metrics"].items()},
        workload=workload,
        params={k: float(v) for k, v in data.get("params", {}).items()},
    )


def snapshot_closedloop(
    name: str = "closedloop",
    seed: int = 0,
    duration_s: float = 12.0,
    obstacle_distance_m: float = 30.0,
    tracer=None,
) -> BenchmarkSnapshot:
    """Run the seeded reference drive and collect its metrics.

    The workload is the Eq. 1 drill corridor with the obstacle far
    enough that a nominal drive brakes cleanly: a stable, fully seeded
    exercise of perception, planning, CAN, and actuation.  Pass a
    :class:`~repro.observability.tracing.Tracer` to also capture the
    drive's Perfetto trace (CI uploads it as an artifact).
    """
    from ..runtime.sov import obstacle_ahead_scenario

    sov = obstacle_ahead_scenario(obstacle_distance_m, seed=seed)
    sov.enable_attribution()
    if tracer is not None:
        sov.attach_tracer(tracer)
    started = time.perf_counter()
    result = sov.drive(duration_s)
    wall_s = time.perf_counter() - started
    latency = result.latency
    metrics: Dict[str, float] = {
        "latency_mean_s": latency.mean_s,
        "latency_p99_s": latency.percentile_s(99.0),
        "latency_best_s": latency.best_s,
        "latency_worst_s": latency.worst_s,
        "latency_samples": float(latency.count),
        "control_ticks": float(result.ops.control_ticks),
        "distance_m": result.ops.distance_m,
        "collisions": float(result.ops.collisions),
        "deadline_misses": (
            float(result.attribution.total_misses)
            if result.attribution is not None
            else 0.0
        ),
        # Informational only (machine-dependent): never gated.
        "wall_s_per_tick": wall_s / max(1, result.ops.control_ticks),
    }
    for stage in sorted(latency.stages_s):
        metrics[f"latency_stage_{stage}_mean_s"] = latency.stage_mean_s(stage)
    return BenchmarkSnapshot(
        name=name, seed=seed, duration_s=duration_s, metrics=metrics
    )


#: The chaos workload's campaign shape: a compact seeded sweep down the
#: slalom corridor, big enough that a leaked collision or attribution
#: drift shows, small enough to gate every CI run.
CHAOS_WORKLOAD_DRIVES = 16
CHAOS_WORKLOAD_CORRIDOR = "slalom"


def snapshot_chaos(
    name: str = "chaos",
    seed: int = 0,
    n_drives: int = CHAOS_WORKLOAD_DRIVES,
) -> BenchmarkSnapshot:
    """Run the seeded chaos-campaign workload and collect its envelope.

    The workload drives *n_drives* chaos-sampled fault scenarios down
    the ``slalom`` corridor with the full safety net engaged.  Envelope
    metrics (collision/SAFE_STOP rates, deadline misses, residency) are
    bit-stable per seed and gated; the campaign's wall-clock cost is
    reported per drive (machine-dependent, never gated).
    """
    from ..robustness.chaos import ChaosConfig, run_chaos_campaign

    config = ChaosConfig(
        n_drives=n_drives,
        seed=seed,
        safety_net=True,
        corridor=CHAOS_WORKLOAD_CORRIDOR,
    )
    started = time.perf_counter()
    envelope = run_chaos_campaign(config).envelope
    wall_s = time.perf_counter() - started
    metrics: Dict[str, float] = {
        "n_drives": float(envelope.n_drives),
        "collision_rate": envelope.collision_rate,
        "safe_stop_rate": envelope.safe_stop_rate,
        "stop_rate": envelope.stop_rate,
        "deadline_misses": float(envelope.deadline_misses),
        "mean_reactive_interventions": envelope.mean_reactive_interventions,
        "residency_nominal": envelope.mode_residency_mean.get("NOMINAL", 0.0),
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
        "wall_s_per_drive": wall_s / n_drives,
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=config.duration_s,
        metrics=metrics,
        workload="chaos",
        params={"n_drives": float(n_drives)},
    )


#: The scheduler workload's shape: enough frames that the sustained
#: throughput estimate is stable to well under the gate tolerance.
SCHEDULER_WORKLOAD_FRAMES = 400


def snapshot_scheduler(
    name: str = "scheduler",
    seed: int = 0,
    n_frames: int = SCHEDULER_WORKLOAD_FRAMES,
) -> BenchmarkSnapshot:
    """Run the seeded pipelined-executor workload (paper Sec. IV).

    Replays *n_frames* through the sensing -> perception -> planning
    pipeline and gates sustained throughput (one-sided, *downward*)
    together with per-frame service latency (upward) — the pair the
    paper's pipelining argument balances.
    """
    from ..runtime.scheduler import PipelinedExecutor

    executor = PipelinedExecutor(seed=seed)
    started = time.perf_counter()
    report = executor.run(n_frames)
    wall_s = time.perf_counter() - started
    stats = report.stats
    metrics: Dict[str, float] = {
        "frames": float(n_frames),
        "throughput_hz": report.throughput_hz,
        "latency_mean_s": stats.mean_s,
        "latency_p99_s": stats.percentile_s(99.0),
        "latency_worst_s": stats.worst_s,
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
        "wall_us_per_frame": wall_s / n_frames * 1e6,
    }
    for stage in sorted(stats.stages_s):
        metrics[f"latency_stage_{stage}_mean_s"] = stats.stage_mean_s(stage)
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=n_frames / executor.frame_rate_hz,
        metrics=metrics,
        workload="scheduler",
        params={"n_frames": float(n_frames)},
    )


#: The ingest workload's fleet shape: enough vehicles and logs that the
#: sampled fault profiles cover every kind, small enough to gate CI.
INGEST_WORKLOAD_VEHICLES = 6
INGEST_WORKLOAD_LOGS = 10
INGEST_WORKLOAD_METRICS = 10


def snapshot_ingest(
    name: str = "ingest",
    seed: int = 0,
    n_vehicles: int = INGEST_WORKLOAD_VEHICLES,
    logs_per_vehicle: int = INGEST_WORKLOAD_LOGS,
    metrics_per_vehicle: int = INGEST_WORKLOAD_METRICS,
) -> BenchmarkSnapshot:
    """Run the seeded fleet-telemetry ingest campaign (paper Sec. II-B).

    Every vehicle uplinks its condensed hourly logs across a seeded
    lossy link into one shared ingestion service.  The gate holds the
    delivery guarantee exactly — realtime delivery rate 1.0 and zero
    post-dedup duplicates, both at 0% tolerance — alongside fleet
    throughput (downward) and p99 ingest latency (upward).
    """
    from ..cloud.ingestion import IngestCampaignConfig, run_ingest_campaign

    config = IngestCampaignConfig(
        n_vehicles=n_vehicles,
        logs_per_vehicle=logs_per_vehicle,
        metrics_per_vehicle=metrics_per_vehicle,
        seed=seed,
    )
    started = time.perf_counter()
    result = run_ingest_campaign(config)
    wall_s = time.perf_counter() - started
    report = result.report
    metrics: Dict[str, float] = {
        "n_logs": float(result.realtime_submitted),
        "throughput_logs_per_s": result.throughput_logs_per_s,
        "realtime_delivery_rate": result.realtime_delivery_rate,
        "realtime_lost": float(result.realtime_lost),
        "post_dedup_duplicates": float(result.post_dedup_duplicates),
        "delivered": report.delivered,
        "duplicated_pre_dedup": report.duplicated,
        "corrupted_detected": report.corrupted,
        "dead_lettered": report.dead_lettered,
        "ingest_p50_s": report.ingest_p50_s,
        "ingest_p99_s": report.ingest_p99_s,
        # Informational only (machine-dependent): never gated.
        "wall_s_total": wall_s,
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=result.sim_span_s,
        metrics=metrics,
        workload="ingest",
        params={
            "n_vehicles": float(n_vehicles),
            "logs_per_vehicle": float(logs_per_vehicle),
            "metrics_per_vehicle": float(metrics_per_vehicle),
        },
    )


#: The fleet workload's campaign shape: enough short drill-lane cells
#: that worker scheduling genuinely interleaves, small enough to gate
#: every CI run even with the worker pool running on one core.
FLEET_WORKLOAD_CELLS = 24
FLEET_WORKLOAD_WORKERS = 4
FLEET_WORKLOAD_DURATION_S = 2.0


def snapshot_fleet(
    name: str = "fleet",
    seed: int = 0,
    n_cells: int = FLEET_WORKLOAD_CELLS,
    n_workers: int = FLEET_WORKLOAD_WORKERS,
) -> BenchmarkSnapshot:
    """Run the seeded fleet-campaign workload across the worker pool.

    Drives *n_cells* chaos cells through the supervised fleet engine
    (:mod:`repro.fleetops`) with journaling off (CI gates the resume
    path separately).  Exactly-once accounting (zero lost, zero
    duplicated, zero failed cells) and the measured safety envelope are
    gated at zero tolerance — they are deterministic per seed; campaign
    throughput in cells/sec gates downward with a generous tolerance.
    """
    from ..fleetops.campaign import (
        FleetCampaignConfig,
        fleet_summary,
        run_fleet_campaign,
    )
    from ..fleetops.supervisor import FleetConfig
    from ..robustness.chaos import ChaosConfig

    config = FleetCampaignConfig(
        chaos=ChaosConfig(
            n_drives=n_cells,
            seed=seed,
            safety_net=True,
            duration_s=FLEET_WORKLOAD_DURATION_S,
        ),
        fleet=FleetConfig(n_workers=n_workers, seed=seed),
    )
    result = run_fleet_campaign(config)
    flat = fleet_summary(result)
    metrics: Dict[str, float] = {
        "n_cells": flat["n_cells"],
        "cells_per_s": flat["cells_per_s"],
        "lost_cells": flat["lost_cells"],
        "duplicate_cells": flat["duplicate_cells"],
        "failed_cells": flat["failed_cells"],
        "collision_rate": flat["collision_rate"],
        "safe_stop_rate": flat["safe_stop_rate"],
        "deadline_misses": flat["deadline_misses"],
        "retries": flat["retries"],
        "worker_crashes": flat["worker_crashes"],
        "degraded_to_serial": flat["degraded_to_serial"],
        "risk_adjusted_profit_per_day_usd": flat[
            "risk_adjusted_profit_per_day_usd"
        ],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
        "wall_s_per_cell": flat["wall_s"] / max(1, n_cells),
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=FLEET_WORKLOAD_DURATION_S,
        metrics=metrics,
        workload="fleet",
        params={
            "n_cells": float(n_cells),
            "n_workers": float(n_workers),
        },
    )


#: The procgen workload's shape: enough generated cells that every
#: topology family appears, small enough to gate every CI run with the
#: scene-regeneration + drive-determinism double-check per cell.
PROCGEN_WORKLOAD_CELLS = 12
PROCGEN_WORKLOAD_WORKERS = 4


def snapshot_procgen(
    name: str = "procgen",
    seed: int = 0,
    n_cells: int = PROCGEN_WORKLOAD_CELLS,
    n_workers: int = PROCGEN_WORKLOAD_WORKERS,
) -> BenchmarkSnapshot:
    """Run the seeded procedural-scenario workload (scene + invariants).

    Sweeps *n_cells* scenes sampled from the default
    :class:`~repro.scene.procgen.ProcGenSpace` through the fleet engine
    with the full invariant harness (scene regeneration + the five drive
    invariants per cell).  The invariant verdict, exactly-once
    accounting, and collision rate gate at zero tolerance;
    ``scene_fingerprint`` — the campaign-level CRC over every generated
    scene — is a shape invariant, so the gate fails the moment scene
    generation changes bit for bit.  Throughput in cells/sec gates
    downward with a generous tolerance.
    """
    from ..fleetops.campaign import procgen_summary, run_procgen_campaign
    from ..fleetops.supervisor import FleetConfig

    result = run_procgen_campaign(
        generator_seed=seed,
        n_cells=n_cells,
        fleet=FleetConfig(n_workers=n_workers, seed=seed),
    )
    flat = procgen_summary(result)
    metrics: Dict[str, float] = {
        "n_cells": flat["n_cells"],
        "cells_per_s": flat["cells_per_s"],
        "violations": flat["violations"],
        "checks_run": flat["checks_run"],
        "collision_rate": flat["collision_rate"],
        "safe_stop_rate": flat["safe_stop_rate"],
        "lost_cells": flat["lost_cells"],
        "duplicate_cells": flat["duplicate_cells"],
        "failed_cells": flat["failed_cells"],
        "n_topologies": flat["n_topologies"],
        "scene_fingerprint": flat["campaign_checksum"],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
        "wall_s_per_cell": flat["wall_s"] / max(1, n_cells),
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=0.0,
        metrics=metrics,
        workload="procgen",
        params={
            "n_cells": float(n_cells),
            "n_workers": float(n_workers),
        },
    )


#: The triage workload's shape: the same seeded injection campaign the
#: ``triage_campaign`` experiment runs — both arms contribute
#: violations, both failure classes appear, and the whole loop
#: (harvest, shrink, dedup, classify, file, replay) executes.
TRIAGE_WORKLOAD_CHAOS = 12
TRIAGE_WORKLOAD_PROCGEN = 10
TRIAGE_WORKLOAD_REPLICAS = 4


def snapshot_triage(
    name: str = "triage",
    seed: int = 0,
    n_chaos: int = TRIAGE_WORKLOAD_CHAOS,
    n_procgen: int = TRIAGE_WORKLOAD_PROCGEN,
    n_replicas: int = TRIAGE_WORKLOAD_REPLICAS,
) -> BenchmarkSnapshot:
    """Run the seeded failure-triage workload end to end.

    Harvests injected violations across the chaos and procgen arms,
    delta-debugs each one, deduplicates by failure fingerprint,
    flake-classifies the survivors, files them in a throwaway corpus,
    and replays it.  The triage contracts gate at zero tolerance —
    every minimized cell still violates, every record replays
    bit-identically — and the violation/evaluation counts are shape
    invariants (they are deterministic per seed, so any drift means the
    workload itself changed).  Shrink throughput gates downward.
    """
    import tempfile

    from ..triage.campaign import (
        TriageCampaignConfig,
        run_triage_campaign,
        triage_summary,
    )

    config = TriageCampaignConfig(
        seed=seed,
        n_chaos=n_chaos,
        n_procgen=n_procgen,
        n_replicas=n_replicas,
    )
    with tempfile.TemporaryDirectory() as corpus_dir:
        result = run_triage_campaign(config, corpus_dir=corpus_dir)
        flat = triage_summary(result)
    metrics: Dict[str, float] = {
        "n_candidates": flat["n_candidates"],
        "n_violations": flat["n_violations"],
        "unique_failures": flat["unique_failures"],
        "duplicates_merged": flat["duplicates_merged"],
        "mean_reduction_ratio": flat["mean_reduction_ratio"],
        "minimized_still_violates_rate": flat[
            "minimized_still_violates_rate"
        ],
        "shrink_evaluations": flat["shrink_evaluations"],
        "shrink_evals_per_s": flat["shrink_evals_per_s"],
        "corpus_records": flat["corpus_records"],
        "corpus_replay_pass_rate": flat["corpus_replay_pass_rate"],
        "corpus_quarantined": flat["corpus_quarantined"],
        "n_deterministic": flat["n_deterministic"],
        "n_flaky": flat["n_flaky"],
        "n_unreproducible": flat["n_unreproducible"],
        # Informational only (machine-dependent): never gated.
        "wall_s_total": flat["wall_s"],
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=0.0,
        metrics=metrics,
        workload="triage",
        params={
            "n_chaos": float(n_chaos),
            "n_procgen": float(n_procgen),
            "n_replicas": float(n_replicas),
        },
    )


#: The batched workload's shape: one drive per corridor plus wrap-around
#: repeats up to N, long enough that the stepper's lockstep/retirement
#: machinery is exercised across heterogeneous scene durations.
BATCHED_WORKLOAD_DRIVES = 16
BATCHED_WORKLOAD_DURATION_S = 8.0


def snapshot_batched(
    name: str = "batched",
    seed: int = 0,
    n_drives: int = BATCHED_WORKLOAD_DRIVES,
    duration_s: float = BATCHED_WORKLOAD_DURATION_S,
) -> BenchmarkSnapshot:
    """Race the batched multi-drive stepper against the scalar planner.

    Builds the same *n_drives* corridor drives twice (corridors cycled,
    seeds offset from *seed*), runs one set serially through the scalar
    planner (:func:`~repro.testing.scalar.scalar_drive`, the reference
    the ``speedup`` baseline was measured against) and the other through
    :func:`~repro.runtime.batched.drive_batch`, and snapshots:

    * ``fingerprint_mismatches`` — drives whose
      :func:`~repro.testing.invariants.drive_fingerprint` diverged
      between engines (the equivalence contract; gated at zero);
    * ``speedup`` — aggregate ticks/s, batched over serial (gated
      downward — the vectorization win must not silently erode);
    * per-engine ticks/s plus wall-clock totals (informational).
    """
    from ..runtime.batched import drive_batch
    from ..scene.corridors import corridor_names, make_corridor_sov
    from ..scene.providers import resolve_scene
    from ..testing.invariants import drive_fingerprint
    from ..testing.scalar import scalar_drive

    names = sorted(corridor_names())

    def build(index: int):
        scenario = resolve_scene(names[index % len(names)], seed + index)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        return sov

    serial_sovs = [build(i) for i in range(n_drives)]
    started = time.perf_counter()
    serial_results = [scalar_drive(sov, duration_s) for sov in serial_sovs]
    serial_wall_s = time.perf_counter() - started

    batched_sovs = [build(i) for i in range(n_drives)]
    started = time.perf_counter()
    batched_results = drive_batch(
        batched_sovs, [duration_s] * n_drives
    )
    batched_wall_s = time.perf_counter() - started

    mismatches = sum(
        drive_fingerprint(a) != drive_fingerprint(b)
        for a, b in zip(serial_results, batched_results)
    )
    ticks = sum(r.ops.control_ticks for r in serial_results)
    metrics: Dict[str, float] = {
        "n_drives": float(n_drives),
        "control_ticks": float(ticks),
        "fingerprint_mismatches": float(mismatches),
        "collisions": float(
            sum(r.ops.collisions for r in serial_results)
        ),
        "speedup": (ticks / batched_wall_s) / (ticks / serial_wall_s),
        # Informational only (machine-dependent): never gated.
        "ticks_per_s_serial": ticks / serial_wall_s,
        "ticks_per_s_batched": ticks / batched_wall_s,
        "wall_s_serial": serial_wall_s,
        "wall_s_batched": batched_wall_s,
    }
    return BenchmarkSnapshot(
        name=name,
        seed=seed,
        duration_s=duration_s,
        metrics=metrics,
        workload="batched",
        params={"n_drives": float(n_drives)},
    )


def run_workload(baseline: BenchmarkSnapshot, tracer=None) -> BenchmarkSnapshot:
    """Re-run the seeded workload a baseline snapshot describes."""
    if baseline.workload == "closedloop":
        return snapshot_closedloop(
            name=baseline.name,
            seed=baseline.seed,
            duration_s=baseline.duration_s,
            tracer=tracer,
        )
    if baseline.workload == "chaos":
        return snapshot_chaos(
            name=baseline.name,
            seed=baseline.seed,
            n_drives=int(
                baseline.params.get("n_drives", CHAOS_WORKLOAD_DRIVES)
            ),
        )
    if baseline.workload == "scheduler":
        return snapshot_scheduler(
            name=baseline.name,
            seed=baseline.seed,
            n_frames=int(
                baseline.params.get("n_frames", SCHEDULER_WORKLOAD_FRAMES)
            ),
        )
    if baseline.workload == "ingest":
        return snapshot_ingest(
            name=baseline.name,
            seed=baseline.seed,
            n_vehicles=int(
                baseline.params.get("n_vehicles", INGEST_WORKLOAD_VEHICLES)
            ),
            logs_per_vehicle=int(
                baseline.params.get("logs_per_vehicle", INGEST_WORKLOAD_LOGS)
            ),
            metrics_per_vehicle=int(
                baseline.params.get(
                    "metrics_per_vehicle", INGEST_WORKLOAD_METRICS
                )
            ),
        )
    if baseline.workload == "fleet":
        return snapshot_fleet(
            name=baseline.name,
            seed=baseline.seed,
            n_cells=int(
                baseline.params.get("n_cells", FLEET_WORKLOAD_CELLS)
            ),
            n_workers=int(
                baseline.params.get("n_workers", FLEET_WORKLOAD_WORKERS)
            ),
        )
    if baseline.workload == "procgen":
        return snapshot_procgen(
            name=baseline.name,
            seed=baseline.seed,
            n_cells=int(
                baseline.params.get("n_cells", PROCGEN_WORKLOAD_CELLS)
            ),
            n_workers=int(
                baseline.params.get("n_workers", PROCGEN_WORKLOAD_WORKERS)
            ),
        )
    if baseline.workload == "batched":
        return snapshot_batched(
            name=baseline.name,
            seed=baseline.seed,
            n_drives=int(
                baseline.params.get("n_drives", BATCHED_WORKLOAD_DRIVES)
            ),
            duration_s=baseline.duration_s or BATCHED_WORKLOAD_DURATION_S,
        )
    if baseline.workload == "triage":
        return snapshot_triage(
            name=baseline.name,
            seed=baseline.seed,
            n_chaos=int(
                baseline.params.get("n_chaos", TRIAGE_WORKLOAD_CHAOS)
            ),
            n_procgen=int(
                baseline.params.get("n_procgen", TRIAGE_WORKLOAD_PROCGEN)
            ),
            n_replicas=int(
                baseline.params.get("n_replicas", TRIAGE_WORKLOAD_REPLICAS)
            ),
        )
    raise ValueError(f"unknown workload {baseline.workload!r}")


@dataclass(frozen=True)
class GateFinding:
    """One gated metric's verdict."""

    metric: str
    baseline: float
    current: float
    tolerance: float
    regressed: bool
    #: "upper" metrics regress when they grow; "lower" when they shrink.
    direction: str = "upper"

    @property
    def delta_frac(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        sign = "-" if self.direction == "lower" else "+"
        return (
            f"{self.metric}: baseline {self.baseline:.6g} -> current "
            f"{self.current:.6g} ({self.delta_frac:+.2%}, "
            f"tol {sign}{self.tolerance:.0%}) {verdict}"
        )


@dataclass
class GateReport:
    """The gate's full verdict over one baseline snapshot."""

    name: str
    findings: List[GateFinding] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not any(
            f.regressed for f in self.findings
        )

    def format_report(self) -> str:
        lines = [f"bench-gate: {self.name} -> {'PASS' if self.ok else 'FAIL'}"]
        lines.extend(f.describe() for f in self.findings)
        lines.extend(f"problem: {p}" for p in self.problems)
        return "\n".join(lines)


def gate_metrics(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    tolerances: Optional[Mapping[str, float]] = None,
    directions: Optional[Mapping[str, str]] = None,
) -> Tuple[List[GateFinding], List[str]]:
    """Compare metric maps; returns (findings, structural problems).

    Each gated metric is checked one-sided in its *direction*: "upper"
    metrics (latencies, rates, miss counts) regress when they exceed
    ``baseline * (1 + tol)``; "lower" metrics (throughput) regress when
    they fall below ``baseline * (1 - tol)``.
    """
    tolerances = dict(tolerances or DEFAULT_TOLERANCES)
    directions = dict(DEFAULT_DIRECTIONS, **(directions or {}))
    findings: List[GateFinding] = []
    problems: List[str] = []
    for metric, tolerance in sorted(tolerances.items()):
        if metric not in baseline:
            problems.append(f"baseline is missing gated metric {metric!r}")
            continue
        if metric not in current:
            problems.append(f"current run is missing gated metric {metric!r}")
            continue
        base, cur = baseline[metric], current[metric]
        direction = directions.get(metric, "upper")
        if direction == "lower":
            regressed = cur < base * (1.0 - tolerance)
        else:
            regressed = cur > base * (1.0 + tolerance)
        findings.append(
            GateFinding(
                metric=metric,
                baseline=base,
                current=cur,
                tolerance=tolerance,
                regressed=regressed,
                direction=direction,
            )
        )
    # The workload itself must not silently change shape.
    for invariant in SHAPE_INVARIANTS:
        if invariant in baseline and invariant in current:
            if baseline[invariant] != current[invariant]:
                problems.append(
                    f"workload changed: {invariant} was "
                    f"{baseline[invariant]:.0f}, now {current[invariant]:.0f}"
                )
    return findings, problems


def gate_against_baseline(
    baseline: BenchmarkSnapshot,
    current: Optional[BenchmarkSnapshot] = None,
    tolerances: Optional[Mapping[str, float]] = None,
    tracer=None,
) -> GateReport:
    """Re-run the baseline's seeded workload and gate the result.

    The baseline's ``workload`` field names the seeded runner to replay
    (closed loop, chaos campaign, or scheduler); gated metrics default
    to that workload's :data:`WORKLOAD_TOLERANCES` entry.
    """
    if current is None:
        current = run_workload(baseline, tracer=tracer)
    if tolerances is None:
        tolerances = WORKLOAD_TOLERANCES.get(
            baseline.workload, DEFAULT_TOLERANCES
        )
    findings, problems = gate_metrics(
        baseline.metrics, current.metrics, tolerances
    )
    if baseline.workload != current.workload:
        problems.append(
            f"workload mismatch: baseline is {baseline.workload!r}, "
            f"current is {current.workload!r}"
        )
    return GateReport(name=baseline.name, findings=findings, problems=problems)
