"""The benchmark's workloads: seeded chaos campaigns and the engines that run them.

A workload is a campaign of chaos cells with the protected config (safety
net on).  Its cells come from a stratified design so that every seed drives
the same mix of scenes and fault kinds: cell ``j`` belongs to stratum
``(scenes[j % len(scenes)], kinds[j % len(kinds)])``, each stratum has its
own :class:`ChaosConfig` whose seed derives from the workload seed, and a
stratum's drives take consecutive drive indices.  The seed moves the scene
geometry, the agents, and the fault timing and severity; the stratification
keeps the amount of work per campaign steady from seed to seed.

The program receives only the generated ``CellSpec`` lists.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.fleetops.cells as fleet_cells
from repro.fleetops.cells import CellResult, CellSpec, ChaosCell
from repro.robustness.chaos import DEFAULT_KIND_WEIGHTS, ChaosConfig, FaultSpace
from repro.scene.cache import clear_cache

import probe

FAULT_KINDS: Tuple[str, ...] = tuple(kind for kind, _ in DEFAULT_KIND_WEIGHTS)
PROCGEN_FAMILIES = (
    "procgen:crossroads",
    "procgen:narrowing_gap",
    "procgen:straight",
    "procgen:t_intersection",
)
NAMED_CORRIDORS = (
    "cluttered_stop",
    "cluttered_stop_lossy_can",
    "narrow_gap",
    "narrow_gap_gps_denied",
    "occluded_crossing",
    "occluded_crossing_stalled",
    "oncoming_agent",
    "pedestrian_platoon",
    "slalom",
    "slalom_flaky_camera",
)
#: Cells per run must leave ten beyond the tail percentile.
MIN_CELLS = 11
POOL_WORKERS = 2
#: Timed passes over the campaign per run; see :func:`normalised`.
PASSES = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it drives and how it is executed.

    ``cells_per_s`` is the nominal campaign rate that sizes a run, so its
    :data:`PASSES` timed passes together last about ``--seconds``; it is a
    fixed constant, never measured, so the same ``(seed, seconds)`` always
    gives the same campaign.  The size is rounded up to a whole number of
    ``whole`` cells: a chunk, or a full cycle of strata.
    """

    name: str
    scenes: Tuple[object, ...]  # None: the single-obstacle drill lane
    engine: str  # "serial", "batched" or "pool"
    cells_per_s: float
    whole: int
    chunk: int = 1
    duration_s: float = 10.0
    warmup_cells: int = 1

    def n_cells(self, seconds: float) -> int:
        n = max(MIN_CELLS, int(round(seconds / PASSES * self.cells_per_s)))
        return self.whole * math.ceil(n / self.whole)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Every (family, fault kind) stratum once: the per-cell cost spreads
        # widely across strata, and a full cycle keeps tick_ms_p50 steady.
        Workload("single_drive", PROCGEN_FAMILIES, "serial", 3.0, whole=44),
        Workload(
            "batched_corridors",
            NAMED_CORRIDORS,
            "batched",
            6.4,
            whole=16,
            chunk=16,
            warmup_cells=4,
        ),
        Workload("pool_drill", (None,), "pool", 25.0, whole=11, duration_s=2.0),
    )
}


def _config_seed(workload: str, seed: int, stratum: int, tag: int) -> int:
    entropy = (zlib.crc32(workload.encode("utf-8")), seed, stratum, tag)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def make_specs(
    workload: Workload, seed: int, n_cells: int, warmup: bool = False
) -> List[CellSpec]:
    """The campaign (or, with *warmup*, the disjoint warm-up cells)."""
    n_strata = math.lcm(len(workload.scenes), len(FAULT_KINDS))
    tag = 1 if warmup else 0
    configs: Dict[int, ChaosConfig] = {}
    specs = []
    for j in range(n_cells):
        stratum = j % n_strata
        if stratum not in configs:
            kind = FAULT_KINDS[j % len(FAULT_KINDS)]
            configs[stratum] = ChaosConfig(
                n_drives=1 + (n_cells - 1 - stratum) // n_strata,
                seed=_config_seed(workload.name, seed, stratum, tag),
                space=FaultSpace(kind_weights=((kind, 1.0),)),
                duration_s=workload.duration_s,
                safety_net=True,
                corridor=workload.scenes[j % len(workload.scenes)],
            )
        cell = ChaosCell(config=configs[stratum], drive_index=j // n_strata)
        specs.append(CellSpec(kind="chaos", index=j, cell=cell))
    if len({spec.cell_id for spec in specs}) != len(specs):
        raise ValueError(f"{workload.name}: derived cell ids collide")
    return specs


@dataclass
class CampaignRun:
    """What one pass over a campaign produced."""

    results: List[CellResult]
    wall_s: float
    n_workers: int
    failed: int = 0
    lost: int = 0
    duplicates: int = 0
    journal_bytes: int = 0
    #: Pool health (``FleetRunReport`` fields); empty for in-process runs.
    pool: Dict[str, object] = field(default_factory=dict)
    #: Host-speed probe times taken during the pass (see ``probe.py``).
    probe_s: List[float] = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        return probe.host_factor(self.probe_s)


def run_campaign(
    workload: Workload, specs: Sequence[CellSpec], scratch: str
) -> CampaignRun:
    """Execute *specs* once with the workload's engine; a timed pass.

    Every pass starts from an empty ``SceneCache``, so a pass never reuses
    the scene caches an earlier pass built.  In-process engines run the
    campaign chunk by chunk, time each chunk and probe the host's speed
    after it, for a fixed share of its wall.  The pool runs the campaign
    in one piece, worker spawn included, and is not probed: its wall is
    mostly dispatch waits and fsyncs, and over ten runs it did not follow
    the probe (slope 0.12), so normalising it only added noise.
    """
    clear_cache()
    if workload.engine == "pool":
        return _run_pool(specs, scratch)
    results: List[CellResult] = []
    failed = 0
    wall_s = 0.0
    probe_s: List[float] = []
    for i in range(0, len(specs), workload.chunk):
        chunk = specs[i : i + workload.chunk]
        started = time.perf_counter()
        try:
            results.extend(fleet_cells.run_cells(chunk, engine=workload.engine))
        except Exception:
            failed += len(chunk)
        chunk_s = time.perf_counter() - started
        wall_s += chunk_s
        probe_s += probe.sample_for(probe.SHARE * chunk_s)
    run = _accounted(specs, results, wall_s, 1, failed)
    run.probe_s = probe_s
    return run


def _run_pool(specs: Sequence[CellSpec], scratch: str) -> CampaignRun:
    from repro.fleetops.supervisor import FleetConfig, FleetSupervisor

    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        journal = os.path.join(tmp, "campaign.journal")
        supervisor = FleetSupervisor(FleetConfig(n_workers=POOL_WORKERS))
        started = time.perf_counter()
        report = supervisor.run(specs, journal_path=journal)
        wall_s = time.perf_counter() - started
        journal_bytes = os.path.getsize(journal)
    run = _accounted(
        specs, report.results, wall_s, POOL_WORKERS, len(report.failed_cells)
    )
    run.lost = max(run.lost, report.lost_cells)
    run.duplicates = max(run.duplicates, report.duplicate_cells)
    run.journal_bytes = journal_bytes
    run.pool = {
        name: getattr(report, name)
        for name in (
            "degraded_to_serial",
            "serial_fallback_cells",
            "retries",
            "worker_crashes",
        )
    }
    return run


def _accounted(specs, results, wall_s, n_workers, failed) -> CampaignRun:
    ids = [r.cell_id for r in results]
    unique = set(ids)
    lost = len({s.cell_id for s in specs} - unique) - failed
    return CampaignRun(
        results=results,
        wall_s=wall_s,
        n_workers=n_workers,
        failed=failed,
        lost=max(0, lost),
        duplicates=len(ids) - len(unique),
    )


def normalised(passes: Sequence[CampaignRun]) -> Tuple[float, List[float]]:
    """Host-time figures of a campaign timed over several passes.

    Each pass's times are divided by its host factor (1 for an unprobed
    pass), which turns them into times on a host at reference speed, and
    then averaged over the passes.  Returns ``(cells_per_s, sorted ms per control tick of every
    cell)``.
    """
    factors = [p.host_factor for p in passes]
    wall_s = statistics.fmean(p.wall_s / f for p, f in zip(passes, factors))
    ticks_ms = sorted(
        statistics.fmean(r.wall_s / f for r, f in zip(same, factors))
        * 1e3
        / control_ticks(same[0])
        for same in zip(*(p.results for p in passes))
    )
    return len(ticks_ms) / wall_s, ticks_ms


def warm_up(workload: Workload, seed: int) -> None:
    """Run the untimed warm-up cells (in process for the pool workload)."""
    specs = make_specs(workload, seed, workload.warmup_cells, warmup=True)
    engine = "serial" if workload.engine == "pool" else workload.engine
    fleet_cells.run_cells(specs, engine=engine)


def reference_results(specs: Sequence[CellSpec]) -> List[CellResult]:
    """The in-process serial reference every engine must reproduce."""
    return fleet_cells.run_cells(specs, engine="serial")


def control_ticks(result: CellResult) -> int:
    """Control ticks of a chaos cell's drive (``drive_fingerprint`` field 4)."""
    ticks = result.fingerprint[4]
    if not isinstance(ticks, int) or ticks <= 0:
        raise ValueError(f"{result.cell_id}: no control ticks in fingerprint")
    return ticks


def sim_metrics(results: Sequence[CellResult]) -> Dict[str, float]:
    """Simulated-time outcomes; they repeat exactly for a given campaign."""
    ticks = sum(control_ticks(r) for r in results)
    return {
        "sim_deadline_miss_rate": sum(r.record.deadline_misses for r in results)
        / ticks,
        "sim_collision_rate": sum(r.record.collided for r in results)
        / len(results),
    }
