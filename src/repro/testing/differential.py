"""Differential equivalence harness: scalar oracle vs batched stepper.

The batched multi-drive stepper (:mod:`repro.runtime.batched`) plans
every drive, ``SystemsOnAVehicle.drive`` included (a batch of one), and
claims to be an *execution strategy*, not a semantic change: every drive
it advances must be bit-identical to the same drive planned tick by tick
by the scalar ``MpcPlanner.plan`` (:func:`~repro.testing.scalar.scalar_drive`).
This module is the machine that earns that claim.  It enumerates
``scenario x seed x fault`` cells over the corridor suite and the
procedural generator, drives every cell through **both** (the batched
side in genuinely shared lockstep batches, so cross-drive interleaving
is exercised), and compares:

* the full :func:`~repro.testing.invariants.drive_fingerprint` —
  trajectory endpoint, tick structure, fault history, latency totals —
  field by field, floats exact;
* degradation-mode residency, as a dict (not just the fingerprint's
  sorted view);
* the collision / stop / safe-stop flags;
* the Eq. 1 deadline-accounting table: total misses, per-stage and
  per-mode charges, ticks observed.

Every mismatch carries the cell id and a paste-able repro line, so a
divergence found in a 200-cell nightly sweep is a pinned single-cell
reproduction by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..scene.corridors import corridor_names, make_corridor_sov
from ..scene.providers import resolve_scene
from .invariants import drive_fingerprint
from .scalar import scalar_drive

#: Field names of the :func:`drive_fingerprint` tuple, index-aligned.
FINGERPRINT_FIELDS: Tuple[str, ...] = (
    "final_x_m",
    "final_y_m",
    "final_heading_rad",
    "final_speed_mps",
    "control_ticks",
    "collisions",
    "reactive_overrides",
    "reactive_holds",
    "proactive_skips",
    "fallback_commands",
    "can_frames_dropped",
    "distance_m",
    "min_forward_range_m",
    "faults_injected",
    "mode_ticks",
    "sheds_by_mode",
    "final_mode",
    "mode_residency",
    "min_obstacle_clearance_m",
    "latency_totals_s",
)


@dataclass(frozen=True)
class Mismatch:
    """One field diverging between engines on one cell."""

    cell_id: str
    field: str
    scalar: object
    batched: object

    def repro(self) -> str:
        """The one-liner that replays this cell through both engines."""
        return (
            f"run_differential_cell({self.cell_id!r})"
            f"  # {self.field}: {self.scalar!r} != {self.batched!r}"
        )


@dataclass(frozen=True)
class _Cell:
    """One differential cell: an id plus a pure sov builder.

    ``build()`` must construct a *fresh* configured vehicle every call
    (both engines get their own), returning ``(sov, duration_s)``.
    """

    cell_id: str
    build: Callable[[], Tuple[object, float]]


@dataclass
class DifferentialReport:
    """The full sweep: cells compared, fields checked, divergences."""

    n_cells: int = 0
    comparisons: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format_report(self) -> str:
        lines = [
            f"differential matrix: {self.n_cells} cells, "
            f"{self.comparisons} comparisons -> "
            f"{'MATCH' if self.ok else 'DIVERGED'}"
        ]
        for m in self.mismatches:
            lines.append(f"  !! {m.repro()}")
        return "\n".join(lines)


def compare_drives(cell_id: str, scalar, batched) -> List[Mismatch]:
    """Field-level comparison of two :class:`DriveResult` s.

    Returns one :class:`Mismatch` per diverging field — fingerprint
    fields by name, then the explicit mode-residency / collision-flag /
    deadline-accounting checks the equivalence contract calls out.
    """
    mismatches: List[Mismatch] = []

    def check(name: str, a, b) -> None:
        if a != b:
            mismatches.append(Mismatch(cell_id, name, a, b))

    for name, a, b in zip(
        FINGERPRINT_FIELDS,
        drive_fingerprint(scalar),
        drive_fingerprint(batched),
    ):
        check(name, a, b)
    check("collided", scalar.collided, batched.collided)
    check("stopped", scalar.stopped, batched.stopped)
    check(
        "entered_safe_stop", scalar.entered_safe_stop, batched.entered_safe_stop
    )
    check(
        "mode_residency_dict",
        dict(scalar.mode_residency),
        dict(batched.mode_residency),
    )
    ta, tb = scalar.attribution, batched.attribution
    check("attribution_present", ta is not None, tb is not None)
    if ta is not None and tb is not None:
        check("deadline_total_misses", ta.total_misses, tb.total_misses)
        check("deadline_ticks_observed", ta.ticks_observed, tb.ticks_observed)
        check("deadline_by_stage", dict(ta.by_stage), dict(tb.by_stage))
        check("deadline_by_mode", dict(ta.by_mode), dict(tb.by_mode))
    return mismatches


def n_comparisons_per_cell() -> int:
    """Fields checked per cell (assuming attribution present both sides)."""
    return len(FINGERPRINT_FIELDS) + 9


# -- cell enumeration ----------------------------------------------------------


def _corridor_cell(
    name: str, seed: int, fault_seed: Optional[int]
) -> _Cell:
    def build() -> Tuple[object, float]:
        scenario = resolve_scene(name, seed)
        extra = _fault_draw(fault_seed)
        sov = make_corridor_sov(scenario, safety_net=True, extra_faults=extra)
        sov.enable_attribution()
        return sov, scenario.duration_s

    suffix = "" if fault_seed is None else f":f{fault_seed}"
    return _Cell(cell_id=f"diff:{name}:{seed}{suffix}", build=build)


def _fault_draw(fault_seed: Optional[int]) -> Tuple:
    """A deterministic chaos fault schedule for *fault_seed* (None: none).

    Uses the chaos campaign's own sampling path, so differential fault
    cells draw from exactly the fault surface the fleet runs.
    """
    if fault_seed is None:
        return ()
    from ..robustness.chaos import FaultSpace, scenario_for_drive

    return tuple(
        scenario_for_drive(FaultSpace(), fault_seed, fault_seed).faults
    )


def _procgen_cell(generator_seed: int, index: int) -> _Cell:
    def build() -> Tuple[object, float]:
        from ..scene.procgen import DEFAULT_SPACE

        scenario = DEFAULT_SPACE.sample(generator_seed, index)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        return sov, scenario.duration_s

    return _Cell(cell_id=f"diff:procgen:{generator_seed}:{index}", build=build)


def differential_cells(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    fault_seeds: Sequence[Optional[int]] = (None,),
    n_procgen: int = 0,
    generator_seed: int = 0,
) -> List[_Cell]:
    """Enumerate the ``scenario x seed x fault`` differential grid.

    *fault_seeds* entries draw a chaos fault schedule on top of the
    scene's own (None = the scene unmodified); *n_procgen* appends that
    many procedurally generated cells.
    """
    cells: List[_Cell] = []
    for name in names if names is not None else corridor_names():
        for seed in seeds:
            for fault_seed in fault_seeds:
                cells.append(_corridor_cell(name, seed, fault_seed))
    for index in range(n_procgen):
        cells.append(_procgen_cell(generator_seed, index))
    return cells


def run_differential_cell(cell_id: str) -> List[Mismatch]:
    """Replay one cell by id through both engines — the repro entry point.

    Accepts the ``diff:...`` ids this module mints:
    ``diff:<corridor>:<seed>[:f<fault_seed>]`` or
    ``diff:procgen:<generator_seed>:<index>``.
    """
    parts = cell_id.split(":")
    if parts[0] != "diff":
        raise ValueError(f"not a differential cell id: {cell_id!r}")
    if parts[1] == "procgen":
        cell = _procgen_cell(int(parts[2]), int(parts[3]))
    else:
        fault_seed = None
        if len(parts) > 3 and parts[3].startswith("f"):
            fault_seed = int(parts[3][1:])
        cell = _corridor_cell(parts[1], int(parts[2]), fault_seed)
    report = _run_cells([cell], batch_size=1)
    return report.mismatches


def _run_cells(cells: Sequence[_Cell], batch_size: int) -> DifferentialReport:
    from ..runtime.batched import drive_batch

    report = DifferentialReport(n_cells=len(cells))
    scalar_results = []
    for cell in cells:
        sov, duration_s = cell.build()
        scalar_results.append(scalar_drive(sov, duration_s))
    for lo in range(0, len(cells), batch_size):
        chunk = cells[lo : lo + batch_size]
        built = [cell.build() for cell in chunk]
        batched_results = drive_batch(
            [sov for sov, _d in built], [d for _sov, d in built]
        )
        for cell, scalar, batched in zip(
            chunk, scalar_results[lo : lo + batch_size], batched_results
        ):
            found = compare_drives(cell.cell_id, scalar, batched)
            report.comparisons += n_comparisons_per_cell()
            report.mismatches.extend(found)
    return report


def run_differential_matrix(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    fault_seeds: Sequence[Optional[int]] = (None,),
    n_procgen: int = 0,
    generator_seed: int = 0,
    batch_size: int = 32,
) -> DifferentialReport:
    """Drive every cell through both engines and compare bit-for-bit.

    The scalar side runs each cell serially through the scalar planner
    (:func:`~repro.testing.scalar.scalar_drive`); the batched side runs the
    cells in shared lockstep batches of *batch_size* (so drives of
    different scenes, durations, and fault schedules genuinely
    interleave inside one stepper — the configuration the fleet uses).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cells = differential_cells(
        names=names,
        seeds=seeds,
        fault_seeds=fault_seeds,
        n_procgen=n_procgen,
        generator_seed=generator_seed,
    )
    return _run_cells(cells, batch_size=batch_size)
