"""Machine-checked safety properties for the simulated stack.

:mod:`repro.testing.invariants` turns the paper's prose safety argument
into executable invariants and sweeps them over the corridor scenario
suite (:mod:`repro.scene.corridors`); :func:`scalar_drive` is the
scalar-planner reference drive the vectorized engine is checked against.
"""

from .invariants import (
    INVARIANT_NAMES,
    CellOutcome,
    InvariantViolation,
    MatrixReport,
    drive_fingerprint,
    run_invariant_cell,
    run_invariant_matrix,
)
from .scalar import scalar_drive

__all__ = [
    "INVARIANT_NAMES",
    "CellOutcome",
    "InvariantViolation",
    "MatrixReport",
    "drive_fingerprint",
    "run_invariant_cell",
    "run_invariant_matrix",
    "scalar_drive",
]
