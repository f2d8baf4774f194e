"""Hypothesis property tests: scalar and batched engines are one engine.

Random corridor and procgen scenes, seeds, and chaos fault draws; the
property is always the same — the batched stepper's drive is
field-for-field bit-identical to the scalar-planner drive
(``repro.testing.scalar_drive``: fingerprint,
mode residency, collision flags, Eq. 1 deadline accounting).  On
failure hypothesis shrinks the coordinates and the assertion message
carries the paste-able ``run_differential_cell`` repro line.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime.batched import drive_batch
from repro.scene.corridors import corridor_names, make_corridor_sov
from repro.scene.providers import resolve_scene
from repro.testing.differential import (
    _corridor_cell,
    _procgen_cell,
    compare_drives,
)
from repro.testing.invariants import drive_fingerprint
from repro.testing.scalar import scalar_drive

_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


def _assert_equivalent(cell) -> None:
    sov_a, duration_a = cell.build()
    scalar = scalar_drive(sov_a, duration_a)
    sov_b, duration_b = cell.build()
    [batched] = drive_batch([sov_b], [duration_b])
    mismatches = compare_drives(cell.cell_id, scalar, batched)
    assert not mismatches, "\n".join(m.repro() for m in mismatches)


@_SETTINGS
@given(
    name=st.sampled_from(sorted(corridor_names())),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.none() | st.integers(min_value=0, max_value=10_000),
)
def test_corridor_cells_equivalent(name, seed, fault_seed):
    _assert_equivalent(_corridor_cell(name, seed, fault_seed))


@_SETTINGS
@given(
    generator_seed=st.integers(min_value=0, max_value=1_000),
    index=st.integers(min_value=0, max_value=63),
)
def test_procgen_cells_equivalent(generator_seed, index):
    _assert_equivalent(_procgen_cell(generator_seed, index))


@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    coords=st.lists(
        st.tuples(
            st.sampled_from(sorted(corridor_names())),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=2,
        max_size=4,
        unique=True,
    )
)
def test_heterogeneous_batches_equivalent(coords):
    """Drives of different scenes in ONE lockstep batch stay identical."""

    def build(name, seed):
        scenario = resolve_scene(name, seed)
        sov = make_corridor_sov(scenario, safety_net=True)
        sov.enable_attribution()
        return sov, scenario.duration_s

    serial = []
    for name, seed in coords:
        sov, duration = build(name, seed)
        serial.append(drive_fingerprint(scalar_drive(sov, duration)))
    built = [build(name, seed) for name, seed in coords]
    batched = drive_batch(
        [sov for sov, _d in built], [d for _sov, d in built]
    )
    for (name, seed), ref, result in zip(coords, serial, batched):
        assert drive_fingerprint(result) == ref, (
            f"run_differential_cell('diff:{name}:{seed}')"
        )
