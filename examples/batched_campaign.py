"""Batched campaign: the SoA multi-drive stepper vs the scalar planner.

Runs one chaos campaign three ways — every drive planned tick by tick by
the scalar ``MpcPlanner.plan`` (the oracle, ``repro.testing.scalar_drive``),
each cell through ``SystemsOnAVehicle.drive`` (the vectorized planner at
one drive per batch), and all cells together through the batched
multi-drive stepper (``repro.runtime.batched``), which advances every
drive in numpy-vectorized lockstep.  Proves the vectorized engine is an
*execution strategy*, not a semantic change: per-cell identities and the
campaign CRC must match bit for bit, and prints the wall-clock speedup
over the scalar planner at both batch sizes.

Usage::

    python examples/batched_campaign.py [n_cells]
    python examples/batched_campaign.py 24    # CI smoke mode
"""

import sys
import time

from repro.fleetops.cells import campaign_crc, chaos_cells, run_cells
from repro.robustness.chaos import ChaosConfig, build_chaos_drive
from repro.testing import drive_fingerprint, scalar_drive

SEED = 0
DURATION_S = 2.0


def scalar_identities(specs):
    """Each cell's ``CellResult.identity()``, its drive planned by the
    scalar oracle."""
    identities = []
    for spec in specs:
        cell = spec.cell
        _scenario, sov, duration = build_chaos_drive(
            cell.config, cell.drive_index
        )
        fingerprint = drive_fingerprint(scalar_drive(sov, duration))
        identities.append((spec.cell_id, spec.index, spec.kind, fingerprint))
    return identities


def main() -> None:
    n_cells = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    config = ChaosConfig(
        n_drives=n_cells, seed=SEED, duration_s=DURATION_S, safety_net=True
    )
    specs = list(chaos_cells(config))
    print(f"Batched campaign — {n_cells} chaos cells, three ways")
    print("=" * 78)

    started = time.perf_counter()
    scalar = scalar_identities(specs)
    scalar_wall = time.perf_counter() - started
    print(f"\nscalar planner:        {n_cells} cells in {scalar_wall:.2f} s")

    started = time.perf_counter()
    serial = run_cells(specs)
    serial_wall = time.perf_counter() - started
    print(f"serial engine, N=1:    {n_cells} cells in {serial_wall:.2f} s")

    started = time.perf_counter()
    batched = run_cells(specs, engine="batched")
    batched_wall = time.perf_counter() - started
    print(
        f"batched engine, N={n_cells}: {n_cells} cells in {batched_wall:.2f} s"
    )
    if serial_wall > 0 and batched_wall > 0:
        print(
            f"speedup over the scalar planner: "
            f"{scalar_wall / serial_wall:.2f}x at N=1, "
            f"{scalar_wall / batched_wall:.2f}x at N={n_cells}"
        )

    serial_crc = campaign_crc(serial)
    batched_crc = campaign_crc(batched)
    identities_match = (
        [r.identity() for r in serial] == scalar
        and [r.identity() for r in batched] == scalar
    )
    print(
        f"\ncampaign CRC: serial {serial_crc:#010x}, "
        f"batched {batched_crc:#010x}"
    )
    print(
        "per-cell identities bit-identical to the scalar planner: "
        f"{identities_match}"
    )
    if serial_crc != batched_crc or not identities_match:
        raise SystemExit("vectorized campaign diverged from the scalar planner")
    print(
        "\nOK — the vectorized planner changed how drives ran, "
        "not what they computed"
    )


if __name__ == "__main__":
    main()
