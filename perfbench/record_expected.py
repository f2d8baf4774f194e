#!/usr/bin/env python3
"""Record each workload's serial-reference outputs at the default seed.

Usage, from the repository root (after a change that is meant to alter
simulated outcomes)::

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``: for every workload, the campaign
CRC and simulated-time metrics of the in-process serial reference at the
default seed and the ``run_seconds`` of ``BENCHMARK.json``.  ``run.py``
checks runs at that seed and length against these values.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run._load_program()
    import campaigns
    from repro.fleetops.cells import campaign_crc

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = float(json.load(fh)["run_seconds"])
    recorded = {}
    for name, workload in campaigns.WORKLOADS.items():
        specs = campaigns.make_specs(workload, run.DEFAULT_SEED, workload.n_cells(seconds))
        reference = campaigns.reference_results(specs)
        recorded[name] = {
            "seed": run.DEFAULT_SEED,
            "seconds": seconds,
            "campaign_crc": campaign_crc(reference),
            **campaigns.sim_metrics(reference),
        }
        print(name, recorded[name], flush=True)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
