#!/usr/bin/env python3
"""The repository benchmark: one seeded chaos campaign per run, checked and timed.

Usage, from the repository root::

    python3 perfbench/run.py --workload single_drive --seed 3 --seconds 14 --trace 0

A run generates its workload's campaign from ``--seed`` (sized so that its
timed passes together last about ``--seconds``), warms up on disjoint
cells, and runs the campaign twice as a closed loop, probing the host's
speed in between (``probe.py``).  Times are reported as on a host at
reference speed.  It then checks the outputs: no failed, lost or duplicate
cell, no pool fallback to serial, and, for every pass, a ``campaign_crc``
and simulated-time metrics equal to an in-process serial reference and, at
the default seed and seconds, to the values in ``perfbench/expected.json``.
The last stdout line is the JSON result; the line before it holds the run's
metadata (CRC, simulated-time metrics, raw pass walls and host factors,
tail, host context).

``--trace 1`` additionally re-runs the campaign under the out-of-program
layer tracer (``layers.py``) and reports the per-layer metrics instead of
the end-to-end ones; the trace and its self-time table land in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 0
#: Cells left beyond the tail percentile.
TAIL_CELLS = 10
#: Extra fresh-process set-ups per run; setup_s is the median of these
#: and the run's own set-up.
SETUP_REPEATS = 2


def _load_program() -> None:
    """Put the program's source and the benchmark's modules on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the ready instant, and exit (setup_s samples)",
    )
    return parser.parse_args(argv)


# -- host context (metadata, never a metric) -----------------------------------


def _steal_s() -> float:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _since_process_start_s() -> float:
    """Seconds since this process was created (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of the largest child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# -- set-up ---------------------------------------------------------------------


def _set_up(workload, seed: int, seconds: float):
    """Spec generation plus one untimed warm-up cell or chunk."""
    import campaigns

    specs = campaigns.make_specs(workload, seed, workload.n_cells(seconds))
    campaigns.warm_up(workload, seed)
    return specs


def _setup_sample(args) -> float:
    """Time one fresh process from launch to its first timed cell."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - started


# -- metrics and checks ---------------------------------------------------------


def _end_to_end(passes, setup_samples, peak_rss_mb):
    """The end-to-end metrics, in time on a host at reference speed, and
    the tail series for the metadata line."""
    import campaigns

    cells_per_s, ticks_ms = campaigns.normalised(passes)
    n = len(ticks_ms)
    metrics = {
        "cells_per_s": cells_per_s,
        "tick_ms_p50": statistics.median(ticks_ms),
        # The set-up samples are taken next to the passes, so the passes'
        # host factor stands for theirs too.
        "setup_s": statistics.median(setup_samples)
        / statistics.fmean(run.host_factor for run in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    # The tail is metadata: at these cell counts it is too noisy to bound.
    tail = {
        "tick_ms_tail": ticks_ms[n - 1 - TAIL_CELLS],
        "tick_ms_tail_percentile": 100.0 * (n - 1 - TAIL_CELLS) / (n - 1),
    }
    return metrics, tail


def _check_outputs(args, passes, reference) -> list:
    """Problems with the campaign's outputs (empty when all is correct)."""
    import campaigns
    from repro.fleetops.cells import campaign_crc

    expected = {
        "serial reference": dict(
            campaigns.sim_metrics(reference), campaign_crc=campaign_crc(reference)
        )
    }
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        recorded = json.load(fh).get(args.workload)
    if recorded and (args.seed, args.seconds) == (recorded["seed"], recorded["seconds"]):
        expected["expected.json"] = recorded
    problems = []
    for i, run in enumerate(passes):
        if run.failed or run.lost or run.duplicates:
            problems.append(
                f"pass {i}: failed={run.failed} lost={run.lost} duplicate={run.duplicates}"
            )
        # A pool that fell back to in-process execution timed another engine.
        if run.pool.get("degraded_to_serial") or run.pool.get("serial_fallback_cells"):
            problems.append(f"pass {i}: the pool fell back to serial: {run.pool}")
        observed = dict(campaigns.sim_metrics(run.results), campaign_crc=campaign_crc(run.results))
        for source, values in expected.items():
            for key, value in observed.items():
                if values[key] != value:
                    problems.append(f"pass {i}: {key} {value!r} != {values[key]!r} ({source})")
    return problems


def _fail(problems, attempted, failed) -> None:
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
    sys.exit(1)


def main(argv=None) -> None:
    args = _parse(argv)
    _load_program()
    import campaigns

    workload = campaigns.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(campaigns.WORKLOADS)}")
    specs = _set_up(workload, args.seed, args.seconds)
    own_setup_s = _since_process_start_s()
    if args.setup_only:
        print(json.dumps({"ready": time.perf_counter()}))
        return

    from repro.fleetops.cells import campaign_crc

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    steal_before = _steal_s()

    # The timed passes, with the untimed serial reference between them.  A
    # serial-engine workload's passes are independent serial runs, so the
    # first one is the reference the others must reproduce.
    passes, reference = [], None
    for _ in range(campaigns.PASSES):
        passes.append(campaigns.run_campaign(workload, specs, str(OUT / "tmp")))
        if reference is None:
            if workload.engine == "serial":
                reference = passes[0].results
            else:
                reference = campaigns.reference_results(specs)
    peak_rss_mb = _peak_rss_mb()
    failed = sum(run.failed + run.lost + run.duplicates for run in passes)
    problems = _check_outputs(args, passes, reference)
    if problems:
        _fail(problems, len(specs), failed)

    crc, sim = campaign_crc(reference), campaigns.sim_metrics(reference)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "cells": len(specs),
        "pass_wall_s": [run.wall_s for run in passes],
        "pass_host_factor": [run.host_factor for run in passes],
        "campaign_crc": crc,
        **sim,
    }
    if workload.engine == "pool":
        meta["pool"] = [run.pool for run in passes]
    if args.trace:
        import layers

        OUT.mkdir(exist_ok=True)
        with layers.LayerTracer() as tracer:
            traced = campaigns.run_campaign(workload, specs, str(OUT / "tmp"))
        if (campaign_crc(traced.results), campaigns.sim_metrics(traced.results)) != (crc, sim):
            _fail(["the traced run changed campaign_crc or a sim_* metric"], len(specs), failed)
        values = layers.layer_metrics(tracer, traced, campaigns.normalised(passes)[0])
        stem = str(OUT / f"{args.workload}-seed{args.seed}")
        meta["trace_files"] = layers.write_outputs(tracer, traced.wall_s, stem)
        declared_metrics = declared["per_layer"]
    else:
        setup = [own_setup_s] + [_setup_sample(args) for _ in range(SETUP_REPEATS)]
        values, tail = _end_to_end(passes, setup, peak_rss_mb)
        meta.update(setup_samples_s=setup, **tail)
        declared_metrics = declared["end_to_end"]

    meta["host"] = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "steal_s": _steal_s() - steal_before,
        "probe_mean_s": [statistics.fmean(run.probe_s) if run.probe_s else None for run in passes],
    }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics
    }
    print(json.dumps(meta))
    print(json.dumps({"correct": True, "attempted": len(specs), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
