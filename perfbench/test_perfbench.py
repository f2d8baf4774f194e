"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import campaigns  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import run as bench  # noqa: E402
from repro.fleetops.cells import campaign_crc  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_names_and_units_are_well_formed():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [w["name"] for w in DECLARED["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert {w["name"] for w in DECLARED["workloads"]} == set(campaigns.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    done = _run("--workload", "pool_drill", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[section]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "pool_drill", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _crc(name: str, seed: int, n: int) -> int:
    specs = campaigns.make_specs(campaigns.WORKLOADS[name], seed, n)
    return campaign_crc(campaigns.reference_results(specs))


def test_same_seed_repeats_campaign_crc_and_another_seed_changes_it():
    assert _crc("pool_drill", 5, 11) == _crc("pool_drill", 5, 11)
    assert _crc("pool_drill", 5, 11) != _crc("pool_drill", 6, 11)


def test_normalised_divides_each_pass_by_its_host_factor():
    def result(wall_s, ticks):
        return SimpleNamespace(cell_id="c", wall_s=wall_s, fingerprint=(0, 0, 0, 0, ticks))

    ref = probe.REFERENCE_S
    quiet = campaigns.CampaignRun(
        [result(0.2, 10), result(0.6, 30)], 0.8, 1, probe_s=[ref, ref]
    )
    # Probe times whose host factor is 1.5.
    slow = 1.5 ** (1.0 / probe.SENSITIVITY) * ref
    busy = campaigns.CampaignRun(
        [result(0.3, 10), result(0.9, 30)], 1.2, 1, probe_s=[0.9 * slow, 1.1 * slow]
    )
    assert busy.host_factor == pytest.approx(1.5)
    cells_per_s, ticks_ms = campaigns.normalised([quiet, busy])
    assert cells_per_s == pytest.approx(2 / 0.8)
    assert ticks_ms == pytest.approx([20.0, 20.0])
    # An unprobed pass (the pool) keeps its raw times.
    unprobed = campaigns.CampaignRun([result(0.3, 10), result(0.9, 30)], 1.2, 2)
    assert campaigns.normalised([unprobed])[0] == pytest.approx(2 / 1.2)


def test_a_pool_that_fell_back_to_serial_fails_the_output_check():
    specs = campaigns.make_specs(campaigns.WORKLOADS["pool_drill"], 5, 11)
    results = campaigns.reference_results(specs)
    args = SimpleNamespace(workload="pool_drill", seed=5, seconds=1.0)
    healthy = {"degraded_to_serial": False, "serial_fallback_cells": 0}
    good = campaigns.CampaignRun(results, 1.0, 2, pool=healthy)
    fell_back = campaigns.CampaignRun(results, 1.0, 2, pool=dict(healthy, serial_fallback_cells=3))
    assert bench._check_outputs(args, [good], results) == []
    problems = bench._check_outputs(args, [good, fell_back], results)
    assert len(problems) == 1 and "fell back to serial" in problems[0]


def test_warmup_cells_are_disjoint_from_the_campaign():
    workload = campaigns.WORKLOADS["single_drive"]
    campaign = {s.cell_id for s in campaigns.make_specs(workload, 2, 44)}
    warm = {s.cell_id for s in campaigns.make_specs(workload, 2, 44, warmup=True)}
    assert not campaign & warm


@pytest.mark.parametrize("name, n_cells", [("single_drive", 2), ("batched_corridors", 4)])
def test_traced_mode_leaves_outputs_unchanged_and_covers_the_wall(tmp_path, name, n_cells):
    workload = campaigns.WORKLOADS[name]
    specs = campaigns.make_specs(workload, 4, n_cells)
    plain = campaigns.run_campaign(workload, specs, str(tmp_path))
    with layers.LayerTracer() as tracer:
        traced = campaigns.run_campaign(workload, specs, str(tmp_path))
    assert campaign_crc(traced.results) == campaign_crc(plain.results)
    assert campaigns.sim_metrics(traced.results) == campaigns.sim_metrics(plain.results)
    for target in layers.TARGETS:
        assert not hasattr(target.owner.__dict__[target.attr], "__wrapped__")
    values = layers.layer_metrics(tracer, traced, campaigns.normalised([plain])[0])
    # Coverage counts only the time below the outermost run_cells spans.
    assert values["trace.coverage_frac"] >= 0.95
    if workload.engine == "batched":
        # Every pass starts with an empty SceneCache: the first call per
        # corridor builds, the rest hit.
        assert 0.0 < values["scene.cache.build_frac"] < 0.5
    assert values["runtime.sov.finish_step_ms_per_cell"] > 0.0
    assert set(values) == {m["name"] for m in DECLARED["per_layer"]}
    stem = str(tmp_path / name)
    trace_path, _table = layers.write_outputs(tracer, traced.wall_s, stem)
    events = json.loads(Path(trace_path).read_text(encoding="utf-8"))["traceEvents"]
    assert {e["name"] for e in events} >= {"runtime.sov.finish_step", "fleetops.cells.run_cells"}
    # Perfetto needs the aggregate slices of one thread not to overlap.
    by_thread = {}
    for e in events:
        if e["ph"] == "X" and e["tid"] > 1:
            by_thread.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    for slices in by_thread.values():
        slices.sort()
        assert all(end <= nxt for (_s, end), (nxt, _e) in zip(slices, slices[1:]))
