"""Tiny-scale smoke test of the benchmark: every named metric appears for
every workload it applies to, with its unit and direction, and the
command refuses to run without the package sources."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

TINY = dict(count=12, n_gt=32, epochs=1, dense_points=256,
            overrides={"n_out": 32, "encoder_dims": (4, 8, 8, 16, 8),
                       "decoder_hidden": (12, 12), "batch_size": 4})


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_workload_reports_every_metric(name):
    declared_e2e, declared_layers = harness.declared_metrics()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    plain = harness.run_workload(tiny(name), seed=3, seconds=0, trace=False)
    assert plain["correct"], plain["checks_failed"]
    for metric, (unit, better, applies) in harness.END_TO_END.items():
        if name in applies:
            got = plain["end_to_end"][metric]
            assert (got["unit"], got["better"]) == (unit, better), metric
    for metric in declared_e2e:
        got = plain["end_to_end"][metric]
        assert (got["unit"], got["better"]) == (
            declared[metric]["unit"], declared[metric]["better"]), metric
        assert got["value"] > 0, metric
    assert json.loads(harness.result_line(plain, declared_e2e))["metrics"].keys() \
        == set(declared_e2e)

    traced = harness.run_workload(tiny(name), seed=3, seconds=0, trace=True)
    assert traced["correct"], traced["checks_failed"]
    assert traced["per_layer"].keys() == harness.PER_LAYER.keys()
    for metric in declared_layers:
        assert traced["per_layer"][metric]["unit"] == declared[metric]["unit"]
    assert json.loads(harness.result_line(traced, declared_layers))["metrics"].keys() \
        == set(declared_layers)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
