"""The benchmark's own tests: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import folner_entropy as fe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in run.WORKLOADS:
        assert f"{name}:" in proc.stdout


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shift-rates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_tallies_routes_and_restores_originals():
    original = fe.engine.conditional_block_entropy
    wl = workloads.shift_rates(1, None)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert fe.engine.conditional_block_entropy is not original
        for op in wl.ops:
            tr.run_op(op.kind, 0, op.run)
    finally:
        tr.uninstall()
    assert fe.engine.conditional_block_entropy is original
    assert fe.systems.FinitePMPAction.atom_map.__name__ == "atom_map"
    metrics = tr.layer_metrics(1)
    for route in ("enumeration", "product_closed_form", "mixture_split", "cap_error"):
        assert metrics[f"engine.route.{route}"][0] > 0, route
    assert 0.0 < metrics["engine.enum_useful_frac"][0] < 1.0
    assert metrics["groups.FolnerSubset.box.elements"][0] > 0
