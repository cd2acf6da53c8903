"""Smoke tests of the benchmark, each workload at its tiny size.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, INFO_METRICS, WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# info-only end-to-end metrics each workload prints
APPLIES = {
    "cactus-small": {"meta_train_s", "failed_frac", "acc.maml", "acc.protonet",
                     "acc.knn", "acc.cluster-match"},
    "partition-paper": {"failed_frac", "acc.knn", "acc.cluster-match"},
    "eval-sweep": {"failed_frac", "acc.scratch", "acc.knn", "acc.linear",
                   "acc.mlp", "acc.cluster-match"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def check_result(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    info, result = smoke(workload, trace=0)
    check_result(result)
    assert units(result["metrics"]) == {name: unit for name, unit, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info_units = {name: unit for name, unit, _ in INFO_METRICS}
    assert units(info["info_metrics"]) == {n: info_units[n] for n in APPLIES[workload]}
    assert info["info_metrics"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_printed_with_units(workload):
    info, result = smoke(workload, trace=1)
    check_result(result)
    assert units(result["metrics"]) == {name: unit for name, unit, _ in PER_LAYER}
    assert info["traced_passes"] >= 1
    assert result["metrics"]["partition.kmeans.calls"]["value"] >= 1


def test_same_seed_gives_identical_digests():
    first, _ = smoke("cactus-small", trace=0, seed=5)
    again, _ = smoke("cactus-small", trace=0, seed=5)
    other, _ = smoke("cactus-small", trace=0, seed=6)
    assert first["digests"] and first["digests"] == again["digests"]
    assert other["digests"]["data.emb"] != first["digests"]["data.emb"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cactus-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
