"""Smoke tests of the federation benchmark itself.

Run from the repository root::

    python -m pytest fedbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fedbench import layers  # noqa: E402
from fedbench.report import (  # noqa: E402
    E2E_METRICS,
    LAYER_METRICS,
    _overlap,
    tail_percentile,
)
from fedbench.harness import run_job  # noqa: E402
from fedbench.workloads import (  # noqa: E402
    WORKLOADS,
    build_inputs,
    derive_seed,
    weights_digest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the quickest workload: no process fabric, 2 s per job
SMOKE_WORKLOAD = "async-cohort-memory"


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = BENCHMARK["command"] + ["--workload", SMOKE_WORKLOAD,
                                      "--seed", "3", "--seconds", "0.1",
                                      *extra]
    return subprocess.run([sys.executable if part == "python3" else part
                           for part in command], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        spec.why for spec in WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in E2E_METRICS]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in LAYER_METRICS]


def test_every_name_is_well_formed():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, _, _, moves in LAYER_METRICS:
        assert moves  # every layer metric says what it should move


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, section):
    completed = _run("--trace", trace)
    result = _result(completed)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    provenance = json.loads(completed.stdout.strip().splitlines()[-2])
    for key in ("commit", "nproc", "backend", "blas_parent", "blas_worker",
                "python", "numpy", "seed"):
        assert key in provenance["provenance"]
    for name in expected:  # the human-readable table names every metric
        assert name in completed.stderr
    if section == "end_to_end":
        for name, entry in result["metrics"].items():
            assert entry["value"] != 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "fedbench", tmp_path / "fedbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_traced_run_restores_every_patched_attribute(tmp_path):
    spec = dataclasses.replace(WORKLOADS[SMOKE_WORKLOAD], n_sites=4,
                               n_train=64, n_valid=16, n_test=16, rounds=2,
                               concurrency=2, buffer_size=2)
    inputs = build_inputs(spec, seed=5)
    tracer = layers.LayerTracer(tmp_path / "trace")
    tracer.install()
    patched = tracer.patched_slots()
    tracer.uninstall()
    assert patched and not tracer.patched_slots()
    originals = {(id(owner), attribute): raw for owner, attribute, raw in patched}
    # every target class/module slot was wrapped and is the original again
    for owner, attribute, raw in patched:
        assert vars(owner)[attribute] is raw, (owner, attribute)

    untraced, _ = run_job(inputs, tmp_path, 0)
    traced, _ = run_job(inputs, tmp_path, 1, layers.LayerTracer(
        tmp_path / "trace-run"))
    assert traced.records, "the traced job recorded no layer calls"
    assert {"client.task", "codec.encode", "aggregator.accept",
            "server.broadcast"} <= {record.name for record in traced.records}
    assert traced.digest == untraced.digest
    for owner, attribute, _ in patched:
        assert vars(owner)[attribute] is originals[(id(owner), attribute)], \
            (owner, attribute)


def test_inputs_are_stable_across_interpreters():
    script = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]\n"
              "from fedbench.workloads import WORKLOADS, build_inputs, weights_digest\n"
              "i = build_inputs(WORKLOADS['finetune-lstm-memory'], 7)\n"
              "print(weights_digest(i.initial_weights), i.site_seeds, i.eval_seed,\n"
              "      [int(s.input_ids.sum()) for s in i.shards.values()])\n")
    outputs = set()
    for hash_seed in ("1", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", script, str(ROOT)], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert completed.returncode == 0, completed.stderr
        outputs.add(completed.stdout)
    assert len(outputs) == 1
    assert derive_seed("a", 1) == derive_seed("a", 1) != derive_seed("a", 2)


def test_tail_percentile_and_overlap():
    assert tail_percentile([1.0, 2.0, 3.0]) == (2.0, 50.0, 3)
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90.0, 90.0, 100)
    assert _overlap(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert _overlap(0.0, 1.0, []) == 0.0


def test_digest_changes_with_any_byte():
    import numpy as np

    weights = {"w": np.zeros(4, dtype=np.float32)}
    changed = {"w": np.array([0, 0, 0, 1e-30], dtype=np.float32)}
    assert weights_digest(weights) != weights_digest(changed)
