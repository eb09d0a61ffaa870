"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hymad import model as M  # noqa: E402
from hymad import train as T  # noqa: E402
from hymad.functional import bce_with_logits  # noqa: E402

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY_MODEL, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--seed", "1",
                             "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("variant", [
    {}, {"fusion_mode": "concat"}, {"fusion_mode": "freq_only"},
    {"fusion_mode": "temp_only"}, {"frontend": "plain"},
    {"branches": 3, "branch_lens": (17, 33, 65)}])
def test_segmented_step_matches_forward_batch_bit_for_bit(variant):
    cfg = replace(M.ModelConfig(**TINY_MODEL), **variant)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, cfg.input_len))
    y = rng.integers(0, 2, (6, cfg.n_labels)).astype(np.float64)

    params = M.init_params(cfg, 3)
    logits = M.forward_batch(x, cfg, params)
    bce_with_logits(logits, y).backward()
    whole = {k: p.grad for k, p in params.items()}

    params = M.init_params(cfg, 3)
    tr = tracing.Tracer()
    with tr.installed():
        seg_logits = M.forward_batch(x, cfg, params)
        n_segments = len(tr.step.segments)
        T.bce_with_logits(seg_logits, y).backward()
    assert n_segments >= 4
    assert np.array_equal(seg_logits.data, logits.data)
    assert tr.grad_checks == [True]
    for k, p in params.items():
        assert np.array_equal(p.grad, whole[k]), k


def test_perturbed_reference_fails(tmp_path):
    ref = tmp_path / "reference.json"
    args = ("--workload", "eval_test", "--seed", "0", "--trace", "0", "--tiny")
    proc, result = run_bench(*args, "--write-reference", str(ref),
                             "--reference", str(ref))
    assert proc.returncode == 0 and result["correct"], proc.stderr

    stored = json.loads(ref.read_text())
    stored["eval_test-tiny"]["scores_mean"][0] *= 1.0 + 1e-4
    ref.write_text(json.dumps(stored))
    proc, result = run_bench(*args, "--reference", str(ref))
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "reference" in proc.stderr


def test_exits_nonzero_without_a_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = run_bench("--workload", "eval_test", "--seed", "1",
                             cwd=tmp_path)
    assert proc.returncode != 0 and result is None


def write_runs(directory, values, failed=0, drop=None):
    """One untraced eval_test result per value, seeds 0.., as run.py stores them."""
    for seed, value in enumerate(values):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in BENCH["end_to_end"] if m["name"] != drop}
        record = {"workload": "eval_test", "seed": seed, "trace": 0,
                  "result": {"correct": not failed, "attempted": 10,
                             "failed": failed, "metrics": metrics}}
        path = directory / "eval_test" / f"seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))


@pytest.mark.parametrize("change, code", [
    ({}, 0),
    ({"drop": "setup_s"}, 1),
    ({"failed": 1}, 1),
    ({"values": [1.5] * 10}, 1),
])
def test_compare_fails_on_worse_missing_or_failing_runs(tmp_path, change, code):
    values = [1.0 + 0.001 * i for i in range(10)]
    write_runs(tmp_path / "parent", values)
    write_runs(tmp_path / "change", **{"values": values, **change})
    # a traced result in the same directory is left out of the comparison
    traced = json.loads((tmp_path / "change/eval_test/seed0.json").read_text())
    traced.update(trace=1, result={**traced["result"], "metrics": {}})
    (tmp_path / "change/eval_test/traced.json").write_text(json.dumps(traced))
    assert compare.report(tmp_path / "parent", tmp_path / "change") == code
