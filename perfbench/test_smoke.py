"""The benchmark's own test: every workload, at seconds-long smoke shapes,
emits every metric BENCHMARK.json names, with its unit, and passes its
output checks.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_NAMES = {kind: [m["name"] for m in SPEC[kind]] for kind in ("end_to_end", "per_layer")}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "smd-score":
        assert result["metrics"]["numcore.tape_grad_s"]["value"] == 0
        assert result["metrics"]["numcore.adam_step_s"]["value"] == 0
    else:
        assert result["metrics"]["numcore.tape_grad_s"]["value"] > 0
    assert "error_rate" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smd-train", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    sys.path.insert(0, str(BENCH))
    from run import SIZES
    from synth import write_inputs

    for out in ("a", "b"):
        write_inputs("fleet-cli", 7, SIZES["smoke"], tmp_path / out)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert files
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_layer_check_fails_on_a_missing_layer():
    sys.path.insert(0, str(BENCH))
    from run import LAYERS_CALLED, LAYERS_NOT_CALLED, Ledger, check_layers

    def failures(workload, layers):
        ledger = Ledger()
        check_layers(ledger, workload, layers)
        return ledger.failed

    for workload, called in LAYERS_CALLED.items():
        layers = {name: 1.0 for name in SPEC_NAMES["per_layer"]}
        layers.update({name: 0.0 for name in LAYERS_NOT_CALLED.get(workload, ())})
        assert failures(workload, layers) == 0
        assert failures(workload, {**layers, called[-1]: 0.0}) == 1
        if workload == "smd-score":
            assert failures(workload, {**layers, "numcore.tape_grad_s": 1e-3}) == 1


def test_compare_refuses_other_blas_threads_and_failed_records(tmp_path):
    record = {"workload": "smd-train", "seed": 1, "size": "full",
              "env": {"nproc": 2, "blas": {}, "blas_threads": {"OPENBLAS_NUM_THREADS": "unset"},
                      "cli_child_env": {"OPENBLAS_NUM_THREADS": "1"}},
              "result": {"correct": True, "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}}
    for side in ("base", "new", "other", "bad"):
        (tmp_path / side).mkdir()
    (tmp_path / "base" / "a-trace0.json").write_text(json.dumps(record))
    (tmp_path / "new" / "a-trace0.json").write_text(json.dumps(record))
    other = json.loads(json.dumps(record))
    other["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] = "2"
    (tmp_path / "other" / "a-trace0.json").write_text(json.dumps(other))
    bad = json.loads(json.dumps(record))
    bad["result"]["correct"] = False
    (tmp_path / "bad" / "a-trace0.json").write_text(json.dumps(bad))

    def compare(new):
        return subprocess.run([sys.executable, str(BENCH / "compare.py"), str(tmp_path / "base"),
                               str(tmp_path / new)], capture_output=True, text=True).returncode

    assert compare("new") == 0
    assert compare("other") == 2
    assert compare("bad") == 2
