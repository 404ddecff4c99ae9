"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Smoke runs use ``--scale 0.1`` (short scenarios) and ``--seconds 1``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from lcmsim.config import parse_scenario_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def copy_bench(dest: Path) -> None:
    """Copy the benchmark's program files and recorded outcomes to ``dest``."""
    dest.mkdir(parents=True)
    for path in [*BENCH.glob("*.py"), BENCH / "expected.json"]:
        shutil.copy(path, dest)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [42, 0, 7919])
@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_configs_parse_and_validate(workload, seed, scale):
    texts = workloads.scenarios(workload, seed, scale)
    configs = [parse_scenario_config(text) for _, text in texts]
    for config in configs:
        config.validate()
    per_instance = 3 if workload == "acceptance_mix" else 1
    assert len(configs) == per_instance * workloads.INSTANCES[workload]
    assert configs[0].seed == seed


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.scenarios(workload, 5) == workloads.scenarios(workload, 5)
        assert workloads.scenarios(workload, 5) != workloads.scenarios(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "0.1")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} = " in proc.stdout
    assert "error_rate = 0.0 fraction" in proc.stdout


def test_corrupted_expected_outcome_counts_as_error(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "tests").mkdir()
    shutil.copy(workloads.SCENARIO_CONFIGS, checkout / "tests")
    copy_bench(checkout / "perfbench")
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected["acceptance_mix"]["42"]["snr_drop"]["alarms"] += 1
    (checkout / "perfbench" / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "acceptance_mix",
                           "--seconds", "1"],
                          cwd=checkout, capture_output=True, text=True, timeout=170)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED: round 0 snr_drop: alarms" in proc.stdout
    assert "error_rate = 0.0 " not in proc.stdout


def test_recorded_outcomes_cover_default_seed():
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        labels = [label for label, _ in workloads.scenarios(workload, workloads.DEFAULT_SEED)]
        assert sorted(expected[workload]["42"]) == sorted(labels)


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    copy_bench(bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "acceptance_mix"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
