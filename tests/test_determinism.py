"""Decisions do not depend on the BLAS thread count.

Byte-identical metrics and event logs are promised only within one
numeric environment (numpy, BLAS library and thread count): with more
threads BLAS may sum in another order, which moves the last digits of
logged floats. The alarms, actions, states and event sequence must not
move, so this test compares those and never the bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN = """
import json, sys, tempfile
from scenario_configs import CANONICAL_DRIFT
from lcmsim.config import parse_scenario_config
from lcmsim.simulation import run_scenario

with tempfile.TemporaryDirectory() as root:
    result = run_scenario(parse_scenario_config(CANONICAL_DRIFT), root + "/registry")
s = result.summary
json.dump({
    "alarms": s["alarms"],
    "actions": s["actions"],
    "final_state": s["final_state"],
    "evaluations": s["evaluations"],
    "events": [[e.slot, e.kind] for e in result.events],
}, sys.stdout)
"""


def discrete_outcomes(blas_threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    path = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    done = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_canonical_drift_outcomes_match_across_blas_threads():
    one = discrete_outcomes("1")
    two = discrete_outcomes("2")
    assert one["alarms"] >= 1 and one["actions"]
    assert one == two
