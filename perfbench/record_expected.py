"""Record the outcomes that ``run.py`` checks at scale 1.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs every scenario of every workload once at the default seed and
writes the discrete outcomes and ``mean_sgcs`` to
``perfbench/expected.json``.
Re-record only when the simulated behaviour is meant to change; a
change that claims only speed must reproduce the recorded values.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import lcmsim.cli as cli

import outcomes
import workloads
from worker import Runner

HERE = Path(__file__).resolve().parent


def main() -> int:
    seed = workloads.DEFAULT_SEED
    recorded: dict = {}
    work = Path(tempfile.mkdtemp(dir=HERE, prefix=".record-"))
    try:
        for workload in workloads.WORKLOADS:
            scenarios = []
            for label, text in workloads.scenarios(workload, seed):
                config = work / f"{label}.cfg"
                config.write_text(text, encoding="utf-8")
                scenarios.append((label, str(config), 0))
            runner = Runner(cli, scenarios, {}, work)
            runner.round(0)
            if runner.failed:
                raise SystemExit("\n".join(runner.problems))
            recorded[workload] = {str(seed): {
                label: {k: summary[k] for k in outcomes.SUMMARY_KEYS}
                for label, summary in runner.summaries.items()
            }}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = HERE / "expected.json"
    out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
