"""Alternate perfbench runs of two checkouts and write a BENCH_<n>.json file.

Usage, with this checkout as the change:

    python3 tools/perf_ab.py --parent PARENT_CHECKOUT --pairs 10 \
        --workloads acceptance_mix --seed 42 --out BENCH_1.json

For each workload and each pair, ``perfbench/run.py --workload W --seed S
--trace 0``, for the run length that BENCHMARK.json sets, runs once in each
checkout, and the side that runs first alternates from pair to pair. Both
checkouts must be git checkouts, so that perfbench records their commits.

The file holds, per workload and side, every run's end-to-end metrics,
their medians and quartiles (numpy's linear percentiles), whether every
run was correct, and how many pairs the change won on each metric. An
existing output file is extended: a workload and seed run again replaces
its earlier entry.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HIGHER_IS_BETTER = {m["name"]: m["better"] == "higher" for m in BENCHMARK["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; returns its metrics, correctness and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("environment = "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"] and result["failed"] == 0,
        "environment": json.loads(env.split(" = ", 1)[1]),
    }


def summarize(runs: list[dict]) -> dict:
    out = {"correct": all(r["correct"] for r in runs)}
    for name in HIGHER_IS_BETTER:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.seed))
                print(workload, pair, side, runs[side][-1]["metrics"]["slots_per_s"],
                      file=sys.stderr)
        entry = {"seed": args.seed, "pairs": args.pairs, "seconds": BENCHMARK["run_seconds"]}
        for side in sides:
            entry[side] = summarize(runs[side])
            entry[side]["git_sha"] = runs[side][0]["environment"]["git_sha"]
        entry["environment"] = {k: v for k, v in runs["change"][0]["environment"].items()
                                if k != "git_sha"}
        entry["change_wins"] = {}
        for name, higher in HIGHER_IS_BETTER.items():
            pairs = zip(entry["parent"][name]["runs"], entry["change"][name]["runs"])
            entry["change_wins"][name] = sum((c > p) if higher else (c < p) for p, c in pairs)
        report["workloads"][f"{workload}@seed{args.seed}"] = entry
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
