"""Alternate perfbench runs of two commits and write a BENCH_<n>.json file.

Usage, with this repository's HEAD as the change:

    python3 tools/perf_ab.py --parent PARENT_COMMIT --pairs 10 \
        --workloads acceptance_mix --seed 42 --out BENCH_1.json

Both commits are cloned from this repository, the same way, into sibling
directories of one fresh temporary directory, and run from there: a run in
a working checkout beside one in a fresh clone measured the working checkout
faster on a commit against itself. Only committed files are measured. For
each workload and each pair, ``perfbench/run.py --workload W --seed S
--trace 0``, for the run length that BENCHMARK.json sets, runs once in each
clone, and the side that runs first alternates from pair to pair.

The file holds, per workload and side, every run's end-to-end metrics,
their medians and quartiles (numpy's linear percentiles), whether every
run was correct, how many pairs the change won on each metric, and a
verdict per metric:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) and its median is better than the parent's by more
  than the distance between the parent's quartiles;
- ``unresolved``: otherwise, the parent's quartiles lie further apart
  than the metric's BENCHMARK.json bound (relative to its median), so
  the runs cannot tell a move within the bound from none, unless every
  run of the change is better than every run of the parent;
- ``within_bound``: otherwise, the change's median is no worse than the
  parent's by more than the bound;
- ``worse``: otherwise.

An existing output file is extended: a workload and seed run again
replaces its earlier entry.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HIGHER_IS_BETTER = {m["name"]: m["better"] == "higher" for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


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


def clone(commit: str, checkout: Path) -> Path:
    """A fresh clone of this repository at ``commit``."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(checkout)],
                   check=True)
    subprocess.run(["git", "-C", str(checkout), "checkout", "--quiet", commit], check=True)
    return checkout


def summarize(runs: list[dict]) -> dict:
    out = {"correct": all(r["correct"] for r in runs)}
    for name in HIGHER_IS_BETTER:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return out


def verdict(name: str, parent: dict, change: dict, wins: int, pairs: int) -> str:
    """``gain``, ``unresolved``, ``within_bound`` or ``worse`` for one metric
    (see the module doc)."""
    sign = 1 if HIGHER_IS_BETTER[name] else -1
    better_by = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if 10 * wins >= 9 * pairs and better_by > spread:
        return "gain"
    all_better = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if spread > BOUND[name] * parent["median"] and not all_better:
        return "unresolved"
    return "within_bound" if better_by >= -BOUND[name] * parent["median"] else "worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        commits = {"parent": args.parent, "change": "HEAD"}
        sides = {side: clone(commit, Path(tmp) / side) for side, commit in commits.items()}
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    runs[side].append(run_once(sides[side], workload, args.seed))
                    metrics = runs[side][-1]["metrics"]
                    print(workload, pair, side,
                          *(f"{name}={metrics[name]:.4g}" for name in HIGHER_IS_BETTER),
                          file=sys.stderr)
            entry = {"seed": args.seed, "pairs": args.pairs, "seconds": BENCHMARK["run_seconds"]}
            for side in sides:
                entry[side] = summarize(runs[side])
                entry[side]["git_sha"] = runs[side][0]["environment"]["git_sha"]
            entry["environment"] = {k: v for k, v in runs["change"][0]["environment"].items()
                                    if k != "git_sha"}
            entry["change_wins"], entry["verdict"] = {}, {}
            for name, higher in HIGHER_IS_BETTER.items():
                parent, change = entry["parent"][name], entry["change"][name]
                wins = sum((c > p) if higher else (c < p)
                           for p, c in zip(parent["runs"], change["runs"]))
                entry["change_wins"][name] = wins
                entry["verdict"][name] = verdict(name, parent, change, wins, args.pairs)
            report["workloads"][f"{workload}@seed{args.seed}"] = entry
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
