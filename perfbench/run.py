"""lcmsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload acceptance_mix --seed 42 --seconds 35 --trace 0

Runs from the root of a source checkout. With ``--trace 0`` it spawns a
few set-up probes and then one worker process that runs the workload's
scenarios through ``lcmsim.cli.main(["simulate", ...])`` back to back
for ``--seconds``, and prints the end-to-end metrics. With ``--trace 1``
it runs an untraced worker for half the time and then a traced worker
for as many rounds, checks that both wrote byte-identical outputs, and
prints per-layer metrics. Every metric is printed as ``name = value
unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The process exits 1 without a result when the checkout
lacks the program or a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
WORKER_TIMEOUT_S = 170
SETUP_PROBES = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], timeout: float) -> str:
    """Run one worker to completion and return its stdout."""
    cmd = [sys.executable, str(WORKER), "--spawned-at", str(time.monotonic_ns()), *args]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def run_worker(work: Path, name: str, scenarios: str, checks: Path, seconds: float,
               trace: bool, rounds: int = 0) -> dict:
    wdir = work / name
    wdir.mkdir()
    result = wdir / "result.json"
    args = ["--scenarios", scenarios, "--checks", str(checks), "--work", str(wdir),
            "--seconds", str(seconds), "--rounds", str(rounds), "--result", str(result)]
    spawn(args + (["--trace"] if trace else []), WORKER_TIMEOUT_S)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def write_inputs(work: Path, workload: str, seed: int, scale: float) -> tuple[str, Path]:
    """Write the scenario configs and the per-scenario outcome checks."""
    pairs = []
    for label, text in workloads.scenarios(workload, seed, scale):
        path = work / f"{label}.cfg"
        path.write_text(text, encoding="utf-8")
        pairs.append([label, str(path)])
    expected = {}
    if scale == 1.0:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh).get(workload, {}).get(str(seed), {})
    checks = {
        label: {
            "expected": expected.get(label),
            "canonical_pins": label == "canonical_drift" and seed == 42 and scale == 1.0,
        }
        for label, _ in pairs
    }
    checks_path = work / "checks.json"
    checks_path.write_text(json.dumps(checks), encoding="utf-8")
    return json.dumps(pairs), checks_path


def probe_setups(scenarios: str, count: int) -> list[float]:
    setups = []
    for _ in range(count):
        out = spawn(["--scenarios", scenarios, "--probe"], 60)
        setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return setups


def end_to_end(work: Path, scenarios: str, checks: Path, seconds: float):
    # Half the set-up probes run before the measuring worker and half
    # after it, so that a short burst of host load weighs less.
    setups = probe_setups(scenarios, SETUP_PROBES // 2)
    res = run_worker(work, "main", scenarios, checks, seconds, trace=False)
    setups += probe_setups(scenarios, SETUP_PROBES - SETUP_PROBES // 2)
    setups.append(res["setup_s"])
    metrics = {
        "slots_per_s": (res["slots"] / res["wall_s"], "slots/s"),
        "cpu_s_per_kslot": (res["cpu_s"] / res["slots"] * 1000.0, "s/kslot"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }
    return [res], metrics, [], []


def per_layer(work: Path, scenarios: str, checks: Path, seconds: float):
    import layers

    # The traced worker runs as many rounds as the untraced one, so the
    # two rates cover the same work (cold first round included).
    plain = run_worker(work, "untraced", scenarios, checks, seconds / 2, trace=False)
    traced = run_worker(work, "traced", scenarios, checks, seconds / 2, trace=True,
                        rounds=plain["rounds"])
    problems = []
    for label, pair in plain["digests"].items():
        if traced["digests"].get(label) != pair:
            traced["failed"] += 1
            problems.append(f"{label}: traced outputs {traced['digests'].get(label)} "
                            f"differ from untraced {pair}")
    keys, spans = layers.load_spans(str(work / "traced" / "spans"))
    metrics, tails = layers.summarize(keys, spans, traced["rounds"])
    untraced_rate = plain["slots"] / plain["wall_s"]
    traced_rate = traced["slots"] / traced["wall_s"]
    metrics["registry.bytes_on_disk"] = (float(traced["registry_bytes"]), "B")
    metrics["trace.slots_per_s"] = (traced_rate, "slots/s")
    metrics["trace.untraced_slots_per_s"] = (untraced_rate, "slots/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate), "%")
    notes = ["tail_pct = " + json.dumps(tails)]
    return [plain, traced], metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="slot-count factor for smoke runs; outcomes are checked at 1")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "lcmsim" / "cli.py", workloads.SCENARIO_CONFIGS):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full lcmsim checkout",
                  file=sys.stderr)
            return 1

    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        scenarios, checks = write_inputs(work, args.workload, args.seed, args.scale)
        measure = per_layer if args.trace else end_to_end
        results, metrics, problems, notes = measure(work, scenarios, checks, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = problems + [p for r in results for p in r["problems"]]
    env = dict(results[0]["environment"], git_sha=git_sha())
    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds}"
          f"  trace = {args.trace}  scale = {args.scale}")
    print("environment = " + json.dumps(env, sort_keys=True))
    print("digests = " + json.dumps(results[0]["digests"], sort_keys=True))
    print("rounds = " + ", ".join(str(r["rounds"]) for r in results))
    for note in notes:
        print(note)
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {failed / attempted!r} fraction ({failed}/{attempted} scenario runs)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
