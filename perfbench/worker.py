"""Single-process benchmark worker: runs ``lcmsim simulate`` rounds.

Started by ``run.py`` with the scenario configs of one workload already
written to disk. Set-up ends when ``lcmsim.cli`` is imported and every
config is parsed. Then the worker runs rounds, each one ``simulate``
call per scenario with a fresh output directory, while the next round
should end within ``--seconds`` (at least two rounds). Only the
``simulate`` calls are timed; checks and clean-up run between them.
The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import outcomes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs scenarios through the CLI and checks every run."""

    def __init__(self, cli, scenarios, checks, work: Path):
        self.cli = cli
        self.scenarios = scenarios  # [(label, config path, num_slots)]
        self.checks = checks
        self.work = work
        self.slots = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.summaries: dict[str, dict] = {}
        self.registry_bytes = 0

    def round(self, number: int) -> None:
        for label, config, num_slots in self.scenarios:
            self.run_one(number, label, config, num_slots)

    def run_one(self, number: int, label: str, config: str, num_slots: int) -> None:
        out = self.work / f"round{number}" / label
        buf = io.StringIO()
        error = None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["simulate", "--config", config, "--out", str(out)])
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += _cpu_s() - cpu0
        self.slots += num_slots
        self.attempted += 1

        problems = []
        if error is not None:
            problems.append(f"raised {error}")
        elif code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                problems = self.check(label, out, buf.getvalue())
            except (OSError, ValueError, KeyError, IndexError, SyntaxError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"round {number} {label}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)

    def check(self, label: str, out: Path, stdout: str) -> list[str]:
        metrics, events = out / "metrics.csv", out / "events.log"
        pair = [outcomes.digest(metrics), outcomes.digest(events)]
        parsed = outcomes.parse_summary(stdout)
        summary = {k: parsed[k] for k in outcomes.SUMMARY_KEYS + ("slots",) if k in parsed}
        if label not in self.digests:
            self.digests[label] = pair
            self.summaries[label] = summary
            self.registry_bytes += _dir_bytes(out / "registry")
            metrics_text = metrics.read_text(encoding="utf-8")
            events_text = events.read_text(encoding="utf-8")
            problems = outcomes.consistency(summary, metrics_text, events_text)
            wanted = self.checks.get(label, {})
            if wanted.get("expected") is not None:
                problems += outcomes.against_expected(summary, wanted["expected"])
            if wanted.get("canonical_pins"):
                problems += outcomes.canonical_pins(metrics_text, events_text)
            return problems
        if pair != self.digests[label]:
            return [f"outputs differ from round 0 (sha256 {pair} vs {self.digests[label]})"]
        if summary != self.summaries[label]:
            return ["summary differs from round 0"]
        return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before the spawn")
    parser.add_argument("--scenarios", required=True, help="JSON list of [label, config path]")
    parser.add_argument("--probe", action="store_true", help="set up, report, and exit")
    parser.add_argument("--checks", help="JSON file of per-label outcome checks")
    parser.add_argument("--work", help="directory for run outputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead of filling --seconds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", help="where to write the JSON result")
    args = parser.parse_args(argv)

    # -- set-up: what a one-shot `lcmsim simulate` pays before slot 0
    import lcmsim.cli as cli
    from lcmsim.config import load_scenario_config

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "lcmsim":
        raise SystemExit(f"lcmsim imported from {cli.__file__}, not from {ROOT / 'src'}")
    pairs = json.loads(args.scenarios)
    scenarios = [(label, path, load_scenario_config(path).num_slots) for label, path in pairs]
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(args.checks, encoding="utf-8") as fh:
        checks = json.load(fh)
    work = Path(args.work)
    runner = Runner(cli, scenarios, checks, work)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    # Whole rounds, at least two so that every scenario has a repeat to
    # compare, while the next one should end within --seconds (or
    # exactly --rounds). Only whole rounds keep every scenario's weight
    # in the totals the same from run to run.
    started = time.perf_counter()
    rounds = 0
    while True:
        if args.rounds:
            if rounds == args.rounds:
                break
        elif rounds >= 2 and (time.perf_counter() - started) * (rounds + 1) / rounds > args.seconds:
            break
        runner.round(rounds)
        rounds += 1
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(str(work / "spans"))

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "slots": runner.slots,
        "wall_s": runner.wall_s,
        "cpu_s": runner.cpu_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "digests": runner.digests,
        "registry_bytes": runner.registry_bytes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
