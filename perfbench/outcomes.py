"""Outcome checks on one ``lcmsim simulate`` run.

Every run is checked for internal consistency: the printed summary must
agree with metrics.csv and events.log. Runs at a seed recorded in
``expected.json`` (scale 1 only) must also reproduce the recorded
discrete outcomes and ``mean_sgcs``; the canonical drift scenario at
seed 42 must reproduce the pins of ``tests/test_acceptance.py``.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import ast
import hashlib
from collections import Counter
from pathlib import Path

TOL = 1e-9

# tests/test_acceptance.py, criterion 04 (CANONICAL_DRIFT at seed 42).
CANONICAL_PINS = {
    "alarm_slot": 840,
    "stable_slot": 900,
    "pre_mean": 0.9998858734911711,
    "post_mean": 0.9872130374049177,
}

SUMMARY_KEYS = ("final_state", "alarms", "actions", "evaluations",
                "monitor_overhead_bits", "mean_sgcs")


def parse_summary(stdout: str) -> dict:
    """The ``key = value`` lines ``lcmsim simulate`` prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key == "actions":
            out[key] = ast.literal_eval(value)
        elif key in ("slots", "alarms", "evaluations", "monitor_overhead_bits"):
            out[key] = int(value)
        elif key == "mean_sgcs":
            out[key] = float(value)
        else:
            out[key] = value
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(metrics_text: str) -> list[dict[str, str]]:
    lines = metrics_text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _events(events_text: str) -> list[dict[str, str]]:
    events = []
    for line in events_text.splitlines():
        fields = dict(token.split("=", 1) for token in line.split(" ") if "=" in token)
        events.append(fields)
    return events


def _window_mean(rows, lo: int, hi: int) -> float:
    values = [float(r["sgcs"]) for r in rows if r["sgcs"] and lo <= int(r["slot"]) < hi]
    return sum(values) / len(values) if values else float("nan")


def consistency(summary: dict, metrics_text: str, events_text: str) -> list[str]:
    """The summary must be what the two output files say."""
    problems = []
    missing = [k for k in SUMMARY_KEYS + ("slots",) if k not in summary]
    if missing:
        return [f"summary lacks {missing}"]
    rows = _rows(metrics_text)
    events = _events(events_text)
    if [int(r["slot"]) for r in rows] != list(range(summary["slots"])):
        problems.append("metrics.csv rows are not slots 0..slots-1")
        return problems
    achieved = [float(r["sgcs"]) for r in rows if r["sgcs"]]
    mean = sum(achieved) / len(achieved) if achieved else float("nan")
    if not abs(mean - summary["mean_sgcs"]) <= TOL:
        problems.append(f"mean_sgcs {summary['mean_sgcs']!r} but metrics.csv gives {mean!r}")
    bits = sum(int(r["monitor_overhead_bits"]) for r in rows if r["monitor_overhead_bits"])
    if bits != summary["monitor_overhead_bits"]:
        problems.append(f"monitor_overhead_bits {summary['monitor_overhead_bits']} != {bits}")
    if rows[-1]["loop_state"] != summary["final_state"]:
        problems.append(f"final_state {summary['final_state']} != last row {rows[-1]['loop_state']}")
    alarms = sum(1 for e in events if e.get("kind") == "DriftAlarm")
    if alarms != summary["alarms"]:
        problems.append(f"alarms {summary['alarms']} but events.log has {alarms}")
    issued = Counter(e["action"] for e in events if e.get("kind") == "ActionIssued")
    if dict(issued) != summary["actions"]:
        problems.append(f"actions {summary['actions']} but events.log has {dict(issued)}")
    reports = sum(1 for e in events if e.get("kind") == "MonitoringReport")
    if reports > summary["evaluations"]:
        problems.append(f"{reports} monitoring reports exceed {summary['evaluations']} evaluations")
    return problems


def against_expected(summary: dict, expected: dict) -> list[str]:
    problems = []
    for key in SUMMARY_KEYS:
        want, got = expected[key], summary.get(key)
        if key == "mean_sgcs":
            if got is None or not abs(got - want) <= TOL:
                problems.append(f"mean_sgcs {got!r}, expected {want!r} (abs {TOL})")
        elif got != want:
            problems.append(f"{key} {got!r}, expected {want!r}")
    return problems


def canonical_pins(metrics_text: str, events_text: str) -> list[str]:
    """Criterion 04 of the acceptance tests, from the output files."""
    rows = _rows(metrics_text)
    alarms = [int(e["slot"]) for e in _events(events_text) if e.get("kind") == "DriftAlarm"]
    if not alarms:
        return ["no DriftAlarm"]
    alarm = alarms[0]
    stable = next((int(r["slot"]) for r in rows
                   if int(r["slot"]) >= alarm and r["loop_state"] == "Stable"), None)
    if stable is None:
        return [f"alarm at {alarm}, never Stable again"]
    got = {
        "alarm_slot": alarm,
        "stable_slot": stable,
        "pre_mean": _window_mean(rows, 760, 800),
        "post_mean": _window_mean(rows, stable - 40, stable),
    }
    problems = []
    for key, want in CANONICAL_PINS.items():
        ok = got[key] == want if isinstance(want, int) else abs(got[key] - want) <= TOL
        if not ok:
            problems.append(f"{key} {got[key]!r}, pinned {want!r}")
    return problems
