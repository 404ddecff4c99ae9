"""Scenario config texts for each benchmark workload, made from a seed.

A workload is a list of scenarios that one round runs back to back.
Each scenario is a complete config file body for ``lcmsim simulate``.
The same (workload, seed, scale) always yields the same texts.

``scale`` shrinks slot counts for smoke tests; the benchmark proper
runs at scale 1, and only scale-1 runs are checked against recorded
outcomes.
"""

from __future__ import annotations

import ast
import hashlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_CONFIGS = ROOT / "tests" / "scenario_configs.py"

DEFAULT_SEED = 42

# Scenario instances per round. The first instance of a workload uses
# the benchmark seed itself; the others use seeds derived from it, so a
# round averages over several channel realisations instead of one.
INSTANCES = {"acceptance_mix": 4, "registry_scan": 3, "repair_churn": 5}


def derived_seed(seed: int, workload: str, instance: int) -> int:
    if instance == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{workload}:{instance}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000


def _acceptance_texts() -> dict[str, str]:
    """The three acceptance scenarios, read as literals (not imported)
    from the repository's shared test configs."""
    tree = ast.parse(SCENARIO_CONFIGS.read_text(encoding="utf-8"))
    texts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("CANONICAL_DRIFT", "SNR_DROP", "MILD_DRIFT"):
                texts[name] = ast.literal_eval(node.value)
    missing = {"CANONICAL_DRIFT", "SNR_DROP", "MILD_DRIFT"} - set(texts)
    if missing:
        raise RuntimeError(f"{SCENARIO_CONFIGS} lacks {sorted(missing)}")
    return texts


_SLOT_KEY = re.compile(r"^(num_slots|\S+\.start_slot|\S+\.end_slot)(\s*=\s*)(\d+)\s*$")


def _rewrite(text: str, seed: int, scale: float) -> str:
    lines = []
    for line in text.strip().splitlines():
        if line.split("=", 1)[0].strip() == "seed":
            line = f"seed = {seed}"
        elif scale != 1.0:
            m = _SLOT_KEY.match(line)
            if m:
                line = f"{m.group(1)}{m.group(2)}{round(int(m.group(3)) * scale)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def acceptance_mix(seed: int, scale: float, instances: int) -> list[tuple[str, str]]:
    texts = _acceptance_texts()
    out = []
    for i in range(instances):
        s = derived_seed(seed, "acceptance_mix", i)
        for name in ("CANONICAL_DRIFT", "SNR_DROP", "MILD_DRIFT"):
            label = name.lower() if i == 0 else f"{name.lower()}-{i}-seed{s}"
            out.append((label, _rewrite(texts[name], s, scale)))
    return out


def _regime(i: int, start: int, regime_id: str, doppler: float,
            snr_db: float | None = None, paths: int | None = None) -> list[str]:
    base = f"channel.regime.{i}"
    lines = [
        f"{base}.start_slot = {start}",
        f"{base}.regime_id = {regime_id}",
        f"{base}.doppler_norm = {doppler}",
    ]
    if snr_db is not None:
        lines.append(f"{base}.mean_snr_db = {snr_db}")
    if paths is not None:
        lines.append(f"{base}.num_paths = {paths}")
    return lines


def registry_scan_text(seed: int, scale: float = 1.0) -> str:
    """Forty stored models, then an unmatched regime that keeps the loop
    in Fallback scanning the whole registry on every evaluation slot,
    then a return to the first regime (ReactivateAI)."""
    windows = 40 if scale >= 1.0 else max(4, round(40 * scale))
    window = 40
    half = windows * window
    unmatched = max(60, round(600 * scale))
    tail = 60
    lines = [f"seed = {seed}", f"num_slots = {half + unmatched + tail}",
             "channel.num_antennas = 32"]
    known = (("urban-a", 0.01), ("urban-c", 0.05), ("urban-d", 0.10), ("urban-e", 0.02))
    for i, (regime_id, doppler) in enumerate(known):
        lines += _regime(i, i * half // 4, regime_id, doppler, snr_db=20)
    lines += _regime(4, half, "open-x", 0.35, snr_db=5, paths=2)
    lines += _regime(5, half + unmatched, "urban-a", 0.01, snr_db=20)
    for i in range(windows):
        lines += [f"pretrain.{i}.start_slot = {i * window}",
                  f"pretrain.{i}.end_slot = {(i + 1) * window}"]
    lines += ["monitoring.mode = Type3", "monitoring.eval_period_slots = 5"]
    return "\n".join(lines) + "\n"


def repair_churn_text(seed: int, scale: float = 1.0) -> str:
    """One 64-antenna model whose Type2 reports stay below the threshold
    at 7 dB: DeltaUpdate packages pile up in the registry while it is
    read, then the strong drift brings Rollback, Fallback with 64-beam
    legacy reporting, and (when the descriptor matches again)
    ReactivateAI."""
    bounds = [round(b * scale) for b in (0, 600, 900, 1100, 1200)]
    pretrain_end = max(40, round(400 * scale))
    lines = [f"seed = {seed}", f"num_slots = {bounds[-1]}", "channel.num_antennas = 64"]
    lines += _regime(0, bounds[0], "urban-a", 0.01, snr_db=7)
    lines += _regime(1, bounds[1], "urban-a", 0.03, snr_db=7)
    lines += _regime(2, bounds[2], "urban-b", 0.2, snr_db=10)
    lines += _regime(3, bounds[3], "urban-a", 0.01, snr_db=7)
    lines += ["pretrain.0.start_slot = 0", f"pretrain.0.end_slot = {pretrain_end}",
              "monitoring.mode = Type2", "monitoring.threshold_gamma = 0.9",
              "monitoring.eval_period_slots = 10", "policy.min_train_samples = 320"]
    return "\n".join(lines) + "\n"


def scenarios(workload: str, seed: int, scale: float = 1.0) -> list[tuple[str, str]]:
    """(label, config text) for every scenario of one round, in order."""
    if workload == "acceptance_mix":
        return acceptance_mix(seed, scale, INSTANCES[workload])
    make = {"registry_scan": registry_scan_text, "repair_churn": repair_churn_text}[workload]
    out = []
    for i in range(INSTANCES[workload]):
        s = derived_seed(seed, workload, i)
        out.append((f"{workload}-{i}-seed{s}", make(s, scale)))
    return out


WORKLOADS = tuple(INSTANCES)
