"""Print the SHA-256 of metrics.csv and events.log for a set of scenario runs.

Usage, from any git checkout of this repository:

    python3 tools/output_digests.py --seed 42

Runs the five scenarios of ``tests/scenario_configs.py`` with their ``seed``
line set to ``--seed``, and every instance of the three perfbench workloads
at that seed (``perfbench/workloads.py``, read and not edited), each with a
fresh registry in a temporary directory. Prints one line per run:
``label metrics-sha256 events-sha256``, the digests of the bytes that
``write_metrics`` and ``write_events`` put in metrics.csv and events.log
(``metrics_text()`` and ``events_text()`` as UTF-8). Two checkouts produce
the same outputs when, in the same numeric environment (BLAS thread
variables unset on both sides), they print the same lines.

``fingerprint_fields`` names that numeric environment, and
``fingerprint`` hashes it: ``tools/record_digests.py`` files the lines
under it, and ``tests/test_digests.py`` compares against that file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lcmsim.config import parse_scenario_config  # noqa: E402
from lcmsim.simulation import run_scenario  # noqa: E402

SCENARIOS = ("CANONICAL_DRIFT", "SNR_DROP", "MILD_DRIFT", "FALLBACK_DRIFT", "QUIET_SMALL")


def fingerprint_fields() -> list[tuple[str, str]]:
    """What the output bytes may depend on: the interpreter, numpy, its
    BLAS build, the SIMD kernels numpy found on this CPU, and the BLAS
    thread variables ("unset" is a value of its own)."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return [
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("blas", f"{blas.get('name')} {blas.get('version')}"),
        ("blas_config", str(blas.get("openblas configuration", ""))),
        ("simd_found", ",".join(config["SIMD Extensions"]["found"])),
        *((name, os.environ.get(name, "unset"))
          for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")),
    ]


def fingerprint(fields: list[tuple[str, str]]) -> str:
    text = "".join(f"{key} = {value}\n" for key, value in fields)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_texts(seed: int) -> list[tuple[str, str]]:
    """(label, config text) of every run, in the order they are printed."""
    configs = _load(ROOT / "tests" / "scenario_configs.py")
    out = [
        (name.lower(), re.sub(r"(?m)^seed = \d+$", f"seed = {seed}", getattr(configs, name)))
        for name in SCENARIOS
    ]
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for workload in workloads.WORKLOADS:
        out += [(f"{workload}/{label}", text)
                for label, text in workloads.scenarios(workload, seed)]
    return out


def digest(text: str, registry_root: str) -> tuple[str, str]:
    result = run_scenario(parse_scenario_config(text), registry_root)
    return tuple(
        hashlib.sha256(body.encode("utf-8")).hexdigest()
        for body in (result.metrics_text(), result.events_text())
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for i, (label, text) in enumerate(scenario_texts(args.seed)):
            metrics, events = digest(text, str(Path(work) / f"registry-{i}"))
            print(label, metrics, events, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
