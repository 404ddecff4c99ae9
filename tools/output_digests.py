"""Print the SHA-256 of metrics.csv, events.log and the registry of scenario runs.

Usage, from any git checkout of this repository:

    python3 tools/output_digests.py --seed 42

Runs the five scenarios of ``tests/scenario_configs.py`` with their ``seed``
line set to ``--seed``, and every instance of the three perfbench workloads
at that seed (``perfbench/workloads.py``, read and not edited), each with a
fresh registry in a temporary directory. Prints one line per run:
``label metrics-sha256 events-sha256 registry-sha256``: the digests of
the bytes that ``write_metrics`` and ``write_events`` put in metrics.csv
and events.log (``metrics_text()`` and ``events_text()`` as UTF-8), and
``registry_digest`` of the run's registry directory (its files' relative
paths and bytes, in sorted path order). Two checkouts produce the same
outputs and write the same model store when, in the same numeric
environment (BLAS thread variables unset on both sides), they print the
same lines.

``fingerprint_fields`` names that numeric environment, and
``fingerprint`` hashes it: ``tools/record_digests.py`` files the first
three columns under it, and ``tests/test_digests.py`` compares against
that file.
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


def registry_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` in sorted relative-path order:
    each path (POSIX form), the length of its bytes, then the bytes."""
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in root.rglob("*") if path.is_file())
    h = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        h.update(b"%s\x00%d\x00" % (name.encode("utf-8"), len(data)))
        h.update(data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for i, (label, text) in enumerate(scenario_texts(args.seed)):
            root = Path(work) / f"registry-{i}"
            print(label, *digest(text, str(root)), registry_digest(root), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
