"""Print the SHA-256 of metrics.csv, events.log and the registry of scenario runs.

Usage, from any git checkout of this repository:

    python3 tools/output_digests.py --seed 42

Runs the scenarios that ``SCENARIOS`` of ``tests/scenario_configs.py`` names,
in that order, with their ``seed`` line set to ``--seed``, and every instance of the three perfbench workloads
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
``fingerprint`` hashes it. ``gate_lines`` is what ``tools/record_digests.py``
files under it and ``tests/test_digests.py`` compares against that file:
the first three columns of these lines, then each run's registry digest
on a line of its own, then one line per command of ``CLI_COMMANDS``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import os
import platform
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lcmsim import cli  # noqa: E402
from lcmsim.config import parse_scenario_config  # noqa: E402
from lcmsim.simulation import run_scenario  # noqa: E402

# (label, lcmsim arguments), run in this order from one working directory
# that holds drift.cfg (CANONICAL_DRIFT, the README's Quick start config).
# The README's Run it, Inspect, Sweep, Train-and-evaluate and Two-sided
# commands come first, as written there. The rest reach what those leave
# out: a quantized pair, vendor-indexed datasets, train-encoder,
# multivendor, a decoder trained on quantized feedback, crosspair through
# a multi-vendor decoder, and derive-reference writing its CSV and model.
CLI_COMMANDS = (
    ("simulate", "simulate --config drift.cfg --out run1"),
    ("registry-list", "registry --root run1/registry list"),
    ("registry-verify", "registry --root run1/registry verify"),
    ("sweep", "sweep --config drift.cfg --param monitoring.eval_period_slots "
              "--values 5,10,20 --out sweeps"),
    ("train-predictor", "train predictor --seed 3 --slots 400 --antennas 32 --doppler 0.02 "
                        "--out pred.lcmp"),
    ("eval-sgcs", "eval sgcs --model pred.lcmp --seed 3 --slots 400 --antennas 32 "
                  "--doppler 0.02"),
    ("train-autoencoder", "train autoencoder --seed 11 --slots 1024 --antennas 32 --latent 8 "
                          "--out-encoder enc.lcmp --out-decoder dec.lcmp"),
    ("export-dataset", "intervendor export-dataset --encoder enc.lcmp --seed 11 --slots 1024 "
                       "--antennas 32 --out ds.bin"),
    ("train-decoder", "intervendor train-decoder --dataset ds.bin --out dec2.lcmp"),
    ("crosspair", "intervendor crosspair --encoder enc.lcmp --decoder dec.lcmp "
                  "--decoder dec2.lcmp --seed 12 --slots 256 --antennas 32"),
    ("derive-reference", "intervendor derive-reference --latents 4,8,12 --bits 0,0,0 "
                         "--antennas 16 --paths 8 --seed 5 --flops-budget 5000"),
    ("train-encoder", "intervendor train-encoder --decoder dec.lcmp --seed 13 --slots 512 "
                      "--antennas 32 --out enc2.lcmp"),
    ("train-autoencoder-quantized", "train autoencoder --seed 21 --slots 512 --antennas 16 "
                                    "--latent 4 --bits 3 --out-encoder qenc.lcmp "
                                    "--out-decoder qdec.lcmp"),
    ("train-encoder-quantized", "intervendor train-encoder --decoder qdec.lcmp --seed 22 "
                                "--slots 512 --antennas 16 --out qenc2.lcmp"),
    ("export-dataset-v0", "intervendor export-dataset --encoder qenc.lcmp --seed 23 "
                          "--slots 256 --antennas 16 --vendor-index 0 --out qds0.bin"),
    ("export-dataset-v1", "intervendor export-dataset --encoder qenc2.lcmp --seed 24 "
                          "--slots 256 --antennas 16 --vendor-index 1 --out qds1.bin"),
    ("export-dataset-quantized", "intervendor export-dataset --encoder qenc.lcmp --seed 25 "
                                 "--slots 256 --antennas 16 --out qds.bin"),
    ("train-decoder-quantized", "intervendor train-decoder --dataset qds.bin --out qdec2.lcmp"),
    ("multivendor", "intervendor multivendor --dataset qds1.bin --dataset qds0.bin "
                    "--out mvdec.lcmp"),
    ("crosspair-multivendor", "intervendor crosspair --encoder qenc.lcmp --encoder qenc2.lcmp "
                              "--decoder mvdec.lcmp --decoder mvdec.lcmp --decoder qdec.lcmp "
                              "--decoder qdec2.lcmp --vendor-indices 0,1,-,- --seed 26 "
                              "--slots 128 --antennas 16"),
    ("derive-reference-outputs", "intervendor derive-reference --latents 4,6 --bits 2,0 "
                                 "--antennas 16 --seed 6 --out-csv ref.csv "
                                 "--out-model ref.lcmp"),
)


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
        for name in configs.SCENARIOS
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


def _file_digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def cli_lines(work: Path, commands=CLI_COMMANDS) -> list[str]:
    """Run ``commands`` in order through ``lcmsim.cli.main``, in this
    process, from ``work`` (an empty directory) with drift.cfg written in
    it. One line per command: ``cli/<label>``, the SHA-256 of its stdout,
    then ``<path>=<sha256>`` for each file it created or changed, by path
    relative to ``work`` in sorted order. A command that exits non-zero
    raises RuntimeError with its stderr."""
    configs = _load(ROOT / "tests" / "scenario_configs.py")
    (work / "drift.cfg").write_text(configs.CANONICAL_DRIFT, encoding="utf-8")
    lines = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        before = _file_digests(Path("."))
        for label, command in commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(command.split())
            if code != 0:
                raise RuntimeError(f"lcmsim {command} exited {code}: {err.getvalue()}")
            after = _file_digests(Path("."))
            written = [f"{name}={sha}" for name, sha in sorted(after.items())
                       if before.get(name) != sha]
            stdout = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            lines.append(" ".join((f"cli/{label}", stdout, *written)))
            before = after
    finally:
        os.chdir(cwd)
    return lines


def gate_lines(seed: int, work: Path) -> list[str]:
    """The lines ``tests/digests`` files, with ``work`` an empty directory:
    ``label metrics events`` per run, then ``label/registry registry`` per
    run, then :func:`cli_lines`."""
    runs, registries = [], []
    for i, (label, text) in enumerate(scenario_texts(seed)):
        root = work / f"registry-{i}"
        runs.append(" ".join((label, *digest(text, str(root)))))
        registries.append(f"{label}/registry {registry_digest(root)}")
    (work / "cli").mkdir()
    return runs + registries + cli_lines(work / "cli")


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
