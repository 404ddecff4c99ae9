"""Byte-identity gate: metrics.csv, events.log and the registry of every
run that ``tools/output_digests.py --seed 42`` makes, and the stdout and
files of every command of its ``CLI_COMMANDS``, must hash to the lines
recorded for this numeric environment by ``tools/record_digests.py``
(``gate_lines``).

The 1e-9 pins of test_acceptance.py let a last-bit change through; this
test does not. A digest holds only in the environment it was recorded
in (BLAS sums depend on the library, its kernels and thread count), so
with no file for the current fingerprint the test skips."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 42


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests():
    tool = load_tool()
    fields = tool.fingerprint_fields()
    path = ROOT / "tests" / "digests" / f"{tool.fingerprint(fields)}.txt"
    if not path.exists():
        pytest.skip(f"no digests for numeric environment {tool.fingerprint(fields)} "
                    f"({dict(fields)}); record them with python3 tools/record_digests.py")
    head, _, body = path.read_text(encoding="utf-8").partition("\n\n")
    assert head.splitlines() == [f"{key} = {value}" for key, value in fields]
    recorded = body.splitlines()
    with tempfile.TemporaryDirectory() as work:
        runs = tool.gate_lines(SEED, Path(work))
    assert len(runs) == len(recorded)
    changed = [f"recorded {want}\n     got {got}" for want, got in zip(recorded, runs) if want != got]
    assert not changed, "outputs moved:\n" + "\n".join(changed)
