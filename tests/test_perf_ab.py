"""The per-metric verdict of ``tools/perf_ab.py``: gain, unresolved,
within_bound or worse, from each side's runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def verdict(name, parent_runs, change_runs):
    """The tool's verdict for ``name`` from the runs of each side, paired in order."""
    sides = [TOOL.summarize([{"metrics": dict.fromkeys(TOOL.HIGHER_IS_BETTER, v), "correct": True}
                             for v in runs])[name] for runs in (parent_runs, change_runs)]
    higher = TOOL.HIGHER_IS_BETTER[name]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))
    return TOOL.verdict(name, *sides, wins, len(parent_runs))


@pytest.mark.parametrize("name, parent, change, want", [
    # Quartiles 2% apart: a 3% loss is within the 0.25 bound, a 40% loss is not.
    ("slots_per_s", [99, 100, 101] * 4, [96, 97, 98] * 4, "within_bound"),
    ("slots_per_s", [99, 100, 101] * 4, [59, 60, 61] * 4, "worse"),
    # Every pair won, the median better by more than the parent's quartile distance.
    ("slots_per_s", [99, 100, 101] * 4, [109, 110, 111] * 4, "gain"),
    ("setup_s", [0.99, 1.0, 1.01] * 4, [0.89, 0.9, 0.91] * 4, "gain"),
    # Quartiles 29% of the median apart against a 0.25 bound: a move cannot be
    # told from none, even with every pair won, while one change run is not
    # better than every parent run.
    ("setup_s", [0.78, 0.88, 1.12, 1.22] * 3, [0.8, 0.9, 1.14, 1.24] * 3, "unresolved"),
    ("setup_s", [0.78, 0.88, 1.12, 1.22] * 3, [0.5, 0.7, 0.9, 1.2] * 3, "unresolved"),
    # The same spread, but every change run is better than every parent run.
    ("slots_per_s", [70, 70, 130, 130] * 3, [131, 131, 131, 131] * 3, "within_bound"),
])
def test_verdict(name, parent, change, want):
    assert verdict(name, parent, change) == want
