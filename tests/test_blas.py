"""BLAS thread regions of a run: one thread outside the ridge and delta fits,
the caller's count inside them, the pool parked afterwards, and not a byte
of output moved by any of it."""

import time

import numpy as np
import pytest

from lcmsim import blas, simulation
from lcmsim.config import parse_scenario_config
from lcmsim.errors import ConfigError
from lcmsim.simulation import run_scenario
from scenario_configs import CANONICAL_DRIFT, MILD_DRIFT, QUIET_SMALL

needs_openblas = pytest.mark.skipif(blas.threads() is None, reason="no OpenBLAS loaded")
LIVE_LIMIT = blas.limit


@needs_openblas
class TestRegions:
    def test_the_caller_count_is_restored_after_a_run_and_after_a_failed_one(self, tmp_path):
        config = parse_scenario_config(QUIET_SMALL)
        with blas.limit(2):
            caller = blas.threads()
            run_scenario(config, str(tmp_path / "registry"))
            assert blas.threads() == caller
            with pytest.raises(ConfigError, match="already holds models"):
                run_scenario(config, str(tmp_path / "registry"))
            assert blas.threads() == caller

    def test_fits_see_the_caller_count_and_prediction_sees_one(self, tmp_path, monkeypatch):
        seen = {}

        def recording(name, function):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(blas.threads())
                return function(*args, **kwargs)
            return wrapper

        for name in ("solve", "lstsq", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        monkeypatch.setattr(simulation, "predict_csi_rows",
                            recording("predict_csi_rows", simulation.predict_csi_rows))
        with blas.limit(2):
            caller = blas.threads()
            result = run_scenario(parse_scenario_config(MILD_DRIFT), str(tmp_path / "registry"))
        assert result.summary["actions"].get("DeltaUpdate", 0) > 0
        assert seen == {"solve": {caller}, "lstsq": {caller}, "svd": {caller},
                        "predict_csi_rows": {1}}

    def test_no_worker_spins_after_a_run(self, tmp_path):
        with blas.limit(2):
            run_scenario(parse_scenario_config(QUIET_SMALL), str(tmp_path / "registry"))
            start = time.process_time()
            time.sleep(0.1)
            assert time.process_time() - start < 0.02


@pytest.mark.parametrize("text", [CANONICAL_DRIFT, MILD_DRIFT], ids=["canonical", "mild"])
def test_the_regions_move_no_byte(tmp_path, monkeypatch, text):
    """Fits at two threads and the rest at one give the bytes of a run at two
    throughout; the digest gate skips at two threads, this test does not."""
    config = parse_scenario_config(text)
    with LIVE_LIMIT(2):
        live = run_scenario(config, str(tmp_path / "live"))
        monkeypatch.setattr(blas, "limit", lambda count: LIVE_LIMIT(None))
        off = run_scenario(config, str(tmp_path / "off"))
    for output in ("metrics_text", "events_text"):
        want, got = getattr(off, output)().splitlines(), getattr(live, output)().splitlines()
        moved = [(w, g) for w, g in zip(want, got) if w != g]  # pytest's diff of all is slow
        assert len(want) == len(got) and not moved, f"{output} moved: {moved[:3]}"
