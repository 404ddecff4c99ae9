"""Command-line harness: exit codes, outputs on disk, sweep behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcmsim import cli
from lcmsim.cli import main
from scenario_configs import QUIET_SMALL


@pytest.fixture()
def quiet_cfg(tmp_path):
    path = tmp_path / "quiet.cfg"
    path.write_text(QUIET_SMALL, encoding="utf-8")
    return path


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, ["--help"])
        assert rc == 0
        assert "simulate" in out and "intervendor" in out

    def test_unknown_subcommand_prints_usage_exit_one(self, capsys):
        rc, _, err = run_cli(capsys, ["frobnicate"])
        assert rc == 1
        assert "usage:" in err

    def test_missing_required_flag_exit_one(self, capsys):
        rc, _, err = run_cli(capsys, ["simulate"])
        assert rc == 1
        assert "usage:" in err

    def test_missing_config_file_exit_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, ["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert "config error" in err

    def test_invalid_config_content_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("num_slots = -4\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, ["simulate", "--config", str(bad)])
        assert rc == 1
        assert "config error" in err

    def test_missing_model_file_exit_two(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys,
            ["eval", "sgcs", "--model", str(tmp_path / "ghost.lcmp")],
        )
        assert rc == 2
        assert "error" in err

    def test_console_script_entry(self):
        # The child imports the same lcmsim as this process, installed or
        # put on sys.path by pytest's ``pythonpath`` setting.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lcmsim.cli", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "usage: lcmsim" in proc.stdout


class TestSimulate:
    def test_writes_outputs_and_prints_summary(self, capsys, quiet_cfg, tmp_path):
        out_dir = tmp_path / "run"
        rc, out, _ = run_cli(
            capsys, ["simulate", "--config", str(quiet_cfg), "--out", str(out_dir)]
        )
        assert rc == 0
        assert (out_dir / "metrics.csv").is_file()
        assert (out_dir / "events.log").is_file()
        assert (out_dir / "registry").is_dir()
        assert "final_state = Stable" in out
        assert "mean_sgcs = " in out

    def test_two_runs_identical_bytes(self, capsys, quiet_cfg, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc, _, _ = run_cli(
                capsys, ["simulate", "--config", str(quiet_cfg), "--out", str(d)]
            )
            assert rc == 0
        for name in ("metrics.csv", "events.log"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_env_var_sets_output_root(self, capsys, quiet_cfg, tmp_path, monkeypatch):
        root = tmp_path / "from-env"
        monkeypatch.setenv("LCM_SIM_OUT", str(root))
        rc, _, _ = run_cli(capsys, ["simulate", "--config", str(quiet_cfg)])
        assert rc == 0
        assert (root / "metrics.csv").is_file()


class TestRegistryVerbs:
    @pytest.fixture()
    def populated_root(self, capsys, quiet_cfg, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, _ = run_cli(
            capsys, ["simulate", "--config", str(quiet_cfg), "--out", str(out_dir)]
        )
        assert rc == 0
        return out_dir / "registry"

    def test_list_shows_stored_model(self, capsys, populated_root):
        rc, out, _ = run_cli(capsys, ["registry", "--root", str(populated_root), "list"])
        assert rc == 0
        assert "status=active" in out
        assert "total = 1" in out

    def test_verify_intact_exit_zero(self, capsys, populated_root):
        rc, out, _ = run_cli(capsys, ["registry", "--root", str(populated_root), "verify"])
        assert rc == 0
        assert "corrupt = 0" in out

    def test_verify_corrupted_exit_two(self, capsys, populated_root):
        victim = next(populated_root.rglob("*.lcmp"))
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        rc, out, _ = run_cli(capsys, ["registry", "--root", str(populated_root), "verify"])
        assert rc == 2
        assert "corrupt = 1" in out

    def test_add_then_gc(self, capsys, populated_root, tmp_path):
        pkg_path = tmp_path / "extra.lcmp"
        rc, _, _ = run_cli(
            capsys,
            [
                "train", "predictor", "--seed", "3", "--slots", "120",
                "--antennas", "8", "--doppler", "0.02", "--out", str(pkg_path),
            ],
        )
        assert rc == 0
        rc, out, _ = run_cli(
            capsys,
            ["registry", "--root", str(populated_root), "add",
             "--package", str(pkg_path), "--slot", "7"],
        )
        assert rc == 0
        assert out.startswith("stored ")
        rc, out, _ = run_cli(capsys, ["registry", "--root", str(populated_root), "list"])
        assert "total = 2" in out
        rc, out, _ = run_cli(capsys, ["registry", "--root", str(populated_root), "gc"])
        assert rc == 0
        assert "collected = 0" in out


class TestTrainEval:
    def test_train_then_eval_same_trace(self, capsys, tmp_path):
        pkg_path = tmp_path / "pred.lcmp"
        argv = ["--seed", "5", "--slots", "200", "--antennas", "8", "--doppler", "0.03"]
        rc, out, _ = run_cli(capsys, ["train", "predictor", *argv, "--out", str(pkg_path)])
        assert rc == 0
        assert pkg_path.is_file()
        assert "model_id = " in out
        rc, out, _ = run_cli(capsys, ["eval", "sgcs", "--model", str(pkg_path), *argv])
        assert rc == 0
        score = float(out.split("mean_sgcs = ")[1].splitlines()[0])
        assert score > 0.9

    def test_eval_sgcs_rejects_non_predictor(self, capsys, tmp_path):
        enc = tmp_path / "enc.lcmp"
        dec = tmp_path / "dec.lcmp"
        rc, _, _ = run_cli(
            capsys,
            ["train", "autoencoder", "--seed", "6", "--slots", "64",
             "--antennas", "8", "--latent", "4",
             "--out-encoder", str(enc), "--out-decoder", str(dec)],
        )
        assert rc == 0
        rc, _, err = run_cli(capsys, ["eval", "sgcs", "--model", str(enc)])
        assert rc == 1
        assert "csi_predictor" in err

    def test_eval_beams_self_contained(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["eval", "beams", "--seed", "4", "--slots", "160",
             "--antennas", "8", "--doppler", "0.02", "--subset", "0,2,4"],
        )
        assert rc == 0
        accuracy = float(out.split("_accuracy = ")[1].splitlines()[0])
        assert 0.0 <= accuracy <= 1.0


class TestSweep:
    def test_eval_period_sweep_overhead_decreases(self, capsys, quiet_cfg, tmp_path):
        out_root = tmp_path / "sweep"
        rc, out, _ = run_cli(
            capsys,
            ["sweep", "--config", str(quiet_cfg),
             "--param", "monitoring.eval_period_slots",
             "--values", "5,10,20", "--out", str(out_root)],
        )
        assert rc == 0
        metric_files = sorted(out_root.rglob("metrics.csv"))
        assert len(metric_files) == 3
        overheads = []
        for line in out.splitlines():
            if "overhead_bits=" in line:
                overheads.append(int(line.split("overhead_bits=")[1].split()[0]))
        assert len(overheads) == 3
        assert overheads[0] > overheads[1] > overheads[2]

    def test_sweep_empty_values_exit_one(self, capsys, quiet_cfg):
        rc, _, err = run_cli(
            capsys,
            ["sweep", "--config", str(quiet_cfg), "--param", "seed", "--values", ","],
        )
        assert rc == 1
        assert "config error" in err


class TestIntervendorVerbs:
    def test_dataset_round_trip_and_crosspair(self, capsys, tmp_path):
        enc = tmp_path / "enc.lcmp"
        dec = tmp_path / "dec.lcmp"
        trace_args = ["--seed", "11", "--slots", "256", "--antennas", "8"]
        rc, _, _ = run_cli(
            capsys,
            ["train", "autoencoder", *trace_args, "--latent", "4",
             "--out-encoder", str(enc), "--out-decoder", str(dec)],
        )
        assert rc == 0
        ds = tmp_path / "ds.bin"
        rc, out, _ = run_cli(
            capsys,
            ["intervendor", "export-dataset", "--encoder", str(enc),
             *trace_args, "--out", str(ds)],
        )
        assert rc == 0
        assert "samples = 256" in out
        dec2 = tmp_path / "dec2.lcmp"
        rc, out, _ = run_cli(
            capsys,
            ["intervendor", "train-decoder", "--dataset", str(ds), "--out", str(dec2)],
        )
        assert rc == 0
        rc, out, _ = run_cli(
            capsys,
            ["intervendor", "crosspair", "--encoder", str(enc),
             "--decoder", str(dec), "--decoder", str(dec2),
             "--seed", "12", "--slots", "64", "--antennas", "8"],
        )
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header.startswith("encoder\\decoder")
        cells = row.split(",")[1:]
        assert len(cells) == 2
        assert all(0.0 <= float(c) <= 1.0 for c in cells)

    def test_derive_reference_selects_and_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scores.csv"
        model_path = tmp_path / "ref.lcmp"
        rc, out, _ = run_cli(
            capsys,
            ["intervendor", "derive-reference", "--latents", "4,8", "--bits", "0,0",
             "--antennas", "16", "--paths", "8", "--seed", "5",
             "--train-samples", "256", "--eval-samples", "64",
             "--out-csv", str(csv_path), "--out-model", str(model_path)],
        )
        assert rc == 0
        assert "selected candidate" in out
        assert csv_path.is_file()
        assert model_path.is_file()

    def test_derive_reference_no_winner_still_exit_zero(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            ["intervendor", "derive-reference", "--latents", "4", "--bits", "0",
             "--antennas", "16", "--paths", "8", "--seed", "5",
             "--train-samples", "256", "--eval-samples", "64",
             "--flops-budget", "1", "--out-model", str(tmp_path / "ref.lcmp")],
        )
        assert rc == 0
        assert "no reference selected" in out
        assert not (tmp_path / "ref.lcmp").exists()
