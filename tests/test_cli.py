"""Command-line harness: exit codes, outputs on disk, sweep behaviour."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lcmsim import cli, container, intervendor
from lcmsim.channel import CsiMeasurements, unit_norm
from lcmsim.cli import main
from lcmsim.intervendor import DerivationReport, DerivationSpec, EvalCriteria, export_dataset
from lcmsim.models import (
    AutoencoderConfig,
    PredictorConfig,
    train_autoencoder_joint,
    train_beam_predictor,
    train_predictor,
)
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

    USAGE_ERRORS = {
        "predictor-slots-0": ["train", "predictor", "--slots", "0", "--out", "p.lcmp"],
        "predictor-order-0": ["train", "predictor", "--order", "0", "--out", "p.lcmp"],
        "predictor-short-trace": ["train", "predictor", "--slots", "10", "--out", "p.lcmp"],
        "beams-one-antenna": ["eval", "beams", "--antennas", "1"],
        "beams-doppler": ["eval", "beams", "--doppler", "0.7"],
        "beams-top-k": ["eval", "beams", "--top-k", "40"],
        "autoencoder-latent-0": ["train", "autoencoder", "--latent", "0",
                                 "--out-encoder", "e.lcmp", "--out-decoder", "d.lcmp"],
        "autoencoder-bits": ["train", "autoencoder", "--bits", "-1",
                             "--out-encoder", "e.lcmp", "--out-decoder", "d.lcmp"],
        "derive-paths": ["intervendor", "derive-reference", "--latents", "4", "--bits", "0",
                         "--antennas", "16", "--paths", "40", "--out-model", "m.lcmp"],
        "derive-train-samples": ["intervendor", "derive-reference", "--latents", "4",
                                 "--bits", "0", "--train-samples", "1"],
    }

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_out_of_range_flag_exits_one_before_any_work(
        self, capsys, tmp_path, monkeypatch, case
    ):
        def work(*args, **kwargs):
            raise AssertionError("work began before the flags were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "generate_trace", work)
        monkeypatch.setattr(intervendor, "derive_reference_model", work)
        rc, out, err = run_cli(capsys, self.USAGE_ERRORS[case])
        assert rc == 1
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_eval_beams_names_the_antenna_flag(self, capsys):
        # The trace flags are checked before the beam-KPI flags, which are
        # checked against the beam count the antennas set.
        rc, _, err = run_cli(capsys, self.USAGE_ERRORS["beams-one-antenna"])
        assert rc == 1
        assert err == "config error: channel.num_antennas must be at least 2\n"

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

    def test_used_output_directory_refused_with_exit_one(self, capsys, quiet_cfg, tmp_path):
        out_dir = tmp_path / "run"
        argv = ["simulate", "--config", str(quiet_cfg), "--out", str(out_dir)]
        assert run_cli(capsys, argv)[0] == 0
        metrics = (out_dir / "metrics.csv").read_bytes()
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (1, "")
        assert err == (f"config error: registry {out_dir / 'registry'} already holds models; "
                       "use a fresh one\n")
        assert (out_dir / "metrics.csv").read_bytes() == metrics

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


def _without(blob: bytes, key: str) -> bytes:
    """The container ``blob`` with header ``key`` dropped, checksummed anew."""
    header, matrices, _ = container.read_container(blob)
    del header[key]
    return container.write_container(header, matrices)


class TestArtifactFailures:
    """Each verb that reads an artifact refuses one of the wrong kind or one
    lacking a header key with one error line and exit 1 or 2, no traceback."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("artifacts")
        rng = np.random.default_rng(5)
        targets = unit_norm(rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8)))
        history = CsiMeasurements(targets, [20.0] * 64)
        enc, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 8))
        blobs = {
            "pred": train_predictor(history, PredictorConfig(2, 2)).to_bytes(),
            "beam": train_beam_predictor(np.abs(targets) ** 2, [0, 3], 8).to_bytes(),
            "enc": enc.to_bytes(),
            "dec": dec.to_bytes(),
            "ds": export_dataset(enc, targets, vendor_index=0).to_bytes(),
        }
        damaged = {
            "pred-no-order": ("pred", "extra.order"),
            "beam-no-subset": ("beam", "extra.beam_subset"),
            "pred-no-id": ("pred", "model_id"),
            "enc-no-bits": ("enc", "extra.bits_per_dim"),
            "dec-no-latent": ("dec", "extra.latent_dim"),
            "dec-no-bits": ("dec", "extra.bits_per_dim"),
            "ds-no-id": ("ds", "associated_id"),
            "ds-no-bits": ("ds", "bits_per_dim"),
        }
        for name, (source, key) in damaged.items():
            blobs[name] = _without(blobs[source], key)
        for name, blob in blobs.items():
            (root / name).write_bytes(blob)
        return root

    TRACE = ["--seed", "1", "--slots", "64", "--antennas", "8"]
    CASES = {
        "eval-sgcs-kind": ["eval", "sgcs", "--model", "enc", *TRACE],
        "eval-sgcs-key": ["eval", "sgcs", "--model", "pred-no-order", *TRACE],
        "eval-beams-kind": ["eval", "beams", "--model", "pred", *TRACE],
        "eval-beams-key": ["eval", "beams", "--model", "beam-no-subset", *TRACE],
        "registry-add-kind": ["registry", "--root", "reg", "add", "--package", "ds"],
        "registry-add-key": ["registry", "--root", "reg", "add", "--package", "pred-no-id"],
        "export-kind": ["intervendor", "export-dataset", "--encoder", "dec", *TRACE, "--out", "o"],
        "export-key": ["intervendor", "export-dataset", "--encoder", "enc-no-bits", *TRACE,
                       "--out", "o"],
        "train-decoder-kind": ["intervendor", "train-decoder", "--dataset", "dec", "--out", "o"],
        "train-decoder-key": ["intervendor", "train-decoder", "--dataset", "ds-no-id",
                              "--out", "o"],
        "train-encoder-kind": ["intervendor", "train-encoder", "--decoder", "enc", *TRACE,
                               "--out", "o"],
        "train-encoder-key": ["intervendor", "train-encoder", "--decoder", "dec-no-latent",
                              *TRACE, "--out", "o"],
        "multivendor-kind": ["intervendor", "multivendor", "--dataset", "ds", "--dataset", "enc",
                             "--out", "o"],
        "multivendor-key": ["intervendor", "multivendor", "--dataset", "ds", "--dataset",
                            "ds-no-bits", "--out", "o"],
        "crosspair-encoder-kind": ["intervendor", "crosspair", "--encoder", "pred",
                                   "--decoder", "dec", *TRACE],
        "crosspair-decoder-kind": ["intervendor", "crosspair", "--encoder", "enc",
                                   "--decoder", "enc", *TRACE],
        "crosspair-encoder-key": ["intervendor", "crosspair", "--encoder", "enc-no-bits",
                                  "--decoder", "dec", *TRACE],
        "crosspair-decoder-key": ["intervendor", "crosspair", "--encoder", "enc",
                                  "--decoder", "dec-no-bits", *TRACE],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_and_exit_one_or_two(self, capsys, artifacts, monkeypatch, case):
        monkeypatch.chdir(artifacts)
        rc, _, err = run_cli(capsys, self.CASES[case])
        assert rc in (1, 2)
        assert err.count("\n") == 1 and err.startswith(("error: ", "config error: ")), err
        assert not (artifacts / "o").exists()


class TestCommaListFlags:
    """--latents, --bits, --subset and --vendor-indices are parsed by one
    argparse type: a malformed list is a usage error (exit 1), found before
    any file is read."""

    CASES = {
        "latents": (["intervendor", "derive-reference", "--latents", "a", "--bits", "0"],
                    "--latents", "a"),
        "bits": (["intervendor", "derive-reference", "--latents", "4", "--bits", "0,b"],
                 "--bits", "0,b"),
        "latents-dash": (["intervendor", "derive-reference", "--latents", "4,-",
                          "--bits", "0,0"], "--latents", "4,-"),
        "subset": (["eval", "beams", "--subset", "0,x"], "--subset", "0,x"),
        "vendor-indices": (["intervendor", "crosspair", "--encoder", "missing.lcmp", "--decoder",
                            "missing.lcmp", "--vendor-indices", "0,x"], "--vendor-indices", "0,x"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_list_exits_one(self, capsys, case):
        argv, flag, value = self.CASES[case]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("usage: ")
        assert err.endswith(f"error: argument {flag}: invalid int_list value: {value!r}\n")

    def test_dash_is_no_index_only_in_vendor_indices(self):
        parse = cli.build_parser().parse_args
        args = parse(["intervendor", "crosspair", "--encoder", "e", "--decoder", "d",
                      "--decoder", "d", "--vendor-indices", "0,-"])
        assert args.vendor_indices == [0, None]
        assert parse(["eval", "beams"]).subset == [0, 4, 8, 12]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(*headings: str) -> list[list[str]]:
    """The ``lcmsim`` commands of the sh blocks that follow ``headings`` in
    README.md, continuation lines joined, in order."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for heading in headings:
        block = text.split(f"\n{heading}\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            assert argv[0] == "lcmsim"
            commands.append(argv[1:])
    return commands


class TestReadmeCommands:
    def test_outside_the_loop_and_two_sided_blocks_run(self, capsys, tmp_path, monkeypatch):
        commands = readme_commands(
            "Train and evaluate models outside the loop:", "Two-sided collaboration:"
        )
        assert len(commands) == 8
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            rc, _, err = run_cli(capsys, argv)
            assert rc == 0, (argv, err)

    def test_quick_start_and_library_use_tell_the_readme_story(
        self, capsys, tmp_path, monkeypatch
    ):
        text = README.read_text(encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        Path("drift.cfg").write_text(text.split("```ini\n", 1)[1].split("```", 1)[0])

        [simulate] = readme_commands("Run it:")
        rc, out, err = run_cli(capsys, simulate)
        assert rc == 0, err
        assert "final_state = Stable" in out.splitlines()
        log = Path("run1/events.log").read_text(encoding="utf-8").splitlines()
        assert [line.split()[0] for line in log if " kind=DriftAlarm " in line] == ["slot=840"]
        assert any(" kind=ActionIssued action=Switch clause=registry_match " in line
                   for line in log)

        for argv in readme_commands("Inspect the model store:"):
            rc, _, err = run_cli(capsys, argv)
            assert rc == 0, (argv, err)

        [sweep] = readme_commands("Sweep a config key:")
        rc, out, err = run_cli(capsys, sweep)
        assert rc == 0, err
        rows = [line for line in out.splitlines() if " evaluations=" in line]
        assert [int(row.split("evaluations=")[1].split()[0]) for row in rows] == [392, 196, 98]

        library = text.split("## Library use", 1)[1]
        snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(snippet, namespace)
        capsys.readouterr()
        result = namespace["result"]
        assert result.summary["final_state"] == "Stable"
        assert result.metrics_text() == Path("run1/metrics.csv").read_text(encoding="utf-8")


class TestFlagDefaults:
    """Flags that fill a dataclass field default to that field's default."""

    def test_train_predictor_defaults_to_predictor_config(self, capsys, tmp_path, monkeypatch):
        seen = []
        real = cli.train_predictor

        def spy(history, cfg, **kwargs):
            seen.append(cfg)
            return real(history, cfg, **kwargs)

        monkeypatch.setattr(cli, "train_predictor", spy)
        argv = ["train", "predictor", "--slots", "60", "--antennas", "8",
                "--out", str(tmp_path / "pred.lcmp")]
        assert run_cli(capsys, argv)[0] == 0
        assert run_cli(capsys, argv + ["--order", "3", "--horizon", "2"])[0] == 0
        assert seen == [PredictorConfig(), PredictorConfig(order=3, horizon_slots=2)]

    def test_derive_reference_defaults_to_spec_and_criteria(self, capsys, monkeypatch):
        seen = []

        def fake(candidates, spec, criteria, seed):
            seen.append((spec, criteria))
            return None, DerivationReport(scores=(), selected_index=None)

        monkeypatch.setattr(intervendor, "derive_reference_model", fake)
        argv = ["intervendor", "derive-reference", "--latents", "4", "--bits", "0",
                "--antennas", "16"]
        assert run_cli(capsys, argv)[0] == 0
        flags = ["--train-samples", "10", "--eval-samples", "5", "--sgcs-floor", "0.5",
                 "--flops-budget", "7", "--storage-budget", "8", "--robustness-floor", "0.25"]
        assert run_cli(capsys, argv + flags)[0] == 0
        (spec, criteria), (spec2, criteria2) = seen
        assert spec == DerivationSpec(spec.regime, num_antennas=16)
        assert criteria == EvalCriteria()
        assert spec2 == DerivationSpec(spec.regime, 16, num_train=10, num_eval=5)
        assert criteria2 == EvalCriteria(0.5, 7, 8, 0.25)

    def test_derive_reference_has_no_slots_flag(self, capsys, monkeypatch):
        """The split sizes set its sample counts, so --slots is a usage error."""
        monkeypatch.setattr(intervendor, "derive_reference_model", lambda *a: pytest.fail("ran"))
        argv = ["intervendor", "derive-reference", "--latents", "4", "--bits", "0", "--slots", "9"]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("usage: ")
        assert err.endswith("error: unrecognized arguments: --slots 9\n")
