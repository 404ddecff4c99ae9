"""Scenario config parser: totality, defaults, and line-number errors."""

import math
from dataclasses import fields, replace
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmsim.channel import ChannelRegime, generate_trace
from lcmsim.config import PretrainSpec, load_scenario_config, parse_scenario_config
from lcmsim.controller import DecisionPolicy
from lcmsim.errors import ConfigError
from lcmsim.models import PredictorConfig
from lcmsim.monitoring import MonitoringConfig, MonitoringMode

MINIMAL = """
seed = 1
num_slots = 200
channel.num_antennas = 8
channel.regime.0.doppler_norm = 0.05
pretrain.0.start_slot = 0
pretrain.0.end_slot = 64
"""


def with_lines(*lines):
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_minimal_config_and_defaults(self):
        cfg = parse_scenario_config(MINIMAL)
        assert cfg.seed == 1
        assert cfg.num_slots == 200
        assert cfg.num_antennas == 8
        start, regime = cfg.regime_schedule[0]
        assert (start, regime.regime_id) == (0, "regime-0")
        assert regime.num_paths == 6
        assert regime.angle_spread == 0.9
        assert math.isinf(regime.mean_snr_db)
        assert cfg.monitoring.mode is MonitoringMode.TYPE1
        assert cfg.monitoring.threshold_gamma == 0.8
        assert cfg.monitoring.n_consec == 3
        assert cfg.monitoring.eval_period_slots == 40.0
        assert (cfg.predictor.order, cfg.predictor.horizon_slots) == (8, 4)
        assert cfg.policy.delta_low == 0.05
        assert cfg.policy.delta_match == 0.10
        assert cfg.policy.delta_delta == 0.25
        assert cfg.policy.descriptor_window_slots == 40
        assert cfg.snr_overrides == []
        assert cfg.registry_path == "registry"
        assert cfg.metrics_path == "metrics.csv"
        assert cfg.events_path == "events.log"

    def test_every_key_consumed(self):
        text = with_lines(
            "seed = 9",
            "num_slots = 500",
            "channel.num_antennas = 16",
            "channel.regime.0.start_slot = 0",
            "channel.regime.0.regime_id = alpha",
            "channel.regime.0.num_paths = 4",
            "channel.regime.0.doppler_norm = 0.01",
            "channel.regime.0.angle_spread = 0.7",
            "channel.regime.0.mean_snr_db = 15",
            "channel.regime.1.start_slot = 250",
            "channel.regime.1.doppler_norm = 0.1",
            "channel.snr_override.0.start_slot = 300",
            "channel.snr_override.0.mean_snr_db = 5",
            "pretrain.0.start_slot = 0",
            "pretrain.0.end_slot = 100",
            "monitoring.mode = Type3",
            "monitoring.threshold_gamma = 0.9",
            "monitoring.n_consec = 2",
            "monitoring.quant_bits = 6",
            "monitoring.gt_slot_offset = 1",
            "monitoring.eval_period_slots = 25",
            "predictor.order = 4",
            "predictor.horizon_slots = 2",
            "policy.delta_low = 0.01",
            "policy.delta_match = 0.02",
            "policy.delta_delta = 0.3",
            "policy.snr_floor_db = 3",
            "policy.cooldown_evals = 5",
            "policy.n_recover = 4",
            "policy.min_train_samples = 50",
            "policy.delta_rank = 4",
            "policy.descriptor_window_slots = 30",
            "registry.path = store",
            "output.metrics = m.csv",
            "output.events = e.log",
        )
        cfg = parse_scenario_config(text)
        assert cfg.regime_schedule[1][0] == 250
        assert cfg.snr_overrides == [(300, 5.0)]
        assert cfg.monitoring.mode is MonitoringMode.TYPE3
        assert cfg.monitoring.quant_bits == 6
        assert cfg.policy.cooldown_evals == 5
        assert (cfg.registry_path, cfg.metrics_path, cfg.events_path) == (
            "store", "m.csv", "e.log",
        )

    def test_comments_and_blank_lines(self):
        text = MINIMAL + "\n# trailing comment\nmonitoring.n_consec = 2  # inline\n"
        cfg = parse_scenario_config(text)
        assert cfg.monitoring.n_consec == 2

    def test_inf_eval_period_accepted(self):
        cfg = parse_scenario_config(MINIMAL + "monitoring.eval_period_slots = inf\n")
        assert math.isinf(cfg.monitoring.eval_period_slots)


SECTIONS = [("policy", DecisionPolicy), ("monitoring", MonitoringConfig),
            ("predictor", PredictorConfig)]


def other_value(default):
    """A valid value other than a field's default: the last Enum member,
    an int one larger, a float one (or, below 1, one hundredth) larger."""
    if isinstance(default, Enum):
        return list(type(default))[-1]
    if isinstance(default, int):
        return default + 1
    return default + (1.0 if default >= 1 else 0.01)


class TestSections:
    """policy.*, monitoring.*, predictor.* and pretrain.<i>.* are the fields
    of the dataclass each section fills, with that dataclass's defaults."""

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg = parse_scenario_config(MINIMAL)
        assert cfg.policy == DecisionPolicy()
        assert cfg.monitoring == MonitoringConfig()
        assert cfg.predictor == PredictorConfig()
        assert cfg.pretrain == [PretrainSpec(start_slot=0, end_slot=64)]

    @pytest.mark.parametrize(
        "prefix, cls, name", [(p, cls, f.name) for p, cls in SECTIONS for f in fields(cls)]
    )
    def test_every_field_is_a_key(self, prefix, cls, name):
        value = other_value(getattr(cls(), name))
        text = value.value if isinstance(value, Enum) else repr(value)
        cfg = parse_scenario_config(MINIMAL + f"{prefix}.{name} = {text}\n")
        assert getattr(cfg, prefix) == replace(cls(), **{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(PretrainSpec)])
    def test_every_pretrain_field_is_a_required_key(self, name):
        key = f"pretrain.0.{name}"
        text = "".join(f"{line}\n" for line in MINIMAL.splitlines() if not line.startswith(key))
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            parse_scenario_config(text)


class TestScanErrors:
    def test_duplicate_key_reports_second_line(self):
        text = with_lines("seed = 1", "seed = 2")
        with pytest.raises(ConfigError, match="line 2.*duplicate key 'seed'"):
            parse_scenario_config(text)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1.*key = value"):
            parse_scenario_config("just words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value for 'seed'"):
            parse_scenario_config("seed =\n")

    def test_unknown_key_reports_name_and_line(self):
        text = MINIMAL + "channel.regime.0.doppler = 0.1\n"
        with pytest.raises(ConfigError, match="unknown key 'channel.regime.0.doppler'"):
            parse_scenario_config(text)

    def test_bad_integer_reports_line(self):
        with pytest.raises(ConfigError, match="seed expects an integer"):
            parse_scenario_config("seed = forty\n" + MINIMAL.replace("seed = 1\n", ""))

    def test_bad_float_rejected(self):
        text = MINIMAL.replace("doppler_norm = 0.05", "doppler_norm = fast")
        with pytest.raises(ConfigError, match="expects a number"):
            parse_scenario_config(text)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["channel.regime.0.mean_snr_db = nan"], "mean_snr_db expects a number"),
            (["channel.regime.0.mean_snr_db = -inf"], "mean_snr_db must be above -inf"),
            (["channel.snr_override.0.start_slot = 100", "channel.snr_override.0.mean_snr_db = nan"],
             "mean_snr_db expects a number"),
            (["channel.snr_override.0.start_slot = 100", "channel.snr_override.0.mean_snr_db = -inf"],
             "mean_snr_db must be above -inf"),
            (["policy.snr_floor_db = NaN"], "snr_floor_db expects a number"),
            (["monitoring.threshold_gamma = nan"], "threshold_gamma expects a number"),
            (["monitoring.eval_period_slots = -inf"], "eval_period_slots must be above -inf"),
            (["policy.snr_floor_db = -inf"], "snr_floor_db must be above -inf"),
        ],
        ids=["regime-nan", "regime-neg-inf", "override-nan", "override-neg-inf", "floor-nan",
             "gamma-nan", "period-neg-inf", "floor-neg-inf"],
    )
    def test_non_finite_values_rejected_at_parse_time(self, lines, message):
        last_line = MINIMAL.count("\n") + len(lines)
        with pytest.raises(ConfigError, match=f"line {last_line}: .*{message}"):
            parse_scenario_config(MINIMAL + with_lines(*lines))

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcdefgh.", min_size=3, max_size=20))
    def test_stray_keys_never_pass_silently(self, key):
        key = key.strip(".")
        known = {
            "seed", "num_slots", "channel.num_antennas",
        }
        if not key or key in known or ".." in key:
            return
        try:
            parse_scenario_config(MINIMAL + f"{key} = 1\n")
        except ConfigError:
            return
        pytest.fail(f"unknown key {key!r} was accepted")


class TestValidation:
    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'num_slots'"):
            parse_scenario_config("seed = 1\n")

    def test_regime_block_required(self):
        text = with_lines(
            "seed = 1", "num_slots = 100", "channel.num_antennas = 8",
            "pretrain.0.start_slot = 0", "pretrain.0.end_slot = 64",
        )
        with pytest.raises(ConfigError, match="channel.regime"):
            parse_scenario_config(text)

    def test_pretrain_block_required(self):
        text = with_lines(
            "seed = 1", "num_slots = 100", "channel.num_antennas = 8",
            "channel.regime.0.doppler_norm = 0.05",
        )
        with pytest.raises(ConfigError, match="pretrain"):
            parse_scenario_config(text)

    def test_index_gap_rejected(self):
        text = MINIMAL + with_lines(
            "channel.regime.2.start_slot = 50",
            "channel.regime.2.doppler_norm = 0.1",
        )
        with pytest.raises(ConfigError, match="indices must be 0..n-1"):
            parse_scenario_config(text)

    def test_later_regime_needs_explicit_start(self):
        text = MINIMAL + "channel.regime.1.doppler_norm = 0.1\n"
        with pytest.raises(ConfigError, match="missing required key"):
            parse_scenario_config(text)

    def test_regime_starts_must_increase(self):
        text = MINIMAL + with_lines(
            "channel.regime.1.start_slot = 0",
            "channel.regime.1.doppler_norm = 0.1",
        )
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_scenario_config(text)

    def test_first_regime_start_pinned_to_zero(self):
        text = MINIMAL.replace(
            "channel.regime.0.doppler_norm = 0.05",
            "channel.regime.0.start_slot = 5\nchannel.regime.0.doppler_norm = 0.05",
        )
        with pytest.raises(ConfigError, match="start_slot must be 0"):
            parse_scenario_config(text)

    def test_regime_beyond_run_rejected(self):
        text = MINIMAL + with_lines(
            "channel.regime.1.start_slot = 200",
            "channel.regime.1.doppler_norm = 0.1",
        )
        with pytest.raises(ConfigError, match="at or beyond num_slots"):
            parse_scenario_config(text)

    def test_pretrain_window_inside_run(self):
        text = MINIMAL.replace("pretrain.0.end_slot = 64", "pretrain.0.end_slot = 300")
        with pytest.raises(ConfigError, match="must lie"):
            parse_scenario_config(text)

    def test_pretrain_window_long_enough(self):
        text = MINIMAL.replace("pretrain.0.end_slot = 64", "pretrain.0.end_slot = 12")
        with pytest.raises(ConfigError, match="too.*short"):
            parse_scenario_config(text)

    def test_equal_pretrain_windows_rejected(self):
        """Equal windows would train one model twice, and its second store
        would fail mid-run."""
        text = MINIMAL + with_lines("pretrain.1.start_slot = 0", "pretrain.1.end_slot = 64")
        with pytest.raises(ConfigError, match="pretrain windows must differ"):
            parse_scenario_config(text)

    def test_snr_override_inside_run(self):
        text = MINIMAL + with_lines(
            "channel.snr_override.0.start_slot = 900",
            "channel.snr_override.0.mean_snr_db = 0",
        )
        with pytest.raises(ConfigError, match="outside the run"):
            parse_scenario_config(text)

    def test_snr_overrides_must_increase(self):
        text = MINIMAL + with_lines(
            "channel.snr_override.0.start_slot = 50",
            "channel.snr_override.0.mean_snr_db = 0",
            "channel.snr_override.1.start_slot = 50",
            "channel.snr_override.1.mean_snr_db = 10",
        )
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_scenario_config(text)

    @pytest.mark.parametrize(
        "num_slots, num_antennas, schedule",
        [
            (200, 8, []),
            (200, 8, [(5, 0.05)]),
            (200, 8, [(0, 0.05), (100, 0.1), (100, 0.2)]),
            (200, 8, [(0, 0.05), (200, 0.1)]),
            (200, 8, [(0, 0.05), (250, 0.1)]),
            (0, 8, [(0, 0.05)]),
            (200, 1, [(0, 0.05)]),
            (200, 8, [(0, 0.05), (100, 0.5)]),
        ],
        ids=["empty", "first-start", "not-increasing", "start-at-end", "start-beyond",
             "no-slots", "one-antenna", "bad-regime"],
    )
    def test_schedule_faults_raise_one_message(self, num_slots, num_antennas, schedule):
        """generate_trace and the config share one schedule check: a fault
        raises ValueError from the one and ConfigError from the other, with
        the same message."""
        regimes = [(start, ChannelRegime(f"r{i}", 1, doppler, 0.9, math.inf))
                   for i, (start, doppler) in enumerate(schedule)]
        lines = ["seed = 1", f"num_slots = {num_slots}", f"channel.num_antennas = {num_antennas}",
                 "pretrain.0.start_slot = 0", "pretrain.0.end_slot = 64"]
        for i, (start, regime) in enumerate(regimes):
            lines += [f"channel.regime.{i}.start_slot = {start}",
                      f"channel.regime.{i}.regime_id = {regime.regime_id}",
                      f"channel.regime.{i}.num_paths = {regime.num_paths}",
                      f"channel.regime.{i}.doppler_norm = {regime.doppler_norm}"]
        with pytest.raises(ValueError) as trace_error:
            generate_trace(regimes, num_slots, num_antennas, 1)
        with pytest.raises(ConfigError) as config_error:
            parse_scenario_config(with_lines(*lines))
        assert str(config_error.value) == str(trace_error.value)

    def test_antenna_floor(self):
        text = MINIMAL.replace("channel.num_antennas = 8", "channel.num_antennas = 1")
        with pytest.raises(ConfigError, match="at least 2"):
            parse_scenario_config(text)

    def test_policy_threshold_order_enforced(self):
        text = MINIMAL + "policy.delta_low = 0.5\n"
        with pytest.raises(ConfigError):
            parse_scenario_config(text)

    def test_bad_monitoring_mode(self):
        text = MINIMAL + "monitoring.mode = Type9\n"
        with pytest.raises(ConfigError, match="Type1/Type2/Type3"):
            parse_scenario_config(text)


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        cfg = load_scenario_config(str(path))
        assert cfg.num_slots == 200

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_scenario_config(str(tmp_path / "absent.cfg"))
