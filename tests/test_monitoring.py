"""Monitoring modes, run-length alarm semantics, and overhead accounting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lcmsim.kpi import sgcs
from lcmsim.monitoring import (
    MonitoringConfig,
    MonitoringMode,
    MonitoringSession,
    ThresholdWatch,
    dequantize_metric,
    evaluation_slots,
    precoder_report_bits,
    quantize_metric,
    report_overhead_bits,
)

GAMMA = 0.8
ABOVE = 0.9
BELOW = 0.5


def window_scan_oracle(values, gamma, n):
    """Flag and alarm decisions derived directly from windows.

    The flag at position i is set iff the n most recent values,
    ending at i, are all below gamma. The alarm at position i fires
    iff those n values are below gamma and the value just before the
    window (if any) is not, so each maximal below-run of length
    r >= n contributes exactly one alarm.
    """
    below = [v < gamma for v in values]
    flags, alarms = [], []
    for i in range(len(values)):
        window_bad = i >= n - 1 and all(below[i - n + 1 : i + 1])
        fresh = i - n < 0 or not below[i - n]
        flags.append(1 if window_bad else 0)
        alarms.append(window_bad and fresh)
    return flags, alarms


def pair_of(value, n=100):
    """A (predicted, ground_truth) pair whose sgcs is k/n for k = round(value * n),
    bit for bit: n ones against k ones, so every sum is exact and the one
    rounding is that of k*k / (n*k). k = 0 gives two orthogonal unit vectors."""
    k = round(value * n)
    if k == 0:
        return tuple(np.eye(2, dtype=complex))
    return np.ones(n, dtype=complex), (np.arange(n) < k).astype(complex)


def run_mode(values, mode=MonitoringMode.TYPE1, gamma=GAMMA, n=3):
    cfg = MonitoringConfig(mode=mode, threshold_gamma=gamma, n_consec=n)
    session = MonitoringSession(cfg)
    flags, alarms = [], []
    for value in values:
        _, _, perf_bad, alarm = session.evaluate(*pair_of(value))
        flags.append(perf_bad)
        alarms.append(alarm)
    return flags, alarms


def check_window_scan_oracle(mode, n):
    """Every above/below pattern of length 8 against the oracle. Type1
    reports the level flag, Type2 and Type3 the breach of the value seen."""
    for pattern in range(256):
        values = [BELOW if (pattern >> i) & 1 else ABOVE for i in range(8)]
        flags, alarms = run_mode(values, mode, n=n)
        want_flags, want_alarms = window_scan_oracle(values, GAMMA, n)
        if mode is not MonitoringMode.TYPE1:
            want_flags = [int(v < GAMMA) for v in values]
        assert flags == want_flags, (pattern, n)
        assert alarms == want_alarms, (pattern, n)


def test_pair_of_has_the_asked_sgcs_bit_for_bit():
    for k in range(101):
        assert sgcs(*pair_of(k / 100)) == k / 100


class TestType1:
    def test_all_good_no_flag_no_alarm(self):
        flags, alarms = run_mode([ABOVE, ABOVE, ABOVE])
        assert flags == [0, 0, 0]
        assert alarms == [False, False, False]

    def test_three_bad_flags_third_and_alarms_once(self):
        flags, alarms = run_mode([BELOW, BELOW, BELOW])
        assert flags == [0, 0, 1]
        assert alarms == [False, False, True]

    def test_reset_in_the_middle_suppresses_flag(self):
        flags, alarms = run_mode([BELOW, BELOW, ABOVE, BELOW])
        assert flags == [0, 0, 0, 0]
        assert not any(alarms)

    def test_flag_stays_level_while_breach_continues(self):
        flags, alarms = run_mode([BELOW] * 6, n=3)
        assert flags == [0, 0, 1, 1, 1, 1]
        assert alarms == [False, False, True, False, False, False]

    def test_acknowledge_restarts_episode(self):
        cfg = MonitoringConfig(mode=MonitoringMode.TYPE1, threshold_gamma=GAMMA, n_consec=2)
        session = MonitoringSession(cfg)
        *_, first = session.evaluate(*pair_of(BELOW))
        *_, second = session.evaluate(*pair_of(BELOW))
        assert first is False and second is True
        session.acknowledge()
        *_, third = session.evaluate(*pair_of(BELOW))
        assert third is False
        *_, fourth = session.evaluate(*pair_of(BELOW))
        assert fourth is True

    def test_reset_between_consecutive_alarms(self):
        rng = np.random.default_rng(11)
        cfg = MonitoringConfig(mode=MonitoringMode.TYPE1, threshold_gamma=GAMMA, n_consec=2)
        session = MonitoringSession(cfg)
        alarm_slots, reset_slots = [], []
        for slot in range(400):
            value = round(float(rng.uniform(0.0, 1.0)) * 100) / 100
            *_, alarm = session.evaluate(*pair_of(value))
            if value >= GAMMA:
                reset_slots.append(slot)
            if alarm:
                alarm_slots.append(slot)
        assert len(alarm_slots) >= 2
        for earlier, later in zip(alarm_slots, alarm_slots[1:]):
            assert any(earlier < r < later for r in reset_slots)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_patterns_match_window_scan_oracle(self, n):
        check_window_scan_oracle(MonitoringMode.TYPE1, n)

    def test_out_of_range_value_rejected(self):
        # The UE compares a value it must hold in [0, 1]; a NaN entry gives a NaN sgcs.
        session = MonitoringSession(MonitoringConfig())
        with pytest.raises(ValueError):
            session.evaluate(np.array([np.nan, 1.0]), np.ones(2))

    def test_alarm_comes_with_the_seen_value(self):
        flags, _ = run_mode([BELOW, BELOW, BELOW], n=3)
        session = MonitoringSession(MonitoringConfig(n_consec=1))
        _, value, _, alarm = session.evaluate(*pair_of(0.25))
        assert (value, alarm) == (0.25, True) and alarm is True
        assert flags[-1] == 1


class TestOneEvaluatePath:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from(list(MonitoringMode)),
        bits=st.integers(1, 16),
        parts=st.lists(
            st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 4), min_size=1, max_size=8
        ),
    )
    def test_value_is_the_seen_metric_and_cost_is_the_report_cost(self, mode, bits, parts):
        p = np.array([a + 1j * b for a, b, _, _ in parts])
        t = np.array([c + 1j * d for _, _, c, d in parts])
        assume(np.vdot(p, p).real > 1e-300 and np.vdot(t, t).real > 1e-300)
        session = MonitoringSession(
            MonitoringConfig(mode=mode, threshold_gamma=GAMMA, n_consec=1, quant_bits=bits)
        )
        s = min(sgcs(p, t), 1.0)
        bits_sent, value, perf_bad, alarm = session.evaluate(p, t)
        if mode is MonitoringMode.TYPE3:
            s = dequantize_metric(quantize_metric(s, bits), bits)
        assert value.hex() == s.hex()
        assert bits_sent == report_overhead_bits(mode, len(p), bits)
        assert perf_bad == int(value < GAMMA) == int(alarm)


    @pytest.mark.parametrize("mode", list(MonitoringMode))
    def test_sgcs_rounded_past_one_is_seen_as_one(self, mode):
        p = np.arange(1, 9) + 1j * np.arange(8, 0, -1)
        t = p * (0.3 + 0.7j)
        assert sgcs(p, t) > 1.0  # the rounding a near-exact prediction meets
        session = MonitoringSession(MonitoringConfig(mode=mode, threshold_gamma=GAMMA))
        _, value, perf_bad, alarm = session.evaluate(p, t)
        assert (value, perf_bad, alarm) == (1.0, 0, False) and alarm is False


class TestCleanStreak:
    def test_counts_clean_values_and_nan_ends_both_runs(self):
        watch = ThresholdWatch(GAMMA, n_consec=2)
        cleans = []
        for value in [ABOVE, GAMMA, BELOW, ABOVE, ABOVE, math.nan, ABOVE]:
            watch.observe(value)
            cleans.append(watch.clean)
        assert cleans == [1, 2, 0, 1, 2, 0, 1]
        watch.observe(BELOW)
        watch.observe(math.nan)
        assert watch.count == watch.clean == 0

    @pytest.mark.parametrize("mode", list(MonitoringMode))
    def test_acknowledge_resets_the_clean_streak(self, mode):
        session = MonitoringSession(MonitoringConfig(mode=mode, threshold_gamma=GAMMA))
        for _ in range(3):
            session.evaluate(*pair_of(ABOVE))
        assert session.watch.clean == 3
        session.acknowledge()
        assert session.watch.clean == 0
        session.evaluate(*pair_of(ABOVE))
        assert session.watch.clean == 1
        session.evaluate(*pair_of(BELOW))
        assert session.watch.clean == 0


class TestType2:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_patterns_match_window_scan_oracle(self, n):
        check_window_scan_oracle(MonitoringMode.TYPE2, n)

    def test_identical_precoders_metric_one_no_alarm(self):
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE2))
        w = np.array([1, 1j, -1, -1j]) / 2.0
        _, value, _, alarm = session.evaluate(w, w)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert alarm is False

    def test_gnb_metric_matches_direct_recomputation(self):
        rng = np.random.default_rng(3)
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE2))
        for _ in range(50):
            a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            _, value, _, _ = session.evaluate(a, b)
            assert value == pytest.approx(sgcs(a, b), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE2))
        with pytest.raises(ValueError):
            session.evaluate(np.ones(4) / 2.0, np.ones(8) / np.sqrt(8))

    def test_alarm_rule_applies_to_gnb_side_value(self):
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE2, n_consec=1))
        w = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        orthogonal = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        _, value, _, alarm = session.evaluate(w, orthogonal)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert alarm is True


class TestType3:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_patterns_match_window_scan_oracle(self, n):
        check_window_scan_oracle(MonitoringMode.TYPE3, n)

    def test_boundary_codes(self):
        assert quantize_metric(1.0, 8) == 255
        assert quantize_metric(0.0, 8) == 0
        for code in (-1, 256):
            with pytest.raises(ValueError, match=f"code {code} outside"):
                dequantize_metric(code, 8)

    def test_dequantization_error_bound(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, size=10_000)
        for value in values:
            code = quantize_metric(float(value), 8)
            assert abs(dequantize_metric(code, 8) - value) <= 1.0 / 510.0 + 1e-15

    def test_round_trip_report_fields(self):
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE3, quant_bits=8))
        bits_sent, dequantized, _, _ = session.evaluate(*pair_of(0.5))
        assert dequantized == quantize_metric(0.5, 8) / 255
        assert bits_sent == 8

    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            quantize_metric(-0.01, 8)
        with pytest.raises(ValueError):
            quantize_metric(1.01, 8)
        session = MonitoringSession(MonitoringConfig(mode=MonitoringMode.TYPE3))
        with pytest.raises(ValueError):
            session.evaluate(np.array([np.nan, 1.0]), np.ones(2))

    def test_agrees_with_type1_away_from_threshold(self):
        """Quantization can only change decisions within a step of gamma."""
        rng = np.random.default_rng(9)
        bits = 4
        step = 1.0 / ((1 << bits) - 1)
        values = np.round(rng.uniform(0.0, 1.0, size=500) * 100) / 100  # pair_of's grid
        cfg1 = MonitoringConfig(mode=MonitoringMode.TYPE1, threshold_gamma=GAMMA, n_consec=2)
        cfg3 = MonitoringConfig(mode=MonitoringMode.TYPE3, threshold_gamma=GAMMA, n_consec=2, quant_bits=bits)
        s1, s3 = MonitoringSession(cfg1), MonitoringSession(cfg3)
        for slot, value in enumerate(values):
            value = float(value)
            *_, alarm1 = s1.evaluate(*pair_of(value))
            *_, alarm3 = s3.evaluate(*pair_of(value))
            below1 = value < GAMMA
            below3 = dequantize_metric(quantize_metric(value, bits), bits) < GAMMA
            if below1 != below3:
                assert abs(value - GAMMA) <= step
            if alarm1 != alarm3:
                # A divergent alarm needs at least one near-threshold value.
                assert any(abs(float(v) - GAMMA) <= step for v in values[: slot + 1])


def monitoring_overhead(num_slots, cfg, num_antennas, warmup_slots=0):
    """Total report bits over a run and the fraction of slots carrying them."""
    slots = evaluation_slots(num_slots, cfg, warmup_slots)
    per_report = report_overhead_bits(cfg.mode, num_antennas, cfg.quant_bits)
    if num_slots <= 0:
        return 0, 0.0
    return per_report * len(slots), len(slots) / num_slots


class TestOverhead:
    def test_per_report_ordering_for_32_antennas(self):
        t1 = report_overhead_bits(MonitoringMode.TYPE1, 32)
        t2 = report_overhead_bits(MonitoringMode.TYPE2, 32)
        t3 = report_overhead_bits(MonitoringMode.TYPE3, 32, quant_bits=8)
        assert t2 > t3 > t1
        assert t1 == 1
        assert t2 == 2 * 32 * 2 * 64
        assert t3 == 8

    def test_precoder_report_bits(self):
        assert precoder_report_bits(32) == 32 * 2 * 64
        assert report_overhead_bits(MonitoringMode.TYPE2, 4) == 2 * precoder_report_bits(4)

    def test_monitoring_off_sentinel(self):
        cfg = MonitoringConfig(eval_period_slots=math.inf)
        total, fraction = monitoring_overhead(1000, cfg, num_antennas=32)
        assert total == 0
        assert fraction == 0.0

    def test_type1_hundred_evaluations_hundred_bits(self):
        cfg = MonitoringConfig(mode=MonitoringMode.TYPE1, eval_period_slots=20)
        total, fraction = monitoring_overhead(2000, cfg, num_antennas=32)
        assert total == 100
        assert fraction == pytest.approx(100 / 2000)

    def test_halving_period_doubles_evaluations(self):
        slow = MonitoringConfig(eval_period_slots=20)
        fast = MonitoringConfig(eval_period_slots=10)
        n_slow = len(evaluation_slots(2000, slow))
        n_fast = len(evaluation_slots(2000, fast))
        assert n_fast == 2 * n_slow

    def test_warmup_excludes_early_slots(self):
        cfg = MonitoringConfig(eval_period_slots=10)
        slots = evaluation_slots(45, cfg, warmup_slots=11)
        assert slots == [20, 30, 40]


class TestConfigAndSchema:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            MonitoringConfig(gt_slot_offset=-1).validate()

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            MonitoringConfig(threshold_gamma=0.0).validate()
        with pytest.raises(ValueError):
            MonitoringConfig(threshold_gamma=1.0).validate()

    def test_quant_bits_bounds(self):
        with pytest.raises(ValueError):
            MonitoringConfig(quant_bits=0).validate()
        with pytest.raises(ValueError):
            MonitoringConfig(quant_bits=17).validate()

    @pytest.mark.parametrize("period", [-math.inf, math.nan, 0, 2.5])
    def test_eval_period_is_a_positive_integer_or_plus_inf(self, period):
        with pytest.raises(ValueError, match="eval_period_slots"):
            MonitoringConfig(eval_period_slots=period).validate()
