"""UE-assisted model monitoring.

Three report formats with different air-interface cost: a 1-bit
performance flag computed at the UE, a full report of predicted and
ground-truth precoders compared at the gNB, and a quantized metric
value compared at the gNB. All three feed the same run-length drift
detector: a counter that increments while the monitored value breaches
the threshold and raises a single alarm per breach episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kpi import sgcs

BITS_PER_REAL = 64


class MonitoringMode(str, Enum):
    TYPE1 = "Type1"
    TYPE2 = "Type2"
    TYPE3 = "Type3"


@dataclass(frozen=True)
class MonitoringConfig:
    """Knobs for one monitoring session.

    eval_period_slots may be math.inf (not -inf), the sentinel for
    monitoring switched off. gt_slot_offset is the lag between the slot a
    prediction applies to and the slot whose measurement serves as
    ground truth for it.
    """

    mode: MonitoringMode = MonitoringMode.TYPE1
    threshold_gamma: float = 0.8
    n_consec: int = 3
    quant_bits: int = 8
    gt_slot_offset: int = 0
    eval_period_slots: float = 40.0

    def validate(self) -> None:
        if not 0.0 < self.threshold_gamma < 1.0:
            raise ValueError("threshold_gamma must lie in (0, 1)")
        if self.n_consec < 1:
            raise ValueError("n_consec must be a positive integer")
        if not 1 <= self.quant_bits <= 16:
            raise ValueError("quant_bits must lie in [1, 16]")
        if self.gt_slot_offset < 0:
            raise ValueError("gt_slot_offset must be non-negative")
        period = self.eval_period_slots
        if period != math.inf and not (period >= 1 and period == int(period)):
            raise ValueError("eval_period_slots must be a positive integer or inf")


def precoder_report_bits(num_antennas: int) -> int:
    """Cost of one unquantized precoder: two 64-bit reals per entry."""
    return num_antennas * 2 * BITS_PER_REAL


def report_overhead_bits(mode: MonitoringMode, num_antennas: int, quant_bits: int = 8) -> int:
    if mode is MonitoringMode.TYPE1:
        return 1
    if mode is MonitoringMode.TYPE2:
        return 2 * precoder_report_bits(num_antennas)
    return quant_bits


def quantize_metric(value: float, bits: int) -> int:
    """Uniform code over [0, 1]: code = round(value * (2^bits - 1))."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"metric value {value!r} outside [0, 1]")
    return int(round(value * ((1 << bits) - 1)))


def dequantize_metric(code: int, bits: int) -> float:
    levels = (1 << bits) - 1
    if not 0 <= code <= levels:
        raise ValueError(f"code {code} outside [0, {levels}]")
    return code / levels


class ThresholdWatch:
    """Run-length breach counter with rising-edge alarm semantics.

    The counter increments on each breached observation and resets to
    zero on a clean one. The flag is level-triggered (counter >= n),
    the alarm fires only on the transition n-1 -> n, and acknowledge()
    zeroes the counter so a recovery episode starts fresh. ``clean``
    counts the run of observations at or above the threshold; a NaN
    is neither breached nor clean and ends both runs.
    """

    def __init__(self, threshold: float, n_consec: int) -> None:
        if n_consec < 1:
            raise ValueError("n_consec must be a positive integer")
        self.threshold = float(threshold)
        self.n_consec = int(n_consec)
        self.count = 0
        self.clean = 0

    def observe(self, value: float) -> tuple[bool, bool]:
        """Returns (flag, rising_edge) for one observation; a value
        below the threshold is a breach."""
        self.count = self.count + 1 if value < self.threshold else 0
        self.clean = self.clean + 1 if value >= self.threshold else 0
        flag = self.count >= self.n_consec
        rising = self.count == self.n_consec
        return flag, rising

    def acknowledge(self) -> None:
        self.count = self.clean = 0


@dataclass
class MonitoringSession:
    """Mutable per-functionality monitoring state.

    Owns the run-length watch for whichever mode the config selects;
    the controller calls acknowledge() whenever it executes an action
    so the episode counter restarts.
    """

    cfg: MonitoringConfig
    watch: ThresholdWatch = field(init=False)

    def __post_init__(self) -> None:
        self.cfg.validate()
        self.watch = ThresholdWatch(self.cfg.threshold_gamma, self.cfg.n_consec)

    def acknowledge(self) -> None:
        self.watch.acknowledge()

    def evaluate(
        self, predicted: np.ndarray, ground_truth: np.ndarray
    ) -> tuple[int, float, int, bool]:
        """Monitor one pair of a predicted and a ground-truth precoder.

        The sgcs of the pair is computed once; the mode decides only what
        crosses the air and so which value the gNB sees. Type1 compares at
        the UE and sends the 1-bit level flag, Type2 sends both precoders,
        Type3 sends the quantized metric and the gNB sees it dequantized.
        Returns the report's overhead bits, the gNB-visible value, perf_bad
        (Type1: the reported flag; Type2/3: 1 if the seen value breaches the
        threshold) and whether the run-length watch raises its alarm, on its
        rising edge.
        """
        mode, bits = self.cfg.mode, self.cfg.quant_bits
        value = min(sgcs(predicted, ground_truth), 1.0)  # an exact prediction may round past 1
        if mode is MonitoringMode.TYPE1 and not 0.0 <= value <= 1.0:
            raise ValueError(f"sgcs value {value!r} outside [0, 1]")
        if mode is MonitoringMode.TYPE3:
            value = dequantize_metric(quantize_metric(value, bits), bits)
        flag, rising = self.watch.observe(value)
        perf_bad = int(flag if mode is MonitoringMode.TYPE1 else self.watch.count > 0)
        return report_overhead_bits(mode, len(predicted), bits), value, perf_bad, rising


def evaluation_slots(num_slots: int, cfg: MonitoringConfig, warmup_slots: int = 0) -> list[int]:
    """Slots on which monitoring runs: multiples of the period, past warmup."""
    if math.isinf(cfg.eval_period_slots):
        return []
    period = int(cfg.eval_period_slots)
    return [t for t in range(num_slots) if t % period == 0 and t >= warmup_slots]

