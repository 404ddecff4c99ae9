"""Scenario configuration: flat dotted-key text format.

One ``key = value`` assignment per line, ``#`` starts a comment, blank
lines ignored. Every key must be known; parsing fails with the line
number of the first offending entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import ChannelRegime, check_schedule
from .controller import DecisionPolicy
from .errors import ConfigError
from .monitoring import MonitoringConfig, MonitoringMode

__all__ = [
    "PretrainSpec",
    "ScenarioConfig",
    "parse_scenario_config",
    "load_scenario_config",
]


@dataclass(frozen=True)
class PretrainSpec:
    """One model stored in the registry before the run starts.

    Training data is the trace window [start_slot, end_slot), so the
    model's input descriptor genuinely describes the slots where its
    regime is live. The first entry is the initially active model.
    """

    start_slot: int
    end_slot: int


@dataclass
class ScenarioConfig:
    seed: int
    num_slots: int
    num_antennas: int
    regime_schedule: list[tuple[int, ChannelRegime]]
    pretrain: list[PretrainSpec]
    monitoring: MonitoringConfig
    predictor_order: int
    predictor_horizon: int
    policy: DecisionPolicy
    snr_overrides: list[tuple[int, float]] = field(default_factory=list)
    registry_path: str = "registry"
    metrics_path: str = "metrics.csv"
    events_path: str = "events.log"

    def validate(self) -> None:
        try:
            check_schedule(self.regime_schedule, self.num_slots, self.num_antennas)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.pretrain:
            raise ConfigError("at least one pretrain.<i> block is required")
        for spec in self.pretrain:
            if not 0 <= spec.start_slot < spec.end_slot <= self.num_slots:
                raise ConfigError(
                    f"pretrain window [{spec.start_slot}, {spec.end_slot}) must lie "
                    f"inside [0, {self.num_slots}]"
                )
            if spec.end_slot - spec.start_slot < self.predictor_order + self.predictor_horizon + 10:
                raise ConfigError(
                    f"pretrain window of {spec.end_slot - spec.start_slot} slots is too "
                    f"short for order {self.predictor_order}, "
                    f"horizon {self.predictor_horizon}"
                )
        for start, _ in self.snr_overrides:
            if not 0 <= start < self.num_slots:
                raise ConfigError(f"snr_override start_slot {start} outside the run")
        if any(b <= a for (a, _), (b, _) in zip(self.snr_overrides, self.snr_overrides[1:])):
            raise ConfigError("snr_override start slots must be strictly increasing")
        try:
            self.monitoring.validate()
            self.policy.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.predictor_order < 1 or self.predictor_horizon < 1:
            raise ConfigError("predictor.order and predictor.horizon_slots must be positive")


@dataclass
class _KeyTable:
    """Raw assignments with their source lines; tracks consumption so
    leftovers can be reported as unknown keys."""

    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)
    used: set = field(default_factory=set)

    def take(self, key: str, default: str | None = None) -> str | None:
        self.used.add(key)
        return self.values.get(key, default)

    def require(self, key: str, default: str | None = None) -> str:
        value = self.take(key, default)
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        return value

    def int_of(self, key: str, default: int | None = None) -> int:
        raw = self.require(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {raw!r}", self.lines.get(key))

    def float_of(self, key: str, default: float | None = None) -> float:
        raw = self.require(key, None if default is None else repr(default))
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise ConfigError(f"{key} expects a number, got {raw!r}", self.lines.get(key))
        return value

    def snr_of(self, key: str, default: float | None = None) -> float:
        """An SNR in dB: ``inf`` means noiseless, ``-inf`` is refused."""
        value = self.float_of(key, default)
        if value == -math.inf:
            raise ConfigError(f"{key} must be above -inf dB", self.lines.get(key))
        return value

    def indexed_groups(self, prefix: str) -> list[int]:
        """Sorted indices i for which some ``<prefix>.<i>.<field>`` exists."""
        found = set()
        for key in self.values:
            if not key.startswith(prefix + "."):
                continue
            rest = key[len(prefix) + 1 :]
            head = rest.split(".", 1)[0]
            if head.isdigit():
                found.add(int(head))
        indices = sorted(found)
        if indices != list(range(len(indices))):
            raise ConfigError(f"{prefix} indices must be 0..n-1 without gaps")
        return indices

    def unknown(self) -> list[tuple[str, int]]:
        extras = [k for k in self.values if k not in self.used]
        return sorted(((k, self.lines[k]) for k in extras), key=lambda kv: kv[1])


def _scan(text: str) -> _KeyTable:
    table = _KeyTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        if key in table.values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        table.values[key] = value
        table.lines[key] = lineno
    return table


def _parse_regimes(table: _KeyTable) -> list[tuple[int, ChannelRegime]]:
    schedule = []
    for i in table.indexed_groups("channel.regime"):
        base = f"channel.regime.{i}"
        regime = ChannelRegime(
            regime_id=table.take(f"{base}.regime_id", f"regime-{i}"),
            num_paths=table.int_of(f"{base}.num_paths", 6),
            doppler_norm=table.float_of(f"{base}.doppler_norm"),
            angle_spread=table.float_of(f"{base}.angle_spread", 0.9),
            mean_snr_db=table.snr_of(f"{base}.mean_snr_db", math.inf),
        )
        schedule.append((table.int_of(f"{base}.start_slot", 0 if i == 0 else None), regime))
    return schedule


def _parse_pretrain(table: _KeyTable) -> list[PretrainSpec]:
    specs = []
    for i in table.indexed_groups("pretrain"):
        base = f"pretrain.{i}"
        specs.append(
            PretrainSpec(
                start_slot=table.int_of(f"{base}.start_slot"),
                end_slot=table.int_of(f"{base}.end_slot"),
            )
        )
    return specs


def _parse_snr_overrides(table: _KeyTable) -> list[tuple[int, float]]:
    """Measurement-SNR changes decoupled from the regime schedule, so a
    pure link-quality drop never re-seeds the channel process."""
    overrides = []
    for i in table.indexed_groups("channel.snr_override"):
        base = f"channel.snr_override.{i}"
        overrides.append(
            (table.int_of(f"{base}.start_slot"), table.snr_of(f"{base}.mean_snr_db"))
        )
    return overrides


def _parse_monitoring(table: _KeyTable) -> MonitoringConfig:
    mode_raw = table.take("monitoring.mode", "Type1")
    try:
        mode = MonitoringMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"monitoring.mode must be one of Type1/Type2/Type3, got {mode_raw!r}",
            table.lines.get("monitoring.mode"),
        )
    return MonitoringConfig(
        mode=mode,
        threshold_gamma=table.float_of("monitoring.threshold_gamma", 0.8),
        n_consec=table.int_of("monitoring.n_consec", 3),
        quant_bits=table.int_of("monitoring.quant_bits", 8),
        gt_slot_offset=table.int_of("monitoring.gt_slot_offset", 0),
        eval_period_slots=table.float_of("monitoring.eval_period_slots", 40.0),
    )


def _parse_policy(table: _KeyTable) -> DecisionPolicy:
    return DecisionPolicy(
        delta_low=table.float_of("policy.delta_low", 0.05),
        delta_match=table.float_of("policy.delta_match", 0.10),
        delta_delta=table.float_of("policy.delta_delta", 0.25),
        snr_floor_db=table.float_of("policy.snr_floor_db", 5.0),
        cooldown_evals=table.int_of("policy.cooldown_evals", 3),
        n_recover=table.int_of("policy.n_recover", 3),
        min_train_samples=table.int_of("policy.min_train_samples", 64),
        delta_rank=table.int_of("policy.delta_rank", 8),
        descriptor_window_slots=table.int_of("policy.descriptor_window_slots", 40),
    )


def parse_scenario_config(text: str) -> ScenarioConfig:
    table = _scan(text)
    cfg = ScenarioConfig(
        seed=table.int_of("seed"),
        num_slots=table.int_of("num_slots"),
        num_antennas=table.int_of("channel.num_antennas"),
        regime_schedule=_parse_regimes(table),
        pretrain=_parse_pretrain(table),
        monitoring=_parse_monitoring(table),
        snr_overrides=_parse_snr_overrides(table),
        predictor_order=table.int_of("predictor.order", 8),
        predictor_horizon=table.int_of("predictor.horizon_slots", 4),
        policy=_parse_policy(table),
        registry_path=table.take("registry.path", "registry"),
        metrics_path=table.take("output.metrics", "metrics.csv"),
        events_path=table.take("output.events", "events.log"),
    )
    extras = table.unknown()
    if extras:
        key, lineno = extras[0]
        raise ConfigError(f"unknown key {key!r}", lineno)
    cfg.validate()
    return cfg


def load_scenario_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    return parse_scenario_config(text)
