"""Scenario configuration: flat dotted-key text format.

One ``key = value`` assignment per line, ``#`` starts a comment, blank
lines ignored. Every key must be known; parsing fails with the line
number of the first offending entry. The ``policy``, ``monitoring``,
``predictor`` and ``pretrain.<i>`` sections are the fields of the
dataclasses they fill, which own their types and defaults.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .channel import ChannelRegime, check_schedule
from .controller import DecisionPolicy
from .errors import ConfigError, config_checked
from .models import PredictorConfig
from .monitoring import MonitoringConfig

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
    predictor: PredictorConfig
    policy: DecisionPolicy
    snr_overrides: list[tuple[int, float]] = field(default_factory=list)
    registry_path: str = "registry"
    metrics_path: str = "metrics.csv"
    events_path: str = "events.log"

    def validate(self) -> None:
        config_checked(check_schedule, self.regime_schedule, self.num_slots, self.num_antennas)
        if not self.pretrain:
            raise ConfigError("at least one pretrain.<i> block is required")
        for spec in self.pretrain:
            if not 0 <= spec.start_slot < spec.end_slot <= self.num_slots:
                raise ConfigError(
                    f"pretrain window [{spec.start_slot}, {spec.end_slot}) must lie "
                    f"inside [0, {self.num_slots}]"
                )
            if spec.end_slot - spec.start_slot < self.predictor.min_history:
                raise ConfigError(
                    f"pretrain window of {spec.end_slot - spec.start_slot} slots is too "
                    f"short for order {self.predictor.order}, "
                    f"horizon {self.predictor.horizon_slots}"
                )
        if len(set(self.pretrain)) < len(self.pretrain):
            raise ConfigError("pretrain windows must differ: equal windows train the same model")
        for start, _ in self.snr_overrides:
            if not 0 <= start < self.num_slots:
                raise ConfigError(f"snr_override start_slot {start} outside the run")
        if any(b <= a for (a, _), (b, _) in zip(self.snr_overrides, self.snr_overrides[1:])):
            raise ConfigError("snr_override start slots must be strictly increasing")
        for section in (self.monitoring, self.policy, self.predictor):
            config_checked(section.validate)


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

    def value_of(self, key: str, kind: type, default=None):
        """``key`` parsed as ``kind`` (int, float or an Enum), else ``default``.

        NaN and ``-inf`` are refused; ``inf`` stays legal (a noiseless SNR,
        monitoring switched off).
        """
        raw = self.take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        line = self.lines[key]
        if issubclass(kind, Enum):
            try:
                return kind(raw)
            except ValueError:
                names = "/".join(member.value for member in kind)
                raise ConfigError(f"{key} must be one of {names}, got {raw!r}", line) from None
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} expects {noun}, got {raw!r}", line)
        if value == -math.inf:
            raise ConfigError(f"{key} must be above -inf", line)
        return value

    def section(self, cls: type, prefix: str):
        """A ``cls`` dataclass from the ``<prefix>.<field>`` keys, each parsed
        by its field's type; an absent key leaves the field's default."""
        values = {}
        for name, kind, required in _section_fields(cls):
            key = f"{prefix}.{name}"
            if required or key in self.values:
                values[name] = self.value_of(key, kind)
        return cls(**values)

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


@functools.cache  # annotations are resolved once per class, not once per parse
def _section_fields(cls: type) -> list[tuple[str, type, bool]]:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f.default is MISSING) for f in fields(cls)]


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
            num_paths=table.value_of(f"{base}.num_paths", int, 6),
            doppler_norm=table.value_of(f"{base}.doppler_norm", float),
            angle_spread=table.value_of(f"{base}.angle_spread", float, 0.9),
            mean_snr_db=table.value_of(f"{base}.mean_snr_db", float, math.inf),
        )
        schedule.append((table.value_of(f"{base}.start_slot", int, 0 if i == 0 else None), regime))
    return schedule


def _parse_snr_overrides(table: _KeyTable) -> list[tuple[int, float]]:
    """Measurement-SNR changes decoupled from the regime schedule, so a
    pure link-quality drop never re-seeds the channel process."""
    overrides = []
    for i in table.indexed_groups("channel.snr_override"):
        base = f"channel.snr_override.{i}"
        start = table.value_of(f"{base}.start_slot", int)
        overrides.append((start, table.value_of(f"{base}.mean_snr_db", float)))
    return overrides


def parse_scenario_config(text: str) -> ScenarioConfig:
    table = _scan(text)
    cfg = ScenarioConfig(
        seed=table.value_of("seed", int),
        num_slots=table.value_of("num_slots", int),
        num_antennas=table.value_of("channel.num_antennas", int),
        regime_schedule=_parse_regimes(table),
        pretrain=[
            table.section(PretrainSpec, f"pretrain.{i}") for i in table.indexed_groups("pretrain")
        ],
        monitoring=table.section(MonitoringConfig, "monitoring"),
        snr_overrides=_parse_snr_overrides(table),
        predictor=table.section(PredictorConfig, "predictor"),
        policy=table.section(DecisionPolicy, "policy"),
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
