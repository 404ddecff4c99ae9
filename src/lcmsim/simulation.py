"""Slot-driven closed-loop simulation.

Each slot: the environment advances, the UE measures, the active model
predicts (or the legacy codebook path reports while in fallback), the
gNB applies the precoder that targeted this slot, and on evaluation
slots monitoring runs, may raise an alarm, and the management loop
decides and executes an action. Fully deterministic given the config.

Only evaluation slots change the loop's state, so the loop steps from one
to the next, with stacked kernels bit-identical to per-slot calls.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import CsiMeasurements, dft_codebook, generate_trace, measure_csi
from .config import ScenarioConfig
from .controller import (
    ActionKind,
    ControlAction,
    ControlEvent,
    DecisionInputs,
    EventKind,
    ExecutionContext,
    InferenceAgent,
    LoopState,
    decide,
    decide_reactivation,
    execute,
    legacy_beams,
    legacy_csi_report,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    legacy_csi_reports,
    transition,
)
from .kpi import (
    derive_input_descriptor,
    descriptor_divergence,
    lag1_terms,
    misalignment_divergence,
    nmse_rows,
    sgcs,
    sgcs_rows,
)
from .models import (
    ModelPackage,
    PredictorConfig,
    fit_adaptation_delta,
    predict_csi,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    predict_csi_rows,
    train_predictor,
)
from .monitoring import MonitoringSession, evaluation_slots
from .registry import ModelRegistry

__all__ = [
    "EventLogRecord",
    "MetricsRow",
    "RunResult",
    "METRICS_HEADER",
    "run_scenario",
    "write_metrics",
    "write_events",
    "simulation_warmup",
]

METRICS_HEADER = (
    "slot,sgcs,nmse,loop_state,active_model_id,active_model_version,"
    "perf_bad,action,descriptor_divergence,monitor_overhead_bits"
)
# A block of slots ends at every evaluation slot and at least every this
# many slots, which bounds the stacked kernels' temporaries; what was
# applied is scored a chunk of this many slots at a time.
_BLOCK_SLOTS = 128

@dataclass(frozen=True)
class EventLogRecord:
    """One append-only audit line: slot, source module, kind, payload."""

    slot: int
    source: str
    kind: str
    payload: tuple[tuple[str, str], ...] = ()

    def format(self) -> str:
        parts = [f"slot={self.slot}", f"source={self.source}", f"kind={self.kind}"]
        for key, value in self.payload:
            parts.append(f"{key}={_sanitize(value)}")
        return " ".join(parts)


def _sanitize(value: str) -> str:
    return "_".join(str(value).split())


# One CSV row: the slot, then its fields as text, empty where there is no value.
MetricsRow = namedtuple("MetricsRow", METRICS_HEADER.split(","))


@dataclass
class RunResult:
    lines: list[str]  # metrics.csv body, one line per slot
    events: list[EventLogRecord]
    summary: dict

    @property
    def rows(self) -> list[MetricsRow]:
        return [MetricsRow(int(slot), *rest) for slot, *rest in (r.split(",") for r in self.lines)]

    def metrics_text(self) -> str:
        return "\n".join([METRICS_HEADER, *self.lines]) + "\n"

    def events_text(self) -> str:
        return "".join(event.format() + "\n" for event in self.events)


def simulation_warmup(config: ScenarioConfig) -> int:
    """First slot eligible for monitoring: the prediction pipeline must
    be full and a whole descriptor window must exist."""
    pipeline = config.predictor_order - 1 + config.predictor_horizon
    return max(pipeline, config.policy.descriptor_window_slots)


def _pretrain_models(
    config: ScenarioConfig,
    trace,
    measurements: CsiMeasurements,
    registry: ModelRegistry,
) -> list[ModelPackage]:
    """Train and store one predictor per pretrain window.

    Windows are slices of the run's own measurements, so the stored
    input descriptors genuinely describe the slots their regime occupies.
    """
    packages = []
    pcfg = PredictorConfig(config.predictor_order, config.predictor_horizon)
    for spec in config.pretrain:
        package = train_predictor(
            measurements.window(spec.start_slot, spec.end_slot),
            pcfg,
            codebook=trace.beam_codebook,
            beam_powers=trace.per_beam_power[spec.start_slot : spec.end_slot],
        )
        registry.store(package, stored_at_slot=0)
        packages.append(package)
    return packages


class _Loop:
    """Mutable state of one scenario run."""

    def __init__(self, config: ScenarioConfig, registry_root: str):
        config.validate()
        self.config = config
        self.codebook = dft_codebook(config.num_antennas)
        self.beams = legacy_beams(self.codebook)
        trace = generate_trace(
            config.regime_schedule,
            config.num_slots,
            config.num_antennas,
            self.codebook,
            config.seed,
        )
        for start, snr_db in config.snr_overrides:
            trace.snr_db[start:] = snr_db
        self.trace = trace
        # Measurements depend only on (trace, seed, slot), so the run
        # takes them all at once: row t of `measured` is slot t's.
        self.measurements = measure_csi(
            trace.true_precoders, trace.snr_db, np.arange(config.num_slots), config.seed
        )
        self.measured = self.measurements.precoders
        # lag_terms[t] pairs slots t and t+1; descriptor windows slice it.
        self.lag_terms = lag1_terms(self.measured, trace.snr_db.tolist())
        self.registry = ModelRegistry(registry_root)
        self.agent = InferenceAgent()
        self.session = MonitoringSession(config.monitoring)
        self.policy = config.policy
        self.tag = f"csi-pred-h{config.predictor_horizon}"
        self.state = LoopState.STABLE
        self.events: list[EventLogRecord] = []
        self.lines: list[str] = []
        self.achieved: list[float] = []
        self.overhead_bits = 0
        # Adaptation deltas draw on the same recent-history budget as a
        # retrain; the short descriptor window excites too few directions
        # for a stable correction fit.
        self.history_window = max(
            self.policy.min_train_samples, 4 * self.policy.descriptor_window_slots
        )
        # A delta fits the latest history_window slots applied from the model
        # since the last activation, pairing prediction and measurement; only
        # fallback stops predictions and it ends in an activation, so they run on.
        self.pairs_from = 0
        # By target slot t: from_model[t] marks a model prediction, pending until
        # t is applied, in predicted[t % ring], a ring that outlasts every read (a
        # chunk, monitoring lag or pairs behind the newest write, a horizon ahead).
        # legacy_beam[t] is the beam reported in fallback, or -1.
        span = config.num_slots + config.predictor_horizon
        lag = max(_BLOCK_SLOTS, config.monitoring.gt_slot_offset + 1, self.history_window)
        self.ring = lag + config.predictor_horizon
        self.predicted = np.empty((self.ring, config.num_antennas), dtype=np.complex128)
        self.from_model = np.zeros(span, dtype=bool)
        self.legacy_beam = np.full(span, -1)
        self.eval_counter = 0
        self.last_action_kind: ActionKind | None = None
        self.last_action_eval: int | None = None
        self.good_streak = 0
        self.alarm_count = 0
        self.action_counts: dict[str, int] = {}
        self.eval_set = set(
            evaluation_slots(config.num_slots, config.monitoring, simulation_warmup(config))
        )

    # -- logging helpers --------------------------------------------

    def log(self, slot: int, source: str, kind: str, **payload: str) -> None:
        self.events.append(
            EventLogRecord(slot=slot, source=source, kind=kind, payload=tuple(payload.items()))
        )

    def log_transition(self, slot: int, event: ControlEvent) -> None:
        before = self.state
        self.state = transition(self.state, event)
        if self.state is not before:
            self.log(
                slot,
                "controller",
                "StateTransition",
                frm=before.value,
                to=self.state.value,
                on=event.kind.value,
            )

    # -- capabilities handed to execute() ---------------------------

    def _retrain(self, slot: int) -> ModelPackage:
        start = max(0, slot + 1 - self.history_window)
        return train_predictor(
            self.measurements.window(start, slot + 1),
            PredictorConfig(self.config.predictor_order, self.config.predictor_horizon),
            codebook=self.codebook,
            beam_powers=self.trace.per_beam_power[start : slot + 1],
        )

    def _fit_delta(self, slot: int, base: ModelPackage, rank: int):
        applied = np.flatnonzero(self.from_model[self.pairs_from : slot + 1]) + self.pairs_from
        slots = applied[-self.history_window :]
        pairs = zip(self.predicted[slots % self.ring], self.measured[slots])
        return fit_adaptation_delta(base, list(pairs), rank)

    def context(self, slot: int) -> ExecutionContext:
        return ExecutionContext(
            registry=self.registry,
            agent=self.agent,
            functionality_tag=self.tag,
            retrain=lambda: self._retrain(slot),
            fit_delta=lambda base, rank: self._fit_delta(slot, base, rank),
            delta_rank=self.policy.delta_rank,
        )

    # -- per-block stages --------------------------------------------

    def report(self, lo: int, stop: int) -> None:
        """Report slots lo..stop-1 by the block's route: legacy beams in
        fallback, else the active predictor once its window is full."""
        horizon = self.config.predictor_horizon
        if self.agent.fallback:
            beams = legacy_csi_reports(self.measured[lo:stop], self.beams)
            self.legacy_beam[lo + horizon : stop + horizon] = beams
        elif self.agent.predictor is not None:
            first = max(lo, self.config.predictor_order - 1)
            if first < stop:
                targets = np.arange(first + horizon, stop + horizon)
                self.predicted[targets % self.ring] = predict_csi_rows(
                    self.agent.predictor, self.measured, targets - horizon
                )
                self.from_model[first + horizon : stop + horizon] = True

    def write_lines(self, lo: int, stop: int, columns: list[str]) -> None:
        """Score what was applied at slots lo..stop-1 and add their metrics
        lines; ``columns`` holds each slot's columns after sgcs and nmse."""
        from_model = self.from_model[lo:stop]
        beams = self.legacy_beam[lo:stop]
        hit = np.flatnonzero(from_model | (beams >= 0))
        slots = lo + hit
        vectors = np.where(
            from_model[hit, np.newaxis], self.predicted[slots % self.ring], self.beams[beams[hit]]
        )
        truth = self.trace.true_precoders[slots]
        achieved = sgcs_rows(vectors, truth).tolist()
        self.achieved += achieved
        cells = [","] * (stop - lo)
        for i, a, b in zip(hit.tolist(), achieved, nmse_rows(vectors, truth).tolist()):
            cells[i] = f"{a!r},{b!r}"
        self.lines += [f"{t},{c},{s}" for t, c, s in zip(range(lo, stop), cells, columns)]

    def state_columns(self, monitored: str = ",,,") -> str:
        """The metrics columns after sgcs and nmse, as the loop stands."""
        desc = self.agent.active_model and self.agent.active_model.descriptor
        model = f"{desc.model_id},{desc.model_version}" if desc else ","
        return f"{self.state.value},{model},{monitored}"

    def current_descriptor(self, slot: int):
        start = slot + 1 - min(self.policy.descriptor_window_slots, slot + 1)
        return derive_input_descriptor(
            self.measurements.window(start, slot + 1),
            self.codebook,
            self.trace.per_beam_power[start : slot + 1],
            self.lag_terms[start:slot],
        )

    def issue(self, slot: int, action: ControlAction) -> str:
        """Log, execute and acknowledge one action; returns its name."""
        self.log(slot, "controller", "ActionIssued", action=action.kind.value,
                 **{k: str(v) for k, v in sorted(action.rationale.items())})
        self.log_transition(
            slot, ControlEvent(EventKind.ACTION_ISSUED, slot, action_kind=action.kind)
        )
        follow = execute(action, self.context(slot), slot)
        if action.kind is ActionKind.FALLBACK:
            self.from_model[slot + 1 :] = False  # drop pending predictions
        if follow is not None:
            if follow.kind is EventKind.MODEL_ACTIVATED:
                self.log(slot, "controller", "ModelActivated", target=follow.detail)
                self.pairs_from = slot + 1
            elif follow.kind is EventKind.ACTION_FAILED:
                self.log(
                    slot,
                    "controller",
                    "ActionFailed",
                    action=follow.action_kind.value,
                    reason=follow.detail,
                )
            self.log_transition(slot, follow)
        self.session.acknowledge()
        self.good_streak = 0
        self.last_action_kind = action.kind
        self.last_action_eval = self.eval_counter
        name = action.kind.value
        self.action_counts[name] = self.action_counts.get(name, 0) + 1
        return name

    def run_decision(self, slot: int, divergence: float, misalignment: float, descriptor) -> str:
        active = self.agent.active_model.descriptor
        evals_since = (
            self.eval_counter - self.last_action_eval
            if self.last_action_eval is not None
            else 10**9
        )
        inputs = DecisionInputs(
            slot_index=slot,
            current_descriptor=descriptor,
            active_descriptor=active.input_descriptor,
            divergence=divergence,
            misalignment=misalignment,
            mean_snr_db=descriptor.mean_snr_db,
            active_model_id=active.model_id,
            active_model_version=active.model_version,
            buffered_samples=slot + 1,
            last_action_kind=self.last_action_kind,
            evals_since_last_action=evals_since,
        )
        return self.issue(slot, decide(inputs, self.policy, self.registry))

    def monitor(self, slot: int) -> dict[str, str]:
        """Run one evaluation; returns the metrics columns it fills, by name."""
        descriptor = self.current_descriptor(slot)
        self.eval_counter += 1
        monitored = dict.fromkeys(METRICS_HEADER.split(",")[-4:], "")

        if self.agent.fallback:
            action = decide_reactivation(descriptor, self.policy, self.registry, slot)
            if action is not None:
                monitored["action"] = self.issue(slot, action)
            return monitored

        target = slot - self.config.monitoring.gt_slot_offset
        if target < 0 or not self.from_model[target]:
            return monitored
        predicted = self.predicted[target % self.ring]
        ground_truth = self.measured[target]
        ue_value = sgcs(predicted, ground_truth)
        report, gnb_value, alarm = self.session.evaluate(
            slot, sgcs_value=ue_value, predicted=predicted, ground_truth=ground_truth
        )
        if report.perf_bad is not None:
            perf_bad = report.perf_bad
        else:
            perf_bad = int(gnb_value < self.config.monitoring.threshold_gamma)
        monitored["perf_bad"] = str(perf_bad)
        monitored["monitor_overhead_bits"] = str(report.overhead_bits)
        self.overhead_bits += report.overhead_bits
        self.log(
            slot,
            "monitor",
            "MonitoringReport",
            mode=report.mode.value,
            value=repr(float(gnb_value)),
            perf_bad=str(perf_bad),
            overhead_bits=str(report.overhead_bits),
        )

        active_desc = self.agent.active_model.descriptor.input_descriptor
        divergence = descriptor_divergence(descriptor, active_desc)
        misalignment = misalignment_divergence(descriptor, active_desc)
        monitored["descriptor_divergence"] = repr(divergence)

        if gnb_value >= self.config.monitoring.threshold_gamma:
            self.good_streak += 1
            if self.state is LoopState.RECOVERING and self.good_streak >= self.policy.n_recover:
                self.log(slot, "monitor", "KpiRecovered", streak=str(self.good_streak))
                self.log_transition(slot, ControlEvent(EventKind.KPI_RECOVERED, slot))
                self.good_streak = 0
        else:
            self.good_streak = 0

        if alarm is not None:
            self.alarm_count += 1
            self.log(
                slot,
                "monitor",
                "DriftAlarm",
                detector=alarm.source,
                value=repr(alarm.value),
            )
            self.log_transition(
                slot, ControlEvent(EventKind.DRIFT_ALARM, slot, source=alarm.source)
            )
            if self.state is LoopState.DEGRADED:
                monitored["action"] = self.run_decision(slot, divergence, misalignment, descriptor)
        return monitored

    def run(self) -> RunResult:
        packages = _pretrain_models(self.config, self.trace, self.measurements, self.registry)
        for package in packages:
            desc = package.descriptor
            self.log(
                0,
                "registry",
                "ModelStored",
                model_id=desc.model_id,
                version=str(desc.model_version),
                tag=desc.functionality_tag,
            )
        first = packages[0]
        self.registry.activate(first.descriptor.model_id, first.descriptor.model_version)
        self.agent.activate(first)
        self.log(
            0,
            "controller",
            "ModelActivated",
            target=f"{first.descriptor.model_id}:v{first.descriptor.model_version}",
        )

        num_slots = self.config.num_slots
        ends = self.eval_set.union(range(_BLOCK_SLOTS - 1, num_slots, _BLOCK_SLOTS))
        lo = unwritten = 0
        columns: list[str] = []
        for end in sorted(ends | {num_slots - 1}):
            self.report(lo, end + 1)
            columns += [self.state_columns()] * (end + 1 - lo)
            if end in self.eval_set:
                columns[-1] = self.state_columns(",".join(self.monitor(end).values()))
            lo = end + 1
            if lo % _BLOCK_SLOTS == 0 or lo == num_slots:  # scoring changes no state
                self.write_lines(unwritten, lo, columns)
                unwritten, columns = lo, []

        summary = {
            "final_state": self.state.value,
            "slots": self.config.num_slots,
            "alarms": self.alarm_count,
            "actions": dict(sorted(self.action_counts.items())),
            "mean_sgcs": float(np.mean(self.achieved)) if self.achieved else float("nan"),
            "monitor_overhead_bits": self.overhead_bits,
            "evaluations": self.eval_counter,
        }
        return RunResult(lines=self.lines, events=self.events, summary=summary)


def run_scenario(config: ScenarioConfig, registry_root: str) -> RunResult:
    """Execute one scenario; the registry directory must be fresh."""
    return _Loop(config, registry_root).run()


def write_metrics(result: RunResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.metrics_text())


def write_events(result: RunResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.events_text())
