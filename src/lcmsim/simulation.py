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

from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from . import blas
from .channel import dft_codebook, generate_trace, measure_csi
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
    activate,
    decide,
    decide_reactivation,
    execute,
    legacy_beams,
    legacy_csi_report,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    legacy_csi_reports,
    transition,
)
from .errors import ConfigError
from .kpi import (
    derive_input_descriptor,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    descriptor_divergence,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    lag1_terms,
    nmse_rows,
    sgcs,  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
    sgcs_rows,
    window_descriptors,
)
from .models import (
    ModelPackage,
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
# What a slot applies: nothing, the active model's prediction, or a legacy beam.
_NONE, _MODEL, _LEGACY = 0, 1, 2

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
    pipeline = config.predictor.order - 1 + config.predictor.horizon_slots
    return max(pipeline, config.policy.descriptor_window_slots)


class _Loop:
    """Mutable state of one scenario run."""

    def __init__(self, config: ScenarioConfig, registry_root: str, fit_threads: int | None = None):
        config.validate()
        self.registry = ModelRegistry(registry_root)
        if self.registry.entries():  # pretraining would store over them
            raise ConfigError(f"registry {registry_root} already holds models; use a fresh one")
        self.config = config
        # The BLAS thread count of the ridge and delta fits, whose bits depend
        # on it (None: whatever the count is); run_scenario runs the rest at one.
        self.fit_threads = fit_threads
        self.beams = legacy_beams(dft_codebook(config.num_antennas))
        trace = generate_trace(
            config.regime_schedule, config.num_slots, config.num_antennas, config.seed
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
        # So do the evaluation slots' input descriptors: row i is the window ending at the i-th.
        evals = evaluation_slots(config.num_slots, config.monitoring, simulation_warmup(config))
        self.eval_set, window = set(evals), config.policy.descriptor_window_slots
        self.descriptors = window_descriptors(
            trace.per_beam_power, self.measurements.snr_db,
            lag1_terms(self.measured, trace.snr_db.tolist()),  # term t pairs slots t and t+1
            [t + 1 - min(window, t + 1) for t in evals], [t + 1 for t in evals],
        )
        # (active model's descriptor, misalignments, divergences) of every evaluation
        self.diverged = None, [], []
        self.agent = InferenceAgent()
        self.session = MonitoringSession(config.monitoring)
        self.policy = config.policy
        self.state = LoopState.STABLE
        self.events: list[EventLogRecord] = []
        self.lines: list[str] = []
        self.achieved: list[float] = []
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
        # By target slot t: route[t] says what t applies (_NONE, _MODEL or
        # _LEGACY), pending until t is applied, in applied[t % ring], a ring that
        # outlasts every read (a chunk, monitoring lag or pairs behind the newest
        # write, a horizon ahead; no read reaches back past slot 0, so no further
        # than the run's length).
        lag = max(_BLOCK_SLOTS, config.monitoring.gt_slot_offset + 1, self.history_window)
        self.ring = min(lag, config.num_slots) + config.predictor.horizon_slots
        self.applied = np.empty((self.ring, config.num_antennas), dtype=np.complex128)
        self.route = np.zeros(config.num_slots + config.predictor.horizon_slots, dtype=np.int8)
        self.eval_counter = 0
        self.last_action_kind: ActionKind | None = None
        self.last_action_eval = 0  # eval_counter at the last action; unread until there is one

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

    def _train(self, start: int, stop: int) -> ModelPackage:
        """Train a predictor on the run's own measurements of slots
        start..stop-1, so its input descriptor describes those slots."""
        return train_predictor(
            self.measurements.window(start, stop),
            self.config.predictor,
            beam_powers=self.trace.per_beam_power[start:stop],
        )

    def _retrain(self, slot: int) -> ModelPackage:
        with blas.limit(self.fit_threads):
            return self._train(max(0, slot + 1 - self.history_window), slot + 1)

    def _fit_delta(self, slot: int, base: ModelPackage):
        applied = np.flatnonzero(self.route[self.pairs_from : slot + 1] == _MODEL) + self.pairs_from
        slots = applied[-self.history_window :]
        pairs = zip(self.applied[slots % self.ring], self.measured[slots])
        with blas.limit(self.fit_threads):
            return fit_adaptation_delta(base, list(pairs), self.policy.delta_rank)

    def context(self, slot: int) -> ExecutionContext:
        return ExecutionContext(
            registry=self.registry,
            agent=self.agent,
            retrain=lambda: self._retrain(slot),
            fit_delta=lambda base: self._fit_delta(slot, base),
        )

    # -- per-block stages --------------------------------------------

    def report(self, lo: int, stop: int) -> None:
        """Report slots lo..stop-1 by the block's route: legacy beams in
        fallback, else the active predictor once its window is full."""
        horizon = self.config.predictor.horizon_slots
        first = lo if self.agent.fallback else max(lo, self.config.predictor.order - 1)
        if first >= stop:
            return
        targets = np.arange(first + horizon, stop + horizon)
        if self.agent.fallback:  # a legacy report applies its beam's row
            route = _LEGACY
            vectors = self.beams[legacy_csi_reports(self.measured[first:stop], self.beams)]
        else:
            route = _MODEL
            vectors = predict_csi_rows(self.agent.predictor, self.measured, targets - horizon)
        self.applied[targets % self.ring] = vectors
        self.route[first + horizon : stop + horizon] = route

    def write_lines(self, lo: int, stop: int, columns: list[str]) -> None:
        """Score what was applied at slots lo..stop-1 and add their metrics
        lines; ``columns`` holds each slot's columns after sgcs and nmse."""
        hit = np.flatnonzero(self.route[lo:stop])
        slots = lo + hit
        vectors = self.applied[slots % self.ring]
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

    def divergences(self, index: int) -> tuple[float, float]:
        """Misalignment and divergence of the index-th evaluation's descriptor
        from the active model's; every evaluation is scored once per active
        descriptor, which a DeltaUpdate keeps."""
        reference = self.agent.active_model.descriptor.input_descriptor
        if reference is not self.diverged[0]:
            scored = self.descriptors.divergences(reference)
            self.diverged = reference, *(a.tolist() for a in scored)
        return self.diverged[1][index], self.diverged[2][index]

    def issue(self, slot: int, action: ControlAction) -> str:
        """Log, execute and acknowledge one action; returns its name."""
        self.log(slot, "controller", "ActionIssued", action=action.kind.value,
                 **{k: str(v) for k, v in sorted(action.rationale.items())})
        self.log_transition(slot, ControlEvent(EventKind.ACTION_ISSUED, action_kind=action.kind))
        follow = execute(action, self.context(slot), slot)
        if action.kind is ActionKind.FALLBACK:
            self.route[slot + 1 :] = _NONE  # drop pending predictions
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
        self.last_action_kind = action.kind
        self.last_action_eval = self.eval_counter
        return action.kind.value

    def run_decision(self, slot: int, index: int) -> str:
        active = self.agent.active_model.descriptor
        misalignment, divergence = self.divergences(index)
        inputs = DecisionInputs(
            current_descriptor=self.descriptors[index],
            divergence=divergence,
            misalignment=misalignment,
            active_model_id=active.model_id,
            active_model_version=active.model_version,
            buffered_samples=slot + 1,
            last_action_kind=self.last_action_kind,
            evals_since_last_action=self.eval_counter - self.last_action_eval,
        )
        return self.issue(slot, decide(inputs, self.policy, self.registry))

    def monitor(self, slot: int) -> dict[str, str]:
        """Run one evaluation; returns the metrics columns it fills, by name."""
        index = self.eval_counter  # of the evaluation, and of its descriptor row
        self.eval_counter += 1
        monitored = dict.fromkeys(METRICS_HEADER.split(",")[-4:], "")

        if self.agent.fallback:
            action = decide_reactivation(self.descriptors[index], self.policy, self.registry)
            if action is not None:
                monitored["action"] = self.issue(slot, action)
            return monitored

        target = slot - self.config.monitoring.gt_slot_offset
        if target < 0 or self.route[target] != _MODEL:
            return monitored
        bits, gnb_value, perf_bad, rising = self.session.evaluate(
            self.applied[target % self.ring], self.measured[target]
        )
        monitored["perf_bad"] = str(perf_bad)
        monitored["monitor_overhead_bits"] = str(bits)
        self.log(
            slot,
            "monitor",
            "MonitoringReport",
            mode=self.config.monitoring.mode.value,
            value=repr(float(gnb_value)),
            perf_bad=str(perf_bad),
            overhead_bits=str(bits),
        )

        monitored["descriptor_divergence"] = repr(self.divergences(index)[1])

        streak = self.session.watch.clean
        if self.state is LoopState.RECOVERING and streak >= self.policy.n_recover:
            self.log(slot, "monitor", "KpiRecovered", streak=str(streak))
            self.log_transition(slot, ControlEvent(EventKind.KPI_RECOVERED))
            self.session.acknowledge()

        if rising:
            self.log(slot, "monitor", "DriftAlarm", detector="kpi_threshold", value=repr(gnb_value))
            self.log_transition(slot, ControlEvent(EventKind.DRIFT_ALARM))
            if self.state is LoopState.DEGRADED:
                monitored["action"] = self.run_decision(slot, index)
        return monitored

    def run(self) -> RunResult:
        # Store each package as it is fitted: only the first, to activate,
        # stays in memory. One pool start serves all the fits. Windows with
        # identical measurements fit one model, stored once.
        first, stored = None, set()
        with blas.limit(self.fit_threads):
            for spec in self.config.pretrain:
                package = self._train(spec.start_slot, spec.end_slot)
                desc = package.descriptor
                if (desc.model_id, desc.model_version) in stored:
                    continue
                stored.add((desc.model_id, desc.model_version))
                self.registry.store(package, stored_at_slot=0)
                self.log(
                    0,
                    "registry",
                    "ModelStored",
                    model_id=desc.model_id,
                    version=str(desc.model_version),
                    tag=desc.functionality_tag,
                )
                if first is None:
                    first = package
        activated = activate(self.context(0), first)
        self.log(0, "controller", "ModelActivated", target=activated.detail)

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

        issued = Counter(dict(e.payload)["action"] for e in self.events if e.kind == "ActionIssued")
        overhead = sum(int(dict(e.payload)["overhead_bits"])
                       for e in self.events if e.kind == "MonitoringReport")
        summary = {
            "final_state": self.state.value,
            "slots": self.config.num_slots,
            "alarms": sum(e.kind == "DriftAlarm" for e in self.events),
            "actions": dict(sorted(issued.items())),
            "mean_sgcs": float(np.mean(self.achieved)) if self.achieved else float("nan"),
            "monitor_overhead_bits": overhead,
            "evaluations": self.eval_counter,
        }
        return RunResult(lines=self.lines, events=self.events, summary=summary)


def run_scenario(config: ScenarioConfig, registry_root: str) -> RunResult:
    """Execute one scenario; a registry that already holds models is refused.

    The run uses one BLAS thread outside the ridge and delta fits, which keep
    the caller's count and so their bits, and leaves the thread pool parked.
    """
    with blas.limit(1) as caller:
        loop = _Loop(config, registry_root, fit_threads=caller)
        with loop.registry:
            return loop.run()


def write_metrics(result: RunResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.metrics_text())


def write_events(result: RunResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.events_text())
