"""A per-slot reference for the block-stepped loop of ``lcmsim.simulation``.

:func:`reference_run` steps one slot at a time with the scalar kernels
(``predict_csi``, ``legacy_csi_report``, ``sgcs``, ``nmse``,
``derive_input_descriptor``, ``descriptor_divergence``), as the loop did
before it stepped from one evaluation slot to the next. What a slot will
apply waits in two dicts keyed by its target slot, pending predictions
before pending legacy beams; a delta fits the deque of (prediction,
measurement) pairs applied since the last activation; each evaluation
derives its input descriptor from its own window.

It shares the rest with the loop: the trace and the stacked measurement
rows (equal to one-row ``measure_csi`` calls, see ``tests/test_channel.py``),
the controller, the monitoring session and the registry. So a run whose
metrics.csv or events.log differs from the reference's, byte for byte, has
a fault in the loop's block bookkeeping.
"""

from collections import deque

import numpy as np

from lcmsim.channel import dft_codebook, generate_trace, measure_csi
from lcmsim.controller import (
    ActionKind,
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
    legacy_csi_report,
    transition,
)
from lcmsim.kpi import (
    derive_input_descriptor,
    descriptor_divergence,
    misalignment_divergence,
    nmse,
    sgcs,
)
from lcmsim.models import fit_adaptation_delta, predict_csi, train_predictor
from lcmsim.monitoring import MonitoringSession, evaluation_slots
from lcmsim.registry import ModelRegistry
from lcmsim.simulation import EventLogRecord, RunResult, simulation_warmup


class _ReferenceLoop:
    def __init__(self, config, registry_root):
        config.validate()
        self.config, self.policy = config, config.policy
        self.codebook = dft_codebook(config.num_antennas)
        self.trace = generate_trace(
            config.regime_schedule, config.num_slots, config.num_antennas, config.seed
        )
        for start, snr_db in config.snr_overrides:
            self.trace.snr_db[start:] = snr_db
        self.measurements = measure_csi(
            self.trace.true_precoders, self.trace.snr_db, np.arange(config.num_slots), config.seed
        )
        self.measured = self.measurements.precoders
        self.registry = ModelRegistry(registry_root)
        self.agent = InferenceAgent()
        self.session = MonitoringSession(config.monitoring)
        self.state = LoopState.STABLE
        self.events, self.lines = [], []
        self.pending = {}  # target slot -> model prediction
        self.pending_legacy = {}  # target slot -> codebook column reported in fallback
        self.applied = {}  # slot -> model prediction it applied
        self.history_window = max(
            self.policy.min_train_samples, 4 * self.policy.descriptor_window_slots
        )
        self.pairs = deque(maxlen=self.history_window)
        self.eval_slots = set(
            evaluation_slots(config.num_slots, config.monitoring, simulation_warmup(config))
        )
        self.eval_counter = 0
        self.last_action_kind = None
        self.last_action_eval = 0

    def log(self, slot, source, kind, **payload):
        self.events.append(EventLogRecord(slot, source, kind, tuple(payload.items())))

    def log_transition(self, slot, event):
        before, self.state = self.state, transition(self.state, event)
        if self.state is not before:
            self.log(slot, "controller", "StateTransition",
                     frm=before.value, to=self.state.value, on=event.kind.value)

    def train(self, start, stop):
        return train_predictor(
            self.measurements.window(start, stop), self.config.predictor,
            beam_powers=self.trace.per_beam_power[start:stop],
        )

    def context(self, slot):
        return ExecutionContext(
            registry=self.registry,
            agent=self.agent,
            retrain=lambda: self.train(max(0, slot + 1 - self.history_window), slot + 1),
            fit_delta=lambda base: fit_adaptation_delta(
                base, list(self.pairs), self.policy.delta_rank
            ),
        )

    def report(self, slot):
        order = self.config.predictor.order
        target = slot + self.config.predictor.horizon_slots
        if self.agent.fallback:
            self.pending_legacy[target] = legacy_csi_report(self.measured[slot], self.codebook)
        elif self.agent.predictor is not None and slot + 1 >= order:
            window = self.measured[slot + 1 - order : slot + 1]
            self.pending[target] = predict_csi(self.agent.predictor, window)

    def apply(self, slot):
        """The sgcs and nmse cells of what ``slot`` applies."""
        if slot in self.pending:
            vector = self.pending.pop(slot)
            self.applied[slot] = vector
            self.pairs.append((vector, self.measured[slot]))
        elif slot in self.pending_legacy:
            vector = self.codebook[:, self.pending_legacy.pop(slot)]
        else:
            return ","
        truth = self.trace.true_precoders[slot]
        return f"{sgcs(vector, truth)!r},{nmse(vector, truth)!r}"

    def issue(self, slot, action):
        self.log(slot, "controller", "ActionIssued", action=action.kind.value,
                 **{k: str(v) for k, v in sorted(action.rationale.items())})
        self.log_transition(slot, ControlEvent(EventKind.ACTION_ISSUED, action_kind=action.kind))
        follow = execute(action, self.context(slot), slot)
        if action.kind is ActionKind.FALLBACK:
            self.pending.clear()
        if follow is not None:
            if follow.kind is EventKind.MODEL_ACTIVATED:
                self.log(slot, "controller", "ModelActivated", target=follow.detail)
                self.pairs.clear()
            elif follow.kind is EventKind.ACTION_FAILED:
                self.log(slot, "controller", "ActionFailed",
                         action=follow.action_kind.value, reason=follow.detail)
            self.log_transition(slot, follow)
        self.session.acknowledge()
        self.last_action_kind = action.kind
        self.last_action_eval = self.eval_counter
        return action.kind.value

    def monitor(self, slot):
        """The perf_bad, action, descriptor_divergence and overhead cells."""
        window = self.policy.descriptor_window_slots
        start = slot + 1 - min(window, slot + 1)
        descriptor = derive_input_descriptor(
            self.measurements.window(start, slot + 1), self.trace.per_beam_power[start : slot + 1],
        )
        self.eval_counter += 1
        cells = {"perf_bad": "", "action": "", "divergence": "", "overhead": ""}
        if self.agent.fallback:
            action = decide_reactivation(descriptor, self.policy, self.registry)
            if action is not None:
                cells["action"] = self.issue(slot, action)
            return cells

        target = slot - self.config.monitoring.gt_slot_offset
        if target not in self.applied:
            return cells
        bits, value, perf_bad, rising = self.session.evaluate(
            self.applied[target], self.measured[target]
        )
        cells["perf_bad"], cells["overhead"] = str(perf_bad), str(bits)
        self.log(slot, "monitor", "MonitoringReport", mode=self.config.monitoring.mode.value,
                 value=repr(float(value)), perf_bad=str(perf_bad),
                 overhead_bits=str(bits))
        active = self.agent.active_model.descriptor
        divergence = descriptor_divergence(descriptor, active.input_descriptor)
        misalignment = misalignment_divergence(descriptor, active.input_descriptor)
        cells["divergence"] = repr(divergence)

        streak = self.session.watch.clean
        if self.state is LoopState.RECOVERING and streak >= self.policy.n_recover:
            self.log(slot, "monitor", "KpiRecovered", streak=str(streak))
            self.log_transition(slot, ControlEvent(EventKind.KPI_RECOVERED))
            self.session.acknowledge()
        if rising:
            self.log(slot, "monitor", "DriftAlarm", detector="kpi_threshold", value=repr(value))
            self.log_transition(slot, ControlEvent(EventKind.DRIFT_ALARM))
            if self.state is LoopState.DEGRADED:
                inputs = DecisionInputs(
                    current_descriptor=descriptor,
                    divergence=divergence,
                    misalignment=misalignment,
                    active_model_id=active.model_id,
                    active_model_version=active.model_version,
                    buffered_samples=slot + 1,
                    last_action_kind=self.last_action_kind,
                    evals_since_last_action=self.eval_counter - self.last_action_eval,
                )
                cells["action"] = self.issue(slot, decide(inputs, self.policy, self.registry))
        return cells

    def run(self):
        packages = {}  # (model id, version) -> package, in pretraining order
        for spec in self.config.pretrain:
            package = self.train(spec.start_slot, spec.end_slot)
            desc = package.descriptor
            if (desc.model_id, desc.model_version) in packages:
                continue
            packages[desc.model_id, desc.model_version] = package
            self.registry.store(package, stored_at_slot=0)
            self.log(0, "registry", "ModelStored", model_id=desc.model_id,
                     version=str(desc.model_version), tag=desc.functionality_tag)
        activated = activate(self.context(0), next(iter(packages.values())))
        self.log(0, "controller", "ModelActivated", target=activated.detail)

        for slot in range(self.config.num_slots):
            self.report(slot)
            scored = self.apply(slot)
            monitored = ",,,"
            if slot in self.eval_slots:
                monitored = ",".join(self.monitor(slot).values())
            model = self.agent.active_model
            ids = f"{model.descriptor.model_id},{model.descriptor.model_version}" if model else ","
            self.lines.append(f"{slot},{scored},{self.state.value},{ids},{monitored}")
        return RunResult(lines=self.lines, events=self.events, summary={})


def reference_run(config, registry_root) -> RunResult:
    """The run of ``config`` stepped slot by slot, against a fresh registry;
    its ``metrics_text()`` and ``events_text()`` are the loop's, byte for byte."""
    loop = _ReferenceLoop(config, registry_root)
    with loop.registry:
        return loop.run()
