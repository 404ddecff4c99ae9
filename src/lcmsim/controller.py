"""Management block: loop state machine, decision policy, action execution.

The life cycle of a managed functionality is a four-state machine
driven by monitoring events. Decisions follow a fixed priority ladder
so that the same inputs always produce the same action: attribute to
SNR first, then prefer the cheapest remedy (switch to a stored model,
then a delta correction, then rollback or retrain, and finally the
legacy non-model path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import IntegrityError, NotFoundError
from .kpi import InputDescriptor, sgcs_rows
from .kpi import sgcs  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
from .models import CsiPredictor, DeltaPackage, ModelKind, ModelPackage, apply_delta
from .registry import ModelRegistry


class LoopState(str, Enum):
    STABLE = "Stable"
    DEGRADED = "Degraded"
    RECOVERING = "Recovering"
    FALLBACK = "Fallback"


class EventKind(str, Enum):
    DRIFT_ALARM = "DriftAlarm"
    KPI_RECOVERED = "KpiRecovered"
    ACTION_ISSUED = "ActionIssued"
    ACTION_FAILED = "ActionFailed"
    MODEL_ACTIVATED = "ModelActivated"
    FALLBACK_ORDERED = "FallbackOrdered"


class ActionKind(str, Enum):
    KEEP = "Keep"
    SWITCH = "Switch"
    DELTA_UPDATE = "DeltaUpdate"
    RETRAIN = "Retrain"
    ROLLBACK = "Rollback"
    FALLBACK = "Fallback"
    REACTIVATE_AI = "ReactivateAI"


# The actions that take a degraded loop into recovery.
_RECOVERY_ACTIONS = (ActionKind.SWITCH, ActionKind.DELTA_UPDATE, ActionKind.RETRAIN,
                     ActionKind.ROLLBACK)


@dataclass(frozen=True)
class ControlEvent:
    kind: EventKind
    action_kind: ActionKind | None = None
    detail: str = ""


@dataclass(frozen=True)
class ControlAction:
    kind: ActionKind
    target_model_id: str = ""
    target_version: int = 0
    rationale: dict[str, str] = field(default_factory=dict)


def transition(state: LoopState, event: ControlEvent) -> LoopState:
    """Total transition function; unlisted pairs are self-loops."""
    kind = event.kind
    if state is LoopState.STABLE:
        if kind is EventKind.DRIFT_ALARM:
            return LoopState.DEGRADED
        if kind is EventKind.FALLBACK_ORDERED:
            return LoopState.FALLBACK
    elif state is LoopState.DEGRADED:
        if kind is EventKind.ACTION_ISSUED and event.action_kind is not None:
            if event.action_kind in _RECOVERY_ACTIONS:
                return LoopState.RECOVERING
            if event.action_kind is ActionKind.FALLBACK:
                return LoopState.FALLBACK
    elif state is LoopState.RECOVERING:
        if kind is EventKind.KPI_RECOVERED:
            return LoopState.STABLE
        if kind in (EventKind.DRIFT_ALARM, EventKind.ACTION_FAILED):
            return LoopState.DEGRADED
    elif state is LoopState.FALLBACK:
        if kind is EventKind.MODEL_ACTIVATED:
            return LoopState.RECOVERING
    return state


@dataclass(frozen=True)
class DecisionPolicy:
    """Named thresholds of the decision ladder.

    Divergence thresholds are in descriptor-divergence units; the
    cooldown counts monitoring evaluations since the last model change.
    """

    delta_low: float = 0.05
    delta_match: float = 0.10
    delta_delta: float = 0.25
    snr_floor_db: float = 5.0
    cooldown_evals: int = 3
    n_recover: int = 3
    min_train_samples: int = 64
    delta_rank: int = 8
    descriptor_window_slots: int = 40

    def validate(self) -> None:
        if not 0 < self.delta_low <= self.delta_match <= self.delta_delta:
            raise ValueError("need 0 < delta_low <= delta_match <= delta_delta")
        if self.cooldown_evals < 1 or self.n_recover < 1:
            raise ValueError("cooldown_evals and n_recover must be positive")
        if self.min_train_samples < 1 or self.delta_rank < 1:
            raise ValueError("min_train_samples and delta_rank must be positive")
        if self.descriptor_window_slots < 2:
            raise ValueError("descriptor_window_slots must be >= 2")


@dataclass(frozen=True)
class DecisionInputs:
    """Everything decide() may look at, gathered by the harness."""

    current_descriptor: InputDescriptor
    divergence: float
    misalignment: float
    active_model_id: str
    active_model_version: int
    buffered_samples: int = 0
    last_action_kind: ActionKind | None = None
    evals_since_last_action: int = 10**9


def decide(inputs: DecisionInputs, policy: DecisionPolicy, registry: ModelRegistry) -> ControlAction:
    """Deterministic priority ladder from degradation evidence to action.

    Clause order: SNR attribution, registry switch, delta correction,
    rollback-or-retrain after a failed cheap remedy, legacy fallback.
    """
    snr_db = inputs.current_descriptor.mean_snr_db
    base_rationale = {
        "divergence": repr(inputs.divergence),
        "misalignment": repr(inputs.misalignment),
        "mean_snr_db": repr(snr_db),
    }

    # (1) Degradation explained by SNR, not model misalignment.
    if snr_db < policy.snr_floor_db and inputs.misalignment < policy.delta_low:
        return ControlAction(
            kind=ActionKind.KEEP,
            rationale=dict(base_rationale, clause="snr_attribution"),
        )

    # (2) A stored model already fits the new input statistics. Ranking
    # reads no package: execute() reads the target of a Switch.
    match = registry.closest_entry(
        inputs.current_descriptor, ModelKind.CSI_PREDICTOR, policy.delta_match
    )
    if match is not None:
        entry, div = match
        if (entry.model_id, entry.version) != (
            inputs.active_model_id,
            inputs.active_model_version,
        ):
            return ControlAction(
                kind=ActionKind.SWITCH,
                target_model_id=entry.model_id,
                target_version=entry.version,
                rationale=dict(base_rationale, clause="registry_match", match_divergence=repr(div)),
            )

    # (3) Drift small enough for a low-rank correction.
    if inputs.divergence < policy.delta_delta:
        return ControlAction(
            kind=ActionKind.DELTA_UPDATE,
            rationale=dict(base_rationale, clause="small_divergence"),
        )

    # (4) A cheap remedy was just tried and the alarm persists.
    if (
        inputs.last_action_kind in (ActionKind.SWITCH, ActionKind.DELTA_UPDATE)
        and inputs.evals_since_last_action <= policy.cooldown_evals
    ):
        previous = registry.previous_version(inputs.active_model_id, inputs.active_model_version)
        if previous is not None:
            return ControlAction(
                kind=ActionKind.ROLLBACK,
                target_model_id=inputs.active_model_id,
                target_version=previous,
                rationale=dict(base_rationale, clause="rollback_after_failed_remedy"),
            )
        if inputs.buffered_samples >= policy.min_train_samples:
            return ControlAction(
                kind=ActionKind.RETRAIN,
                rationale=dict(base_rationale, clause="retrain_after_failed_remedy"),
            )

    # (5) Nothing model-based is defensible.
    return ControlAction(
        kind=ActionKind.FALLBACK,
        rationale=dict(base_rationale, clause="no_model_remedy"),
    )


def decide_reactivation(
    current_descriptor: InputDescriptor,
    policy: DecisionPolicy,
    registry: ModelRegistry,
) -> ControlAction | None:
    """While in legacy fallback, look for a stored model that fits again."""
    match = registry.closest_entry(current_descriptor, ModelKind.CSI_PREDICTOR, policy.delta_match)
    if match is None:
        return None
    entry, div = match
    return ControlAction(
        kind=ActionKind.REACTIVATE_AI,
        target_model_id=entry.model_id,
        target_version=entry.version,
        rationale={"clause": "fallback_exit", "match_divergence": repr(div)},
    )


@dataclass
class InferenceAgent:
    """UE-side holder of the active model and the reporting route."""

    active_model: ModelPackage | None = None
    fallback: bool = False
    # The active CSI predictor resolved for inference, set on activation.
    predictor: CsiPredictor | None = None

    def activate(self, package: ModelPackage) -> None:
        self.active_model = package
        self.fallback = False
        is_predictor = package.kind is ModelKind.CSI_PREDICTOR
        self.predictor = CsiPredictor.of(package) if is_predictor else None

    def enter_fallback(self) -> None:
        self.active_model = None
        self.predictor = None
        self.fallback = True


@dataclass
class ExecutionContext:
    """Capabilities execute() may need, provided by the harness.

    retrain builds a fresh package from the harness's sample buffer;
    fit_delta fits a correction to the given base model from the
    recent (prediction, measurement) pairs, at the policy's rank.
    """

    registry: ModelRegistry
    agent: InferenceAgent
    retrain: Callable[[], ModelPackage] | None = None
    fit_delta: Callable[[ModelPackage], DeltaPackage] | None = None


def activate(ctx: ExecutionContext, package: ModelPackage) -> ControlEvent:
    """Make a stored package the active model, in the registry and the agent."""
    desc = package.descriptor
    ctx.registry.activate(desc.model_id, desc.model_version)
    ctx.agent.activate(package)
    return ControlEvent(EventKind.MODEL_ACTIVATED, detail=f"{desc.model_id}:v{desc.model_version}")


def execute(action: ControlAction, ctx: ExecutionContext, slot_index: int) -> ControlEvent | None:
    """Carry out an action; returns the follow-up event, if any.

    Switch, Rollback and ReactivateAI read their target here, once; the
    read re-verifies package integrity, so a tampered store surfaces as
    ActionFailed(integrity) rather than a bad activation.
    """
    try:
        if action.kind is ActionKind.KEEP:
            return None

        if action.kind is ActionKind.FALLBACK:
            # activate() keeps the agent's model the registry's active entry.
            if ctx.agent.active_model is not None:
                desc = ctx.agent.active_model.descriptor
                ctx.registry.deactivate(desc.model_id, desc.model_version)
            ctx.agent.enter_fallback()
            return None

        if action.kind in (ActionKind.SWITCH, ActionKind.ROLLBACK, ActionKind.REACTIVATE_AI):
            package = ctx.registry.fetch_by_id(action.target_model_id, action.target_version)
        else:
            if action.kind is ActionKind.DELTA_UPDATE:
                base = ctx.agent.active_model
                if base is None or ctx.fit_delta is None:
                    raise NotFoundError("no active model to adapt")
                package = apply_delta(base, ctx.fit_delta(base))
            elif action.kind is ActionKind.RETRAIN:
                if ctx.retrain is None:
                    raise NotFoundError("no training capability attached")
                package = ctx.retrain()
            else:
                raise ValueError(f"unhandled action kind {action.kind}")
            ctx.registry.store(package, stored_at_slot=slot_index)
        return activate(ctx, package)
    except (IntegrityError, NotFoundError, ValueError) as exc:
        # isinstance, not a type() lookup: np.linalg.LinAlgError is a
        # ValueError and must map to "invalid".
        if isinstance(exc, IntegrityError):
            reason = "integrity"
        elif isinstance(exc, NotFoundError):
            reason = "not_found"
        else:
            reason = "invalid"
        return ControlEvent(
            kind=EventKind.ACTION_FAILED,
            action_kind=action.kind,
            detail=f"{reason}: {exc}",
        )


def legacy_beams(codebook: np.ndarray) -> np.ndarray:
    """Codebook columns as contiguous rows: fixed for a run, so a run builds
    them once for all its legacy reports."""
    book = np.asarray(codebook)
    if book.ndim != 2 or book.shape[1] == 0:
        raise ValueError("codebook must be a non-empty matrix of beam columns")
    rows = np.ascontiguousarray(book.T)
    if np.any(np.vecdot(rows, rows).real < 1e-300):
        raise ValueError("sgcs undefined for zero vectors")
    return rows


def legacy_csi_reports(measurements: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Per measurement row, the index of the ``legacy_beams(codebook)`` row with
    the highest :func:`sgcs`, bit for bit; ties go to the lowest index."""
    m = np.asarray(measurements)
    return np.argmax(sgcs_rows(beams, m[:, np.newaxis, :]), axis=1)


def legacy_csi_report(measurement: np.ndarray, codebook: np.ndarray, beams=None) -> int:
    """:func:`legacy_csi_reports` for one measurement; ``beams`` is
    ``legacy_beams(codebook)``, built here when not given."""
    rows = legacy_beams(codebook) if beams is None else beams
    return int(legacy_csi_reports(np.asarray(measurement).ravel()[np.newaxis], rows)[0])
