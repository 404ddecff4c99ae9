"""Loop state machine, decision ladder, and action execution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.channel import CsiMeasurements, dft_codebook
from lcmsim.controller import (
    ActionKind,
    ControlAction,
    ControlEvent,
    DecisionInputs,
    DecisionPolicy,
    EventKind,
    ExecutionContext,
    InferenceAgent,
    LoopState,
    decide,
    decide_reactivation,
    execute,
    legacy_beams,
    legacy_csi_report,
    legacy_csi_reports,
    transition,
)
from lcmsim.errors import DegenerateInputError, IntegrityError, NotFoundError
from lcmsim.kpi import (
    InputDescriptor,
    descriptor_divergence,
    misalignment_divergence,
    sgcs,
    sgcs_rows,
)
from lcmsim.models import (
    ModelDescriptor,
    ModelKind,
    ModelPackage,
    PredictorConfig,
    finalize_package,
    fit_adaptation_delta,
    train_predictor,
)
from lcmsim.registry import ModelRegistry

N_ANT = 4

STATES = list(LoopState)
EVENT_KINDS = list(EventKind)
ACTION_KINDS = list(ActionKind)


def expected_transition(state, kind, action_kind):
    """The declared table, written out independently of the implementation."""
    if state is LoopState.STABLE and kind is EventKind.DRIFT_ALARM:
        return LoopState.DEGRADED
    if state is LoopState.STABLE and kind is EventKind.FALLBACK_ORDERED:
        return LoopState.FALLBACK
    if state is LoopState.DEGRADED and kind is EventKind.ACTION_ISSUED:
        if action_kind in (ActionKind.SWITCH, ActionKind.DELTA_UPDATE,
                           ActionKind.RETRAIN, ActionKind.ROLLBACK):
            return LoopState.RECOVERING
        if action_kind is ActionKind.FALLBACK:
            return LoopState.FALLBACK
    if state is LoopState.RECOVERING and kind is EventKind.KPI_RECOVERED:
        return LoopState.STABLE
    if state is LoopState.RECOVERING and kind is EventKind.DRIFT_ALARM:
        return LoopState.DEGRADED
    if state is LoopState.RECOVERING and kind is EventKind.ACTION_FAILED:
        return LoopState.DEGRADED
    if state is LoopState.FALLBACK and kind is EventKind.MODEL_ACTIVATED:
        return LoopState.RECOVERING
    return state


def all_events():
    events = []
    for kind in EVENT_KINDS:
        if kind is EventKind.ACTION_ISSUED:
            for action_kind in ACTION_KINDS:
                events.append(ControlEvent(kind=kind, action_kind=action_kind))
        else:
            events.append(ControlEvent(kind=kind))
    return events


class TestTransition:
    def test_exhaustive_against_declared_table(self):
        for state in STATES:
            for event in all_events():
                got = transition(state, event)
                want = expected_transition(state, event.kind, event.action_kind)
                assert got is want, (state, event.kind, event.action_kind)

    def test_quoted_examples(self):
        alarm = ControlEvent(kind=EventKind.DRIFT_ALARM)
        recovered = ControlEvent(kind=EventKind.KPI_RECOVERED)
        assert transition(LoopState.STABLE, alarm) is LoopState.DEGRADED
        assert transition(LoopState.RECOVERING, recovered) is LoopState.STABLE
        assert transition(LoopState.FALLBACK, alarm) is LoopState.FALLBACK

    def test_random_sequences_stay_within_table(self):
        rng = np.random.default_rng(31)
        menu = all_events()
        for _ in range(100):
            state = LoopState.STABLE
            for _ in range(1000):
                event = menu[int(rng.integers(0, len(menu)))]
                after = transition(state, event)
                assert after is expected_transition(state, event.kind, event.action_kind)
                state = after


def make_descriptor(doppler=0.05, snr=20.0, beam=None):
    if beam is None:
        beam = np.full(N_ANT, 1.0 / N_ANT)
    return InputDescriptor(
        mean_beam_power=np.asarray(beam, dtype=float),
        doppler_estimate=doppler,
        mean_snr_db=snr,
        window_len=40,
    )


def make_package(model_id="m-a", version=1, doppler=0.05, snr=20.0, tag="csi-pred-h4"):
    rng = np.random.default_rng((version, len(model_id)))
    taps = rng.standard_normal((N_ANT, N_ANT)) + 1j * rng.standard_normal((N_ANT, N_ANT))
    return finalize_package(
        ModelPackage(
            descriptor=ModelDescriptor(
                model_id=model_id,
                model_version=version,
                functionality_tag=tag,
                associated_id=None,
                input_descriptor=make_descriptor(doppler, snr),
            ),
            kind=ModelKind.CSI_PREDICTOR,
            parameters=[("taps", taps)],
            extra={"order": "1", "horizon_slots": "4", "num_antennas": str(N_ANT)},
        )
    )


def active_entry(registry, functionality_tag):
    """The one active entry of ``functionality_tag`` in ``registry``, or None."""
    active = [e for e in registry.entries()
              if e.status == "active" and e.functionality_tag == functionality_tag]
    assert len(active) <= 1, active
    return active[0] if active else None


def make_inputs(
    current=None,
    active=None,
    active_id="m-a",
    active_version=1,
    buffered=0,
    last_action=None,
    evals_since=10**9,
):
    current = current if current is not None else make_descriptor()
    active = active if active is not None else make_descriptor()
    return DecisionInputs(
        current_descriptor=current,
        divergence=descriptor_divergence(current, active),
        misalignment=misalignment_divergence(current, active),
        active_model_id=active_id,
        active_model_version=active_version,
        buffered_samples=buffered,
        last_action_kind=last_action,
        evals_since_last_action=evals_since,
    )


class TestDecide:
    def test_snr_attribution_returns_keep(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-b", doppler=0.05))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.05, snr=0.0),
            active=make_descriptor(doppler=0.05, snr=20.0),
        )
        action = decide(inputs, DecisionPolicy(), reg)
        # SNR attribution outranks the registry match that also exists.
        assert action.kind is ActionKind.KEEP
        assert action.rationale["clause"] == "snr_attribution"

    def test_registry_match_switch(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a", doppler=0.01))
        reg.store(make_package(model_id="m-b", doppler=0.15))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.15),
            active=make_descriptor(doppler=0.01),
            active_id="m-a",
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.SWITCH
        assert (action.target_model_id, action.target_version) == ("m-b", 1)

    def test_active_model_is_not_a_switch_target(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a", doppler=0.01))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.02),
            active=make_descriptor(doppler=0.01),
            active_id="m-a",
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.DELTA_UPDATE

    def test_small_divergence_delta_update(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        inputs = make_inputs(
            current=make_descriptor(doppler=0.21),
            active=make_descriptor(doppler=0.01),
        )
        assert 0.10 < inputs.divergence < 0.25
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.DELTA_UPDATE

    def test_rollback_after_failed_cheap_remedy(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a", version=1, doppler=0.01))
        reg.store(make_package(model_id="m-a", version=2, doppler=0.01))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.45),
            active=make_descriptor(doppler=0.01),
            active_id="m-a",
            active_version=2,
            last_action=ActionKind.DELTA_UPDATE,
            evals_since=1,
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.ROLLBACK
        assert action.target_version == 1

    def test_retrain_when_no_previous_version(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a", version=1, doppler=0.01))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.45),
            active=make_descriptor(doppler=0.01),
            active_id="m-a",
            buffered=100,
            last_action=ActionKind.SWITCH,
            evals_since=2,
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.RETRAIN

    def test_fallback_when_nothing_applies(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        inputs = make_inputs(
            current=make_descriptor(doppler=0.45),
            active=make_descriptor(doppler=0.01),
            buffered=3,
            last_action=ActionKind.DELTA_UPDATE,
            evals_since=1,
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.FALLBACK

    def test_stale_remedy_outside_cooldown_falls_back(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a", version=1, doppler=0.01))
        reg.store(make_package(model_id="m-a", version=2, doppler=0.01))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.45),
            active=make_descriptor(doppler=0.01),
            active_id="m-a",
            active_version=2,
            last_action=ActionKind.DELTA_UPDATE,
            evals_since=7,
        )
        action = decide(inputs, DecisionPolicy(), reg)
        assert action.kind is ActionKind.FALLBACK

    def test_decide_is_pure(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-b", doppler=0.15))
        inputs = make_inputs(
            current=make_descriptor(doppler=0.15),
            active=make_descriptor(doppler=0.01),
        )
        first = decide(inputs, DecisionPolicy(), reg)
        second = decide(inputs, DecisionPolicy(), reg)
        assert first == second

    def test_reactivation_from_fallback(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert decide_reactivation(make_descriptor(), DecisionPolicy(), reg) is None
        reg.store(make_package(model_id="m-b", doppler=0.15))
        action = decide_reactivation(make_descriptor(doppler=0.15), DecisionPolicy(), reg)
        assert action is not None and action.kind is ActionKind.REACTIVATE_AI
        assert action.target_model_id == "m-b"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DecisionPolicy(delta_low=0.3, delta_match=0.1).validate()
        DecisionPolicy().validate()


def trained_base(order=4, horizon=4, n_ant=N_ANT, seed=0):
    rng = np.random.default_rng(seed)
    vectors = []
    for t in range(64):
        v = rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant)
        vectors.append(v / np.linalg.norm(v))
    history = CsiMeasurements(vectors, [20.0] * 64)
    return train_predictor(history, PredictorConfig(order, horizon))


class TestExecute:
    def make_ctx(self, tmp_path, **kwargs):
        reg = ModelRegistry(tmp_path)
        agent = InferenceAgent()
        return ExecutionContext(registry=reg, agent=agent, **kwargs)

    def test_switch_activates_target(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        pkg = make_package(model_id="m-b")
        ctx.registry.store(pkg)
        action = ControlAction(kind=ActionKind.SWITCH, target_model_id="m-b", target_version=1)
        event = execute(action, ctx, slot_index=10)
        assert event is not None and event.kind is EventKind.MODEL_ACTIVATED
        assert ctx.agent.active_model.descriptor.model_id == "m-b"
        assert active_entry(ctx.registry, "csi-pred-h4").model_id == "m-b"

    def test_switch_to_missing_model_fails(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        action = ControlAction(kind=ActionKind.SWITCH, target_model_id="ghost", target_version=1)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.ACTION_FAILED
        assert event.detail.startswith("not_found: ")

    def test_tampered_package_fails_with_integrity(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        pkg = make_package(model_id="m-b")
        ctx.registry.store(pkg)
        path = ctx.registry.package_path("m-b", 1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        action = ControlAction(kind=ActionKind.SWITCH, target_model_id="m-b", target_version=1)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.ACTION_FAILED
        assert event.detail.startswith("integrity: ")

    def test_rollback_to_previous_version(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        ctx.registry.store(make_package(model_id="m-a", version=1))
        ctx.registry.store(make_package(model_id="m-a", version=2))
        ctx.registry.activate("m-a", 2)
        action = ControlAction(kind=ActionKind.ROLLBACK, target_model_id="m-a", target_version=1)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.MODEL_ACTIVATED
        active = active_entry(ctx.registry, "csi-pred-h4")
        assert (active.model_id, active.version) == ("m-a", 1)

    def test_fallback_routes_to_legacy(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        pkg = make_package(model_id="m-a")
        ctx.registry.store(pkg)
        ctx.registry.activate("m-a", 1)
        ctx.agent.activate(pkg)
        action = ControlAction(kind=ActionKind.FALLBACK)
        event = execute(action, ctx, slot_index=0)
        assert event is None
        assert ctx.agent.fallback is True
        assert ctx.agent.active_model is None
        assert active_entry(ctx.registry, "csi-pred-h4") is None

    def test_delta_update_stores_and_activates_next_version(self, tmp_path):
        base = trained_base()
        rng = np.random.default_rng(2)

        def fit(pkg, slot):
            seen.append(slot)
            p = rng.standard_normal((2 + 8, N_ANT)) + 1j * rng.standard_normal((2 + 8, N_ANT))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            return fit_adaptation_delta(pkg, p, p, rank=2)

        seen = []

        ctx = self.make_ctx(tmp_path, fit_delta=fit)
        ctx.registry.store(base)
        ctx.registry.activate(base.descriptor.model_id, 1)
        ctx.agent.activate(base)
        action = ControlAction(kind=ActionKind.DELTA_UPDATE)
        event = execute(action, ctx, slot_index=3)
        assert seen == [3]  # the capability fits at the slot execute acts at
        assert event.kind is EventKind.MODEL_ACTIVATED
        active = active_entry(ctx.registry, "csi-pred-h4")
        assert (active.model_id, active.version) == (base.descriptor.model_id, 2)
        assert ctx.agent.active_model.has_param("delta_left")

    def test_delta_update_without_active_model_fails(self, tmp_path):
        ctx = self.make_ctx(tmp_path, fit_delta=lambda pkg, slot: None)
        action = ControlAction(kind=ActionKind.DELTA_UPDATE)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.ACTION_FAILED
        assert event.detail.startswith("not_found: ")

    @pytest.mark.parametrize(
        "error, prefix",
        [
            pytest.param(IntegrityError("bad"), "integrity: ", id="integrity"),
            pytest.param(NotFoundError("gone"), "not_found: ", id="not_found"),
            pytest.param(DegenerateInputError("rank too high"), "invalid: ", id="degenerate"),
            pytest.param(np.linalg.LinAlgError("singular"), "invalid: ", id="linalg_error"),
        ],
    )
    def test_fit_delta_failure_reason(self, tmp_path, error, prefix):
        def fit(pkg, slot):
            raise error

        base = make_package(model_id="m-a")
        ctx = self.make_ctx(tmp_path, fit_delta=fit)
        ctx.registry.store(base)
        ctx.registry.activate("m-a", 1)
        ctx.agent.activate(base)
        action = ControlAction(kind=ActionKind.DELTA_UPDATE)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.ACTION_FAILED
        assert event.action_kind is ActionKind.DELTA_UPDATE
        assert event.detail == prefix + str(error)
        assert ctx.agent.active_model is base
        assert active_entry(ctx.registry, "csi-pred-h4").version == 1

    def test_retrain_stores_new_package(self, tmp_path):
        fresh = make_package(model_id="m-new")
        seen = []
        ctx = self.make_ctx(tmp_path, retrain=lambda slot: seen.append(slot) or fresh)
        action = ControlAction(kind=ActionKind.RETRAIN)
        event = execute(action, ctx, slot_index=7)
        assert seen == [7]
        assert event.kind is EventKind.MODEL_ACTIVATED
        assert active_entry(ctx.registry, "csi-pred-h4").model_id == "m-new"
        assert ctx.registry.entries()[0].stored_at_slot == 7

    @pytest.mark.parametrize("kind", [ActionKind.DELTA_UPDATE, ActionKind.RETRAIN])
    def test_a_plain_value_error_propagates(self, tmp_path, kind):
        # Only what a run's data can cause becomes ActionFailed; a
        # ValueError from a capability is a fault and must not be logged away.
        def broken(*args):
            raise ValueError("a fault in the capability")

        base = make_package(model_id="m-a")
        ctx = self.make_ctx(tmp_path, fit_delta=broken, retrain=broken)
        ctx.registry.store(base)
        ctx.agent.activate(base)
        with pytest.raises(ValueError, match="a fault in the capability"):
            execute(ControlAction(kind=kind), ctx, slot_index=0)

    def test_keep_is_a_no_op(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        action = ControlAction(kind=ActionKind.KEEP)
        assert execute(action, ctx, slot_index=0) is None

    def test_reactivate_leaves_fallback(self, tmp_path):
        ctx = self.make_ctx(tmp_path)
        pkg = make_package(model_id="m-b")
        ctx.registry.store(pkg)
        ctx.agent.enter_fallback()
        action = ControlAction(kind=ActionKind.REACTIVATE_AI,
                               target_model_id="m-b", target_version=1)
        event = execute(action, ctx, slot_index=0)
        assert event.kind is EventKind.MODEL_ACTIVATED
        assert ctx.agent.fallback is False


class TestLegacyReport:
    def test_exact_beam_recovered(self):
        book = dft_codebook(8)
        assert legacy_csi_report(book[:, 5], book) == 5

    def test_tie_breaks_to_lowest_index(self):
        book = np.eye(4, dtype=complex)
        measurement = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2)
        assert legacy_csi_report(measurement, book) == 1

    def test_matches_exhaustive_argmax_oracle(self):
        rng = np.random.default_rng(7)
        book = dft_codebook(16)
        for _ in range(50):
            m = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            scores = [abs(np.vdot(book[:, j], m)) ** 2 for j in range(16)]
            assert legacy_csi_report(m, book) == int(np.argmax(scores))

    def test_matches_argmax_of_sgcs_scores(self):
        # The report scores beams with the sgcs arithmetic; its pick must
        # be the first maximum of the sgcs scores themselves, ties included,
        # also with the rows and norms built once and reused, as in a run.
        rng = np.random.default_rng(8)
        for n in (8, 32, 64):
            for book in (dft_codebook(n), np.eye(n, dtype=complex)):
                beams = legacy_beams(book)
                for _ in range(20):
                    m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    tied = np.zeros(n, complex)  # equal weight on three beams
                    tied[rng.choice(n, size=3, replace=False)] = 1.0
                    for measurement in (m, book[:, int(rng.integers(n))], tied):
                        scores = [sgcs(book[:, j], measurement) for j in range(n)]
                        want = scores.index(max(scores))
                        assert legacy_csi_report(measurement, book) == want
                        assert legacy_csi_report(measurement, book, beams) == want

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        st.sampled_from([8, 32, 64]),
        st.sampled_from([1, 2000]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_per_beam_reference(self, n, rows, dft, seed):
        # The per-slot report's arithmetic: one vdot per beam, the first
        # maximum; ties are exact on a beam itself and on equal-weight rows.
        rng = np.random.default_rng(seed)
        book = dft_codebook(n) if dft else np.eye(n, dtype=complex)
        m = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        m[rows // 3] = book[:, int(rng.integers(n))]
        m[rows // 2] = book[:, rng.choice(n, size=3, replace=False)].sum(axis=1)
        cols = [book[:, j].copy() for j in range(n)]  # contiguous, as BLAS saw them
        norms = [np.vdot(b, b).real for b in cols]
        scores = np.array([
            [abs(np.vdot(b, x)) ** 2 / (bn * np.vdot(x, x).real) for b, bn in zip(cols, norms)]
            for x in m
        ])
        want = np.array([row.tolist().index(row.max()) for row in scores])
        beams = legacy_beams(book)
        assert sgcs_rows(beams, m[:, np.newaxis, :]).tobytes() == scores.tobytes()
        assert legacy_csi_reports(m, beams).tobytes() == want.tobytes()
        assert legacy_csi_report(m[-1], book) == want[-1]

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            legacy_csi_report(np.ones(4) / 2.0, np.zeros((4, 0)))
        zero_beam = dft_codebook(4)
        zero_beam[:, 2] = 0.0
        with pytest.raises(ValueError):
            legacy_beams(zero_beam)

    def test_zero_and_mismatched_measurements_rejected(self):
        book = dft_codebook(4)
        for beams in (None, legacy_beams(book)):
            for bad in (np.zeros(4, complex), np.ones(3, complex), np.ones(5, complex)):
                with pytest.raises(ValueError):
                    legacy_csi_report(bad, book, beams)
