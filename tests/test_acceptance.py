"""End-to-end acceptance gate.

Eleven criteria, one test each. Every test prints a single line,
``criterion NN [PASS|FAIL] <label>``; run with ``-s`` to see the lines
inline, or rely on the captured output that pytest shows on failure.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lcmsim.channel import ChannelRegime, generate_trace
from lcmsim.config import parse_scenario_config
from lcmsim.controller import (
    ActionKind,
    ControlEvent,
    EventKind,
    LoopState,
    transition,
)
from lcmsim.errors import IntegrityError
from lcmsim.intervendor import (
    DerivationSpec,
    EvalCriteria,
    cross_pairing_matrix,
    derive_reference_model,
    export_dataset,
    train_decoder_from_dataset,
    train_encoder_against_reference,
    train_multivendor_decoder,
)
from lcmsim.kpi import InputDescriptor, descriptor_divergence, sgcs
from lcmsim.models import (
    AutoencoderConfig,
    ModelDescriptor,
    ModelKind,
    ModelPackage,
    decode_csi,
    encode_csi,
    finalize_package,
    storage_for_parameters,
    train_autoencoder_joint,
)
from lcmsim.monitoring import (
    MonitoringMode,
    ThresholdWatch,
    dequantize_metric,
    quantize_metric,
    report_overhead_bits,
)
from lcmsim.registry import ModelRegistry, verify_pairing
from lcmsim.simulation import run_scenario

from scenario_configs import CANONICAL_DRIFT, MILD_DRIFT, SNR_DROP


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [FAIL] {label}")
        raise
    print(f"criterion {number:02d} [PASS] {label}")


def windowed_mean(rows, lo, hi):
    """Mean SGCS over metric rows with lo <= slot < hi and a filled cell."""
    values = [float(r.sgcs) for r in rows if r.sgcs and lo <= r.slot < hi]
    assert values, f"no SGCS samples in [{lo}, {hi})"
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def timed_pairs(tmp_path_factory):
    """Every closed-loop scenario run twice against fresh registries."""
    pairs = {}
    specs = (
        ("canonical", CANONICAL_DRIFT),
        ("snr", SNR_DROP),
        ("mild", MILD_DRIFT),
    )
    for name, text in specs:
        config = parse_scenario_config(text)
        root_a = tmp_path_factory.mktemp(f"acc-{name}-a") / "registry"
        root_b = tmp_path_factory.mktemp(f"acc-{name}-b") / "registry"
        started = time.perf_counter()
        first = run_scenario(config, str(root_a))
        first_elapsed = time.perf_counter() - started
        second = run_scenario(config, str(root_b))
        pairs[name] = SimpleNamespace(
            first=first,
            second=second,
            first_elapsed=first_elapsed,
            registry_root=root_a,
        )
    return pairs


class TestCriterion01:
    def test_sgcs_matches_direct_arithmetic_oracle(self):
        with criterion(1, "SGCS equals direct-arithmetic oracle; invariances hold"):
            rng = np.random.default_rng(20260816)
            started = time.perf_counter()
            worst = 0.0
            spot_pairs = []
            for i in range(10_000):
                dim = int(rng.integers(2, 65))
                p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                value = sgcs(p, t)

                inner = 0j
                pp = tt = 0.0
                for a, b in zip(p.tolist(), t.tolist()):
                    inner += a.conjugate() * b
                    pp += abs(a) ** 2
                    tt += abs(b) ** 2
                oracle = abs(inner) ** 2 / (pp * tt)

                worst = max(worst, abs(value - oracle))
                assert -1e-9 <= value <= 1.0 + 1e-9
                if i % 100 == 0:
                    spot_pairs.append((p, t, value))
            assert worst <= 1e-12

            for p, t, value in spot_pairs:
                phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
                scale = rng.uniform(0.25, 4.0)
                assert abs(sgcs(scale * phase * p, t) - value) <= 1e-9
                assert abs(sgcs(p, scale * phase * t) - value) <= 1e-9
                assert abs(sgcs(p, p) - 1.0) <= 1e-9

            assert time.perf_counter() - started < 5.0


class TestCriterion02:
    def test_monitoring_decisions_and_overhead(self):
        with criterion(2, "run-length oracle, dequantization bound, overhead order"):
            started = time.perf_counter()

            for n_consec in (1, 2, 3):
                for bits in range(256):
                    watch = ThresholdWatch(threshold=0.5, n_consec=n_consec)
                    run = 0
                    for step in range(8):
                        below = (bits >> step) & 1
                        flag, rising = watch.observe(0.25 if below else 0.75)
                        run = run + 1 if below else 0
                        assert flag == (run >= n_consec)
                        assert rising == (run == n_consec)

            rng = np.random.default_rng(7)
            values = rng.uniform(0.0, 1.0, size=10_000)
            for v in values.tolist():
                code = quantize_metric(v, 8)
                assert abs(dequantize_metric(code, 8) - v) <= 1.0 / 510.0

            for antennas in (2, 4, 8, 32, 64):
                type2 = report_overhead_bits(MonitoringMode.TYPE2, antennas)
                type3 = report_overhead_bits(MonitoringMode.TYPE3, antennas, quant_bits=8)
                type1 = report_overhead_bits(MonitoringMode.TYPE1, antennas)
                assert type2 > type3 > type1

            assert time.perf_counter() - started < 5.0


STATE_NAMES = ("Stable", "Degraded", "Recovering", "Fallback")
EVENT_NAMES = (
    "DriftAlarm",
    "KpiRecovered",
    "ActionIssued",
    "ActionFailed",
    "ModelActivated",
    "FallbackOrdered",
)
ACTION_NAMES = (
    "Keep",
    "Switch",
    "DeltaUpdate",
    "Retrain",
    "Rollback",
    "Fallback",
    "ReactivateAI",
)


def declared_next_state(state, event, action):
    if state == "Stable":
        if event == "DriftAlarm":
            return "Degraded"
        if event == "FallbackOrdered":
            return "Fallback"
    if state == "Degraded" and event == "ActionIssued":
        if action in ("Switch", "DeltaUpdate", "Retrain", "Rollback"):
            return "Recovering"
        if action == "Fallback":
            return "Fallback"
    if state == "Recovering":
        if event == "KpiRecovered":
            return "Stable"
        if event in ("DriftAlarm", "ActionFailed"):
            return "Degraded"
    if state == "Fallback" and event == "ModelActivated":
        return "Recovering"
    return state


class TestCriterion03:
    def test_state_machine_exhaustive_and_random(self):
        with criterion(3, "state machine matches the declared table exhaustively"):
            for state in STATE_NAMES:
                for event in EVENT_NAMES:
                    actions = ACTION_NAMES if event == "ActionIssued" else (None,)
                    for action in actions:
                        got = transition(
                            LoopState(state),
                            ControlEvent(
                                kind=EventKind(event),
                                action_kind=ActionKind(action) if action else None,
                            ),
                        )
                        assert got.value == declared_next_state(state, event, action)

            rng = np.random.default_rng(3)
            for _ in range(100):
                state = "Stable"
                for _ in range(1_000):
                    event = EVENT_NAMES[int(rng.integers(len(EVENT_NAMES)))]
                    action = None
                    if event == "ActionIssued":
                        action = ACTION_NAMES[int(rng.integers(len(ACTION_NAMES)))]
                    got = transition(
                        LoopState(state),
                        ControlEvent(
                            kind=EventKind(event),
                            action_kind=ActionKind(action) if action else None,
                        ),
                    ).value
                    assert got == declared_next_state(state, event, action)
                    state = got


class TestCriterion04:
    def test_canonical_drift_recovery(self, timed_pairs):
        with criterion(4, "drift at slot 800 alarms, switches, and restabilizes"):
            pair = timed_pairs["canonical"]
            result = pair.first
            assert pair.first_elapsed < 10.0

            pre = windowed_mean(result.rows, 760, 800)
            assert pre >= 0.9
            assert pre == pytest.approx(0.9998858734911711, abs=1e-9)

            alarm_slot = next(e.slot for e in result.events if e.kind == "DriftAlarm")
            assert 800 < alarm_slot <= 800 + 3 * 20
            assert alarm_slot == 840

            assert result.summary["actions"] == {"Switch": 1}

            stable_slot = next(
                r.slot
                for r in result.rows
                if r.slot >= alarm_slot and r.loop_state == "Stable"
            )
            assert stable_slot <= 800 + 10 * 20
            assert stable_slot == 900
            post = windowed_mean(result.rows, stable_slot - 40, stable_slot)
            assert abs(pre - post) <= 0.02
            assert post == pytest.approx(0.9872130374049177, abs=1e-9)
            assert result.summary["final_state"] == "Stable"


class TestCriterion05:
    def test_snr_drop_keeps_model(self, timed_pairs):
        with criterion(5, "SNR collapse degrades KPI yet only Keep is issued"):
            result = timed_pairs["snr"].first

            pre = windowed_mean(result.rows, 760, 800)
            post = windowed_mean(result.rows, 840, 2000)
            assert pre >= 0.9
            assert post < 0.5

            assert result.summary["alarms"] >= 1
            actions = result.summary["actions"]
            assert set(actions) == {"Keep"}
            assert actions["Keep"] >= 1
            for forbidden in ("Switch", "Retrain", "Fallback", "Rollback", "DeltaUpdate"):
                assert forbidden not in actions


class TestCriterion06:
    def test_mild_drift_delta_update(self, timed_pairs):
        with criterion(6, "mild drift repaired by a compact delta update"):
            pair = timed_pairs["mild"]
            result = pair.first

            actions = result.summary["actions"]
            assert actions.get("DeltaUpdate", 0) >= 1
            assert set(actions) == {"DeltaUpdate"}
            assert result.summary["final_state"] == "Stable"

            pre = windowed_mean(result.rows, 760, 800)
            tail = windowed_mean(result.rows, 1960, 2000)
            assert abs(pre - tail) <= 0.05

            last = result.rows[-1]
            registry = ModelRegistry(pair.registry_root)
            updated = registry.fetch_by_id(
                last.active_model_id, int(last.active_model_version)
            )
            base = registry.fetch_by_id(last.active_model_id, 1)
            assert int(last.active_model_version) == 2
            delta_params = [
                (name, value)
                for name, value in updated.parameters
                if name.startswith("delta_")
            ]
            assert len(delta_params) == 3
            delta_bytes = storage_for_parameters(delta_params)
            assert delta_bytes < 0.25 * base.descriptor.storage_bytes


class TestCriterion07:
    def test_separate_training_interoperates(self):
        with criterion(7, "dataset-trained decoder matches joint pair; bad pairing refused"):
            started = time.perf_counter()
            regime = ChannelRegime(
                "iv-urban",
                num_paths=6,
                doppler_norm=0.03,
                angle_spread=0.9,
                mean_snr_db=math.inf,
            )
            targets = generate_trace(
                [(0, regime)], 5120, 32, 314
            ).true_precoders
            train, held = targets[:4096], targets[4096:]

            pairs = {}
            for latent in (4, 8):
                encoder, decoder = train_autoencoder_joint(
                    train, AutoencoderConfig(latent, 0, 32)
                )
                dataset = export_dataset(encoder, train)
                separate = train_decoder_from_dataset(dataset)
                grid = cross_pairing_matrix([encoder], [decoder, separate], held)
                assert abs(grid[0, 0] - grid[0, 1]) <= 0.02
                pairs[latent] = (encoder, decoder)

            mismatched_enc = pairs[4][0]
            mismatched_dec = pairs[8][1]
            assert (
                verify_pairing(mismatched_enc.descriptor, mismatched_dec.descriptor)
                is False
            )
            grid = cross_pairing_matrix([mismatched_enc], [mismatched_dec], held[:32])
            assert math.isnan(grid[0, 0])

            assert time.perf_counter() - started < 10.0


class TestCriterion08:
    def test_multivendor_decoder_matches_dedicated(self):
        with criterion(8, "indexed aggregate decoder serves each vendor"):
            regimes = [
                ChannelRegime(
                    "vendor-a",
                    num_paths=6,
                    doppler_norm=0.02,
                    angle_spread=0.9,
                    mean_snr_db=math.inf,
                ),
                ChannelRegime(
                    "vendor-b",
                    num_paths=8,
                    doppler_norm=0.08,
                    angle_spread=1.4,
                    mean_snr_db=math.inf,
                ),
            ]
            traces = [
                generate_trace([(0, r)], 1024, 32, 500 + i).true_precoders
                for i, r in enumerate(regimes)
            ]
            train = [t[:768] for t in traces]
            held = [t[768:] for t in traces]

            encoders, indexed, dedicated = [], [], []
            for i in range(2):
                encoder, _ = train_autoencoder_joint(train[i], AutoencoderConfig(6, 0, 32))
                encoders.append(encoder)
                dedicated.append(
                    train_decoder_from_dataset(export_dataset(encoder, train[i]))
                )
                indexed.append(export_dataset(encoder, train[i], vendor_index=i))

            aggregate = train_multivendor_decoder(indexed)
            for i in range(2):
                multi_score = cross_pairing_matrix(
                    [encoders[i]], [aggregate], held[i], vendor_indices=[i]
                )[0, 0]
                dedicated_score = cross_pairing_matrix(
                    [encoders[i]], [dedicated[i]], held[i]
                )[0, 0]
                assert abs(multi_score - dedicated_score) <= 0.02


class TestCriterion09:
    REGIME = ChannelRegime(
        "ref-suite",
        num_paths=8,
        doppler_norm=0.04,
        angle_spread=1.1,
        mean_snr_db=math.inf,
    )
    CANDIDATES = [AutoencoderConfig(latent, 0, 16) for latent in (4, 8, 12)]
    CRITERIA = EvalCriteria(
        sgcs_floor=0.7,
        flops_budget=5000,
        storage_budget_bytes=10**9,
        robustness_floor=0.25,
    )
    SPEC = DerivationSpec(regime=REGIME, num_antennas=16, num_train=512, num_eval=128)
    SEED = 97

    @staticmethod
    def mean_pair_sgcs(encoder, decoder, targets):
        return float(
            np.mean([sgcs(decode_csi(decoder, encode_csi(encoder, t)), t) for t in targets])
        )

    def test_reference_derivation_matches_oracle(self):
        with criterion(9, "reference derivation is reproducible and rule-abiding"):
            artifact, report = derive_reference_model(
                self.CANDIDATES, self.SPEC, self.CRITERIA, self.SEED
            )

            assert report.selected_index == 1
            assert artifact is not None
            assert [s.eligible for s in report.scores] == [True, True, False]
            assert report.scores[2].reasons == ("flops_over_budget",)

            data = generate_trace(
                [(0, self.REGIME)], 640, 16, self.SEED
            ).true_precoders
            train, evaluation = data[:512], data[512:]
            oracle_rows = []
            for cfg in self.CANDIDATES:
                encoder, decoder = train_autoencoder_joint(train, cfg)
                own = self.mean_pair_sgcs(encoder, decoder, evaluation)
                robustness = []
                for tag, factor in (("lo", 0.5), ("hi", 1.5)):
                    perturbed_regime = replace(
                        self.REGIME,
                        regime_id=f"{self.REGIME.regime_id}-perturb-{tag}",
                        doppler_norm=min(self.REGIME.doppler_norm * factor, 0.5),
                    )
                    perturbed = generate_trace(
                        [(0, perturbed_regime)], 640, 16, self.SEED
                    ).true_precoders
                    stressed = train_encoder_against_reference(decoder, perturbed[:512])
                    robustness.append(
                        self.mean_pair_sgcs(stressed, decoder, perturbed[512:])
                    )
                flops = (
                    encoder.descriptor.flops_per_inference
                    + decoder.descriptor.flops_per_inference
                )
                storage = encoder.descriptor.storage_bytes + decoder.descriptor.storage_bytes
                oracle_rows.append((own, min(robustness), flops, storage))

            for score, (own, robust, flops, storage) in zip(report.scores, oracle_rows):
                assert abs(score.mean_sgcs - own) <= 1e-12
                assert abs(score.robustness - robust) <= 1e-12
                assert score.flops == flops
                assert score.storage_bytes == storage
                expected_eligible = (
                    own >= self.CRITERIA.sgcs_floor
                    and flops <= self.CRITERIA.flops_budget
                    and storage <= self.CRITERIA.storage_budget_bytes
                    and robust >= self.CRITERIA.robustness_floor
                )
                assert score.eligible == expected_eligible

            eligible = [
                (own, -i)
                for i, (own, robust, flops, storage) in enumerate(oracle_rows)
                if report.scores[i].eligible
            ]
            oracle_selected = -max(eligible)[1]
            assert report.selected_index == oracle_selected

            artifact2, report2 = derive_reference_model(
                self.CANDIDATES, self.SPEC, self.CRITERIA, self.SEED
            )
            assert report2.to_text() == report.to_text()
            assert report2.to_csv() == report.to_csv()
            assert artifact2.to_bytes() == artifact.to_bytes()


def make_store_package(rng, model_id, version, kind, descriptor_override=None):
    n = 4
    taps = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if descriptor_override is None:
        beam = rng.uniform(0.05, 1.0, size=n)
        beam = beam / beam.sum()
        doppler = float(rng.uniform(0.0, 0.3))
        snr = float(rng.uniform(0.0, 30.0))
    else:
        beam, doppler, snr = descriptor_override
    descriptor = ModelDescriptor(
        model_id=model_id,
        model_version=version,
        functionality_tag="csi-pred-h4"
        if kind is ModelKind.CSI_PREDICTOR
        else "csi-compress",
        associated_id=None if kind is ModelKind.CSI_PREDICTOR else "ae-ref",
        input_descriptor=InputDescriptor(
            mean_beam_power=np.asarray(beam, dtype=float),
            doppler_estimate=doppler,
            mean_snr_db=snr,
            window_len=40,
        ),
    )
    package = ModelPackage(
        descriptor=descriptor,
        kind=kind,
        parameters=[("taps", taps)],
        extra={"order": "1", "horizon_slots": "4", "num_antennas": str(n)},
    )
    return finalize_package(package)


class TestCriterion10:
    def test_corruption_detected_on_fetch(self, tmp_path):
        with criterion(10, "byte flips are caught; descriptor fetch matches a scan"):
            rng = np.random.default_rng(1010)

            registry = ModelRegistry(tmp_path / "flip")
            registry.store(
                make_store_package(rng, "m-flip", 1, ModelKind.CSI_PREDICTOR)
            )
            path = registry.package_path("m-flip", 1)
            pristine = path.read_bytes()
            for _ in range(100):
                position = int(rng.integers(0, len(pristine)))
                mask = int(rng.integers(1, 256))
                corrupted = bytearray(pristine)
                corrupted[position] ^= mask
                path.write_bytes(bytes(corrupted))
                with pytest.raises(IntegrityError):
                    registry.fetch_by_id("m-flip", 1)
            path.write_bytes(pristine)
            assert registry.fetch_by_id("m-flip", 1).descriptor.model_id == "m-flip"

            trials = 0
            for round_index in range(10):
                registry = ModelRegistry(tmp_path / f"scan{round_index}")
                shared_beam = rng.uniform(0.05, 1.0, size=4)
                shared_beam = shared_beam / shared_beam.sum()
                shared = (
                    shared_beam,
                    float(rng.uniform(0.0, 0.3)),
                    float(rng.uniform(0.0, 30.0)),
                )
                stored = []
                total = 0
                for i in range(int(rng.integers(1, 13))):
                    versions = int(rng.integers(1, 4))
                    if total + versions > 32:
                        break
                    kind = (
                        ModelKind.CSI_PREDICTOR
                        if rng.random() < 0.8
                        else ModelKind.CSI_ENCODER
                    )
                    override = shared if rng.random() < 0.3 else None
                    for version in range(1, versions + 1):
                        registry.store(
                            make_store_package(
                                rng, f"m-{round_index}-{i:02d}", version, kind, override
                            )
                        )
                        stored.append((f"m-{round_index}-{i:02d}", version))
                        total += 1
                for model_id, version in stored:
                    if rng.random() < 0.15:
                        registry.retire(model_id, version)

                for _ in range(10):
                    beam = rng.uniform(0.05, 1.0, size=4)
                    query = InputDescriptor(
                        mean_beam_power=beam / beam.sum(),
                        doppler_estimate=float(rng.uniform(0.0, 0.3)),
                        mean_snr_db=float(rng.uniform(0.0, 30.0)),
                        window_len=40,
                    )
                    max_divergence = float(rng.uniform(0.05, 1.2))
                    got = registry.fetch_by_descriptor(
                        query, ModelKind.CSI_PREDICTOR, max_divergence
                    )

                    candidates = []
                    for entry in registry.entries():
                        if entry.kind != "csi_predictor" or entry.status == "retired":
                            continue
                        package = registry.fetch_by_id(entry.model_id, entry.version)
                        divergence = descriptor_divergence(
                            query, package.descriptor.input_descriptor
                        )
                        candidates.append(
                            (divergence, -entry.version, entry.model_id, package)
                        )
                    if not candidates or min(candidates)[0] > max_divergence:
                        assert got is None
                    else:
                        best = min(candidates)
                        assert got is not None
                        package, divergence = got
                        assert package.descriptor.model_id == best[2]
                        assert package.descriptor.model_version == -best[1]
                        assert divergence == best[0]
                    trials += 1
            assert trials == 100


class TestCriterion11:
    def test_scenarios_byte_identical(self, timed_pairs):
        with criterion(11, "repeated runs emit byte-identical logs and metrics"):
            for name in ("canonical", "snr", "mild"):
                pair = timed_pairs[name]
                first_metrics = pair.first.metrics_text().encode("utf-8")
                second_metrics = pair.second.metrics_text().encode("utf-8")
                assert first_metrics == second_metrics
                first_events = pair.first.events_text().encode("utf-8")
                second_events = pair.second.events_text().encode("utf-8")
                assert first_events == second_events
                assert pair.first.summary == pair.second.summary
