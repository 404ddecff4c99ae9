import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.channel import (
    ChannelRegime,
    CsiMeasurements,
    dft_codebook,
    generate_trace,
    ula_steering,
    unit_norm,
)
from lcmsim.errors import DegenerateInputError
from lcmsim.kpi import sgcs
from lcmsim.models import (
    AutoencoderConfig,
    CsiPredictor,
    DeltaPackage,
    ModelDescriptor,
    ModelKind,
    ModelPackage,
    PredictorConfig,
    apply_delta,
    decode_csi,
    encode_csi,
    finalize_package,
    fit_adaptation_delta,
    flops_for_parameters,
    predict_beams,
    predict_csi,
    predict_csi_rows,
    stack_windows,
    storage_for_parameters,
    train_autoencoder_joint,
    train_beam_predictor,
    train_predictor,
    verify_package,
)
from lcmsim.kpi import InputDescriptor


def random_unit(rng, n):
    return unit_norm(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def static_history(w, count, snr=math.inf):
    return CsiMeasurements(range(count), [w] * count, [snr] * count)


def trace_history(doppler=0.05, slots=400, n_ant=16, seed=3):
    trace = generate_trace(
        [(0, ChannelRegime("r", 6, doppler, 1.2, math.inf))],
        slots,
        n_ant,
        dft_codebook(n_ant),
        seed,
    )
    return CsiMeasurements(range(slots), trace.true_precoders, np.full(slots, math.inf))


class TestPredictor:
    def test_static_channel_perfect_prediction(self):
        rng = np.random.default_rng(1)
        w = random_unit(rng, 8)
        model = train_predictor(static_history(w, 60), PredictorConfig(2, 4))
        pred = predict_csi(CsiPredictor.of(model), static_history(w, 2).precoders)
        assert sgcs(pred, w) > 1.0 - 1e-6

    def test_single_path_tap_matches_least_squares_oracle(self):
        # Single-path channel with AR(1) phase gains: the trained map is
        # rank one and its coefficient must equal the scalar closed-form
        # ridge solution computed independently below.
        rng = np.random.default_rng(7)
        n, slots, rho = 8, 300, math.cos(2 * math.pi * 0.05)
        steer = ula_steering(n, 0.3)
        g = 1.0 + 0j
        gains = []
        for _ in range(slots):
            gains.append(g)
            g = rho * g + math.sqrt(1 - rho * rho) * (
                rng.standard_normal() + 1j * rng.standard_normal()
            ) / math.sqrt(2)
        history = CsiMeasurements(
            range(slots), [unit_norm(g * steer) for g in gains], np.full(slots, math.inf)
        )
        model = train_predictor(history, PredictorConfig(1, 1))
        taps = model.param("taps")
        learned = complex(steer.conj() @ taps @ steer)

        vecs = history.precoders
        num = sum(np.vdot(vecs[t], vecs[t + 1]) for t in range(slots - 1))
        energy = sum(np.vdot(v, v).real for v in vecs[:-1])
        lam = 1e-6 * energy / n
        oracle = num / (energy + lam)
        assert abs(learned - oracle) < 1e-3

    def test_identity_taps_return_latest_measurement(self):
        n = 6
        desc = ModelDescriptor(
            "ident", 1, "csi-pred-h1", None,
            InputDescriptor(np.full(n, 1 / n), 0.0, math.inf, 1),
        )
        model = finalize_package(
            ModelPackage(
                descriptor=desc,
                kind=ModelKind.CSI_PREDICTOR,
                parameters=[("taps", np.eye(n, dtype=complex))],
                extra={"order": "1", "horizon_slots": "1", "num_antennas": str(n)},
            )
        )
        rng = np.random.default_rng(2)
        w = random_unit(rng, n)
        out = predict_csi(CsiPredictor.of(model), static_history(w, 3).precoders)
        assert np.allclose(out, w, atol=1e-12)

    def test_tracks_rotating_channel(self):
        history = trace_history(doppler=0.1, slots=500)
        predictor = CsiPredictor.of(train_predictor(history.window(0, 400), PredictorConfig(2, 4)))
        measured = history.precoders
        scores = []
        for t in range(420, 496):
            pred = predict_csi(predictor, measured[: t + 1])
            scores.append(sgcs(pred, measured[t + 4]))
        assert float(np.mean(scores)) > 0.95

    def test_history_too_short(self):
        rng = np.random.default_rng(3)
        w = random_unit(rng, 4)
        with pytest.raises(ValueError):
            train_predictor(static_history(w, 10), PredictorConfig(4, 4))

    def test_package_checksum_fresh_after_training(self):
        model = train_predictor(trace_history(slots=100), PredictorConfig(2, 2))
        assert verify_package(model)

    def test_round_trip_serialization(self):
        model = train_predictor(trace_history(slots=100), PredictorConfig(2, 2))
        clone = ModelPackage.from_bytes(model.to_bytes())
        assert clone.descriptor.model_id == model.descriptor.model_id
        assert clone.descriptor.payload_checksum == model.descriptor.payload_checksum
        assert np.array_equal(clone.param("taps"), model.param("taps"))
        assert clone.extra == model.extra
        d = clone.descriptor.input_descriptor
        assert np.array_equal(
            d.mean_beam_power, model.descriptor.input_descriptor.mean_beam_power
        )


class TestAutoencoder:
    def make_targets(self, rng, samples=256, n=32, paths=4):
        # Low-rank-ish target population: a few fixed directions with
        # random complex weights.
        basis = np.stack([ula_steering(n, a) for a in rng.uniform(-1, 1, paths)], 1)
        out = []
        for _ in range(samples):
            g = rng.standard_normal(paths) + 1j * rng.standard_normal(paths)
            out.append(unit_norm(basis @ g))
        return np.stack(out)

    def test_first_singular_vector_activates_one_coefficient(self):
        rng = np.random.default_rng(4)
        targets = self.make_targets(rng)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 32))
        u = np.linalg.svd(targets.T, full_matrices=False)[0]
        z = encode_csi(enc, u[:, 0])
        mags = np.abs(z)
        assert mags[0] > 1.0 - 1e-9
        assert np.all(mags[1:] < 1e-9)

    def test_phase_invariant_reconstruction(self):
        rng = np.random.default_rng(5)
        targets = self.make_targets(rng)
        enc, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 32))
        w = targets[7]
        out1 = decode_csi(dec, encode_csi(enc, w))
        out2 = decode_csi(dec, encode_csi(enc, np.exp(1j * 1.1) * w))
        assert sgcs(out1, out2) > 1.0 - 1e-9

    def test_reconstruction_error_non_increasing_in_latent_dim(self):
        rng = np.random.default_rng(6)
        targets = self.make_targets(rng, samples=200, paths=12)
        errors = []
        for latent in (1, 2, 4, 8, 16, 32):
            enc, _ = train_autoencoder_joint(
                targets, AutoencoderConfig(latent, 0, 32)
            )
            basis = enc.param("basis")
            recon = (targets @ basis.conj()) @ basis.T
            errors.append(float(np.mean(np.abs(recon - targets) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_shared_associated_id(self):
        rng = np.random.default_rng(7)
        enc, dec = train_autoencoder_joint(
            self.make_targets(rng), AutoencoderConfig(4, 0, 32)
        )
        assert enc.descriptor.associated_id is not None
        assert enc.descriptor.associated_id == dec.descriptor.associated_id

    def test_quantized_round_trip_error_bounded(self):
        rng = np.random.default_rng(8)
        targets = self.make_targets(rng)
        bits = 8
        enc, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, bits, 32))
        ranges = enc.param("quant_ranges").ravel()
        step = 2 * ranges / (1 << bits)
        basis = enc.param("basis")
        for w in targets[:50]:
            z = basis.conj().T @ w
            codes = encode_csi(enc, w)
            from lcmsim.models import decode_feedback_latent

            z_hat = decode_feedback_latent(dec, codes)
            assert np.all(np.abs(z_hat.real - z.real) <= step / 2 + 1e-12)
            assert np.all(np.abs(z_hat.imag - z.imag) <= step / 2 + 1e-12)

    def test_out_of_range_latents_clamp(self):
        rng = np.random.default_rng(9)
        targets = self.make_targets(rng)
        enc, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, 4, 32))
        big = 50.0 * targets[0]
        codes = encode_csi(enc, big)
        assert codes.min() >= 0 and codes.max() <= 15
        out = decode_csi(dec, codes)
        assert np.isfinite(out).all()

    def test_zero_feedback_degenerate(self):
        rng = np.random.default_rng(10)
        _, dec = train_autoencoder_joint(
            self.make_targets(rng), AutoencoderConfig(4, 0, 32)
        )
        with pytest.raises(DegenerateInputError):
            decode_csi(dec, np.zeros(4, complex))

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            train_autoencoder_joint(
                np.ones((3, 32), complex), AutoencoderConfig(4, 0, 32)
            )


class TestDelta:
    def train_base(self):
        # Order 4 so even a full-rank correction stays below the base size.
        return train_predictor(trace_history(slots=200), PredictorConfig(4, 2))

    def pairs_from(self, rng, count, n, transform=None):
        pairs = []
        for _ in range(count):
            p = random_unit(rng, n)
            g = p if transform is None else unit_norm(transform @ p)
            pairs.append((p, g))
        return pairs

    def test_identity_pairs_give_null_correction(self):
        rng = np.random.default_rng(11)
        base = self.train_base()
        pairs = self.pairs_from(rng, 120, 16)
        delta = fit_adaptation_delta(base, pairs, rank=16)
        corr = delta.left @ delta.right.conj().T
        assert np.max(np.abs(corr)) < 1e-6
        assert np.max(np.abs(delta.bias)) < 1e-6

    def test_unitary_rotation_recovered_at_full_rank(self):
        rng = np.random.default_rng(12)
        base = self.train_base()
        q, _ = np.linalg.qr(
            rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        )
        pairs = self.pairs_from(rng, 200, 16, transform=q)
        delta = fit_adaptation_delta(base, pairs, rank=16)
        eye = np.eye(16)
        for p, g in pairs[:20]:
            corrected = (eye + delta.left @ delta.right.conj().T) @ p + delta.bias
            assert sgcs(corrected, g) > 1.0 - 1e-6

    def test_delta_smaller_than_base(self):
        rng = np.random.default_rng(13)
        base = self.train_base()
        delta = fit_adaptation_delta(base, self.pairs_from(rng, 60, 16), rank=4)
        assert delta.size_bytes < base.descriptor.storage_bytes

    def test_apply_delta_bumps_version_and_keeps_base(self):
        rng = np.random.default_rng(14)
        base = self.train_base()
        base_bytes = base.to_bytes()
        delta = fit_adaptation_delta(base, self.pairs_from(rng, 60, 16), rank=2)
        updated = apply_delta(base, delta)
        assert updated.descriptor.model_version == base.descriptor.model_version + 1
        assert updated.descriptor.model_id == base.descriptor.model_id
        assert verify_package(updated)
        assert base.to_bytes() == base_bytes

    def test_zero_delta_identical_outputs(self):
        base = self.train_base()
        n = base.param("taps").shape[0]
        delta = DeltaPackage(
            base.descriptor.model_id,
            base.descriptor.model_version,
            rank=1,
            left=np.zeros((n, 1), complex),
            right=np.zeros((n, 1), complex),
            bias=np.zeros(n, complex),
        )
        updated = apply_delta(base, delta)
        measured = trace_history(slots=40).precoders
        a = predict_csi(CsiPredictor.of(base), measured)
        b = predict_csi(CsiPredictor.of(updated), measured)
        assert np.allclose(a, b, atol=1e-12)

    def test_mismatched_base_rejected(self):
        rng = np.random.default_rng(15)
        base = self.train_base()
        delta = fit_adaptation_delta(base, self.pairs_from(rng, 60, 16), rank=2)
        delta.base_model_version += 1
        with pytest.raises(ValueError):
            apply_delta(base, delta)

    def test_insufficient_pairs_rejected(self):
        rng = np.random.default_rng(16)
        base = self.train_base()
        with pytest.raises(ValueError):
            fit_adaptation_delta(base, self.pairs_from(rng, 6, 16), rank=4)

    def test_delta_round_trip(self):
        rng = np.random.default_rng(17)
        base = self.train_base()
        delta = fit_adaptation_delta(base, self.pairs_from(rng, 60, 16), rank=2)
        clone = DeltaPackage.from_bytes(delta.to_bytes())
        assert clone.rank == delta.rank
        assert np.array_equal(clone.left, delta.left)
        assert np.array_equal(clone.bias, delta.bias)
        assert clone.size_bytes == delta.size_bytes


def reference_prediction(model, recent):
    """Predictor arithmetic straight from the package, newest first."""
    order = int(model.extra["order"])
    stacked = np.concatenate([recent[-1 - k] for k in range(order)])
    out = model.param("taps") @ stacked
    if model.has_param("delta_left"):
        right = model.param("delta_right")
        out = out + model.param("delta_left") @ (right.conj().T @ out) + model.param(
            "delta_bias"
        ).ravel()
    return out / np.linalg.norm(out)


class TestCsiPredictor:
    def models(self):
        base = train_predictor(trace_history(slots=200), PredictorConfig(4, 2))
        rng = np.random.default_rng(21)
        transform = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
        pairs = TestDelta().pairs_from(rng, 60, 16, transform)
        return base, apply_delta(base, fit_adaptation_delta(base, pairs, rank=3))

    def test_matches_package_arithmetic_bit_for_bit(self):
        measured = trace_history(doppler=0.1, slots=120).precoders
        for model in self.models():
            resolved = CsiPredictor.of(model)
            assert (resolved.delta_left is not None) == model.has_param("delta_left")
            for t in range(3, 120, 7):
                want = reference_prediction(model, measured[: t + 1]).tobytes()
                window = measured[t - 3 : t + 1]
                assert predict_csi(resolved, window).tobytes() == want
                assert predict_csi(resolved, measured[: t + 1]).tobytes() == want

    def test_rejects_other_kinds_and_short_windows(self):
        enc, _ = train_autoencoder_joint(
            trace_history(slots=40).precoders,
            AutoencoderConfig(latent_dim=4, bits_per_dim=0, input_dim=16),
        )
        with pytest.raises(ValueError):
            CsiPredictor.of(enc)
        resolved = CsiPredictor.of(self.models()[0])
        with pytest.raises(ValueError):
            predict_csi(resolved, np.ones((3, 16), complex))


def window_reference(measured, order, at):
    """The predictor input for slot ``at``, one concatenation per slot."""
    return np.concatenate([measured[at - k] for k in range(order)])


class TestPredictionRows:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        st.sampled_from([8, 16, 32, 33, 64]),
        st.sampled_from([1, 4, 8]),
        st.sampled_from([1, 2000]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_scalar_reference(self, n, order, rows, with_delta, seed):
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        measured = cplx(rows + order - 1, n)
        predictor = CsiPredictor(order, cplx(n, order * n))
        if with_delta:
            rank = min(n, 3)
            right = cplx(n, rank)
            predictor = CsiPredictor(order, predictor.taps, cplx(n, rank), right.conj().T, cplx(n))
        newest = np.arange(order - 1, len(measured))
        stacked = np.stack([window_reference(measured, order, t) for t in newest])
        assert stack_windows(measured, order, newest).tobytes() == stacked.tobytes()
        want = []
        for x in stacked:
            out = predictor.taps @ x
            if with_delta:
                out = out + predictor.delta_left @ (predictor.delta_right_h @ out) + predictor.delta_bias
            want.append(out / np.linalg.norm(out))
        got = predict_csi_rows(predictor, measured, newest)
        assert got.tobytes() == np.stack(want).tobytes()
        # predict_csi is the one-row case.
        assert predict_csi(predictor, measured).tobytes() == want[-1].tobytes()

    def test_short_windows_and_zero_outputs_rejected(self):
        predictor = CsiPredictor(4, np.ones((16, 64), complex))
        measured = np.ones((10, 16), complex)
        with pytest.raises(ValueError, match="need 4"):
            predict_csi_rows(predictor, measured, [2, 5])
        with pytest.raises(DegenerateInputError):
            predict_csi_rows(CsiPredictor(4, np.zeros((16, 64), complex)), measured, [5])


class TestBeamPredictor:
    def test_full_subset_is_identity(self):
        rng = np.random.default_rng(18)
        rows = rng.random((200, 8)) + 0.1
        model = train_beam_predictor(rows, list(range(8)), 8)
        sample = rows[3]
        assert np.allclose(predict_beams(model, sample), sample, atol=1e-6)

    def test_learns_linear_structure(self):
        rng = np.random.default_rng(19)
        hidden = rng.random((300, 3))
        mix = rng.random((3, 16))
        rows = hidden @ mix
        model = train_beam_predictor(rows, [0, 5, 11], 16)
        pred = predict_beams(model, rows[42][[0, 5, 11]])
        assert np.allclose(pred, rows[42], atol=1e-3)

    def test_subset_validation(self):
        rows = np.ones((10, 4))
        with pytest.raises(ValueError):
            train_beam_predictor(rows, [], 4)
        with pytest.raises(ValueError):
            train_beam_predictor(rows, [4], 4)


class TestAccounting:
    def test_flops_convention(self):
        params = [("a", np.ones((4, 8), complex)), ("b", np.ones((2, 3)))]
        assert flops_for_parameters(params) == 2 * 4 * 8 * 8 + 2 * 2 * 3 * 2

    def test_storage_convention(self):
        params = [("a", np.ones((4, 8), complex)), ("b", np.ones((2, 3)))]
        assert storage_for_parameters(params) == 4 * 8 * 2 * 8 + 2 * 3 * 8
