import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.channel import (
    ChannelRegime,
    CsiMeasurements,
    generate_trace,
    measure_csi,
    ula_steering,
    unit_norm,
)
from lcmsim import container
from lcmsim.errors import DegenerateInputError, IntegrityError
from lcmsim.kpi import derive_input_descriptor, sgcs
from lcmsim.models import (
    RIDGE_SCALE,
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
    feedback_latents,
    finalize_package,
    fit_adaptation_delta,
    flops_for_parameters,
    new_package,
    predict_beams,
    predict_csi,
    predict_csi_rows,
    predictor_tag,
    stack_windows,
    storage_for_parameters,
    train_autoencoder_joint,
    train_beam_predictor,
    train_predictor,
    verify_package,
    _ridge_solve,
)
from lcmsim.kpi import InputDescriptor
from lcmsim.streams import stable_id


def random_unit(rng, n):
    return unit_norm(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def static_history(w, count, snr=math.inf):
    return CsiMeasurements([w] * count, [snr] * count)


def trace_history(doppler=0.05, slots=400, n_ant=16, seed=3):
    trace = generate_trace([(0, ChannelRegime("r", 6, doppler, 1.2, math.inf))], slots, n_ant, seed)
    return CsiMeasurements(trace.true_precoders, np.full(slots, math.inf))


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
        history = CsiMeasurements([unit_norm(g * steer) for g in gains], np.full(slots, math.inf))
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


def ridge_reference(features, targets):
    """The ridge solve as a formula: conjugate twice, add lam * I out of place."""
    gram = features.conj().T @ features
    dim = gram.shape[0]
    lam = RIDGE_SCALE * float(np.trace(gram).real) / dim
    return np.linalg.solve(gram + lam * np.eye(dim), features.conj().T @ targets)


class TestRidgeSolve:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_equals_the_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(31)
        for _ in range(40):
            rows, dim, out = (int(v) for v in rng.integers(1, [40, 12, 5], endpoint=True))
            shape = (rows + dim, dim)
            features = rng.standard_normal(shape).astype(dtype)
            targets = rng.standard_normal((rows + dim, out)).astype(dtype)
            if dtype is np.complex128:
                features += 1j * rng.standard_normal(shape)
                targets += 1j * rng.standard_normal(targets.shape)
            features[:, rng.random(dim) < 0.3] = 0.0
            if not features.any():
                features[0, 0] = 1.0
            got = _ridge_solve(features, targets)
            assert got.tobytes() == ridge_reference(features, targets).tobytes()

    def test_complex_zero_column_gives_the_reference_signed_zeros(self):
        # A zero column next to purely real or imaginary ones puts -0.0 in
        # the Gram; gram + lam * I turns it into +0.0, and some solutions
        # carry that sign into a zero coefficient.
        rng = np.random.default_rng(5)
        axes = np.array([1, -1, 1j, -1j])
        negative_zeros = 0
        for _ in range(200):
            rows = int(rng.integers(1, 6))
            features = axes[rng.integers(4, size=3)] * (1 + rng.random((rows, 3)))
            features[:, rng.integers(3)] = 0.0
            targets = axes[rng.integers(4, size=2)] * (1 + rng.random((rows, 2)))
            gram = (features.conj().T @ features).view(np.float64)
            negative_zeros += np.signbit(gram[gram == 0]).any()
            got = _ridge_solve(features, targets)
            assert got.tobytes() == ridge_reference(features, targets).tobytes()
        assert negative_zeros


def predictor_reference(history, cfg, beam_powers=None):
    """train_predictor as a formula: the stack and index-array targets
    kept together through the ridge, the stack hashed as ``.tobytes()``."""
    vectors = history.precoders
    newest = np.arange(cfg.order - 1, len(vectors) - cfg.horizon_slots)
    features = stack_windows(vectors, cfg.order, newest)
    taps = ridge_reference(features, vectors[newest + cfg.horizon_slots]).T.copy()
    extra = {
        "order": str(cfg.order),
        "horizon_slots": str(cfg.horizon_slots),
        "num_antennas": str(vectors.shape[1]),
    }
    return new_package(
        ModelKind.CSI_PREDICTOR, [("taps", taps)], extra,
        stable_id("pred", features.tobytes(), repr(cfg)), predictor_tag(cfg.horizon_slots),
        derive_input_descriptor(history, beam_powers),
    )


class TestPredictorBytes:
    @pytest.mark.parametrize(
        "n_ant, cfg", [(32, PredictorConfig(order=4, horizon_slots=2)), (64, PredictorConfig())]
    )
    @pytest.mark.parametrize("with_beam_powers", [False, True])
    def test_package_equals_the_reference_bit_for_bit(self, n_ant, cfg, with_beam_powers):
        # A window of the run's measurements, as the loop trains on, and
        # the same rows in Fortran order (targets that are no C-order view).
        slots, start, stop = 360, 40, 340
        trace = generate_trace([(0, ChannelRegime("r", 6, 0.05, 1.2, 12.0))], slots, n_ant, 17)
        run = measure_csi(trace.true_precoders, trace.snr_db, np.arange(slots), 17)
        window = run.window(start, stop)
        fortran = CsiMeasurements(np.asfortranarray(window.precoders), window.snr_db)
        beam_powers = trace.per_beam_power[start:stop] if with_beam_powers else None
        for history in (window, fortran):
            got = train_predictor(history, cfg, beam_powers=beam_powers)
            want = predictor_reference(history, cfg, beam_powers)
            assert got.descriptor.model_id == want.descriptor.model_id
            assert got.param("taps").tobytes() == want.param("taps").tobytes()
            assert got.to_bytes() == want.to_bytes()


class TestTrainingMemory:
    def test_predictor_peak_is_features_conjugate_and_gram(self):
        # 64 antennas, order 8: a 512-wide ridge, as the 64-antenna loop fits.
        cfg, n_ant, slots = PredictorConfig(), 64, 400
        history = trace_history(slots=slots, n_ant=n_ant)
        train_predictor(history, cfg)
        tracemalloc.start()
        try:
            train_predictor(history, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = slots - cfg.order - cfg.horizon_slots + 1
        dim = cfg.order * n_ant
        features = rows * dim * np.dtype(np.complex128).itemsize
        gram = dim * dim * np.dtype(np.complex128).itemsize
        assert peak <= 1.1 * (2 * features + gram)

    def test_window_stack_is_freed_before_the_solve(self, monkeypatch):
        # np.linalg.solve copies the Gram into a LAPACK workspace that
        # tracemalloc does not see, so the peak test above cannot tell
        # whether the 3 MiB window stack is still alive beside it.
        cfg, n_ant, slots = PredictorConfig(), 64, 400
        history = trace_history(slots=slots, n_ant=n_ant)
        solve, held = np.linalg.solve, []

        def recording_solve(a, b):
            held.append(tracemalloc.get_traced_memory()[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_predictor(history, cfg)
        finally:
            tracemalloc.stop()
        rows = slots - cfg.order - cfg.horizon_slots + 1
        dim = cfg.order * n_ant
        itemsize = np.dtype(np.complex128).itemsize
        features, gram, rhs = (rows * dim * itemsize, dim * dim * itemsize,
                               dim * n_ant * itemsize)
        [at_solve] = held
        # The Gram and the right-hand side, and less than half the stack.
        assert at_solve - before < gram + rhs + features / 2, at_solve - before

    def test_gram_is_freed_before_the_taps_are_copied(self, monkeypatch):
        # The taps outlive the fit, in the package. Copied while the Gram
        # is held, they land above it on the heap and keep its pages
        # resident after the fit, which tracemalloc cannot see either.
        solve, refs, held = np.linalg.solve, [], []

        class Coefficients(np.ndarray):
            def copy(self, *args, **kwargs):
                held.append([ref() is not None for ref in refs])
                return np.ndarray.copy(self, *args, **kwargs).view(np.ndarray)

        def recording_solve(a, b):
            refs.extend([weakref.ref(a), weakref.ref(b)])
            return solve(a, b).view(Coefficients)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        train_predictor(trace_history(slots=120, n_ant=32), PredictorConfig())
        assert held == [[False, False]]  # neither the Gram nor the right-hand side


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
            z_hat = feedback_latents(codes, bits, dec.param("quant_ranges"))
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

    def test_header_rank_must_match_the_left_factor(self):
        rng = np.random.default_rng(17)
        delta = fit_adaptation_delta(self.train_base(), self.pairs_from(rng, 60, 16), rank=2)
        header, matrices, _ = container.read_container(delta.to_bytes())
        assert header["rank"] == "2"
        data = container.write_container(dict(header, rank="3"), matrices)
        with pytest.raises(IntegrityError, match="header rank 3, left factor rank 2"):
            DeltaPackage.from_bytes(data)


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
