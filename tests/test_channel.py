import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim import channel
from lcmsim.channel import (
    ChannelRegime,
    CsiMeasurements,
    dft_codebook,
    generate_trace,
    measure_csi,
    row_norms,
    ula_steering,
    unit_norm,
)
from lcmsim.kpi import sgcs
from lcmsim.streams import substream, substream_normals


def regime(rid="urban", paths=4, doppler=0.05, spread=1.0, snr=20.0):
    return ChannelRegime(rid, paths, doppler, spread, snr)


def make_trace(schedule, slots=200, n_ant=8, seed=7):
    return generate_trace(schedule, slots, n_ant, seed)


def measure_one(w, snr_db, slot, seed):
    """One slot's measured precoder, from a one-row stack."""
    return measure_csi(np.asarray(w)[np.newaxis], [snr_db], [slot], seed).precoders[0]


class TestGenerateTrace:
    def test_deterministic_bytes(self):
        a = make_trace([(0, regime())])
        b = make_trace([(0, regime())])
        assert a.true_precoders.tobytes() == b.true_precoders.tobytes()
        assert a.per_beam_power.tobytes() == b.per_beam_power.tobytes()
        assert a.snr_db.tobytes() == b.snr_db.tobytes()

    def test_seed_changes_trace(self):
        a = make_trace([(0, regime())], seed=1)
        b = make_trace([(0, regime())], seed=2)
        assert a.true_precoders.tobytes() != b.true_precoders.tobytes()

    def test_precoders_unit_norm(self):
        trace = make_trace([(0, regime())])
        norms = np.linalg.norm(trace.true_precoders, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zero_doppler_freezes_channel(self):
        trace = make_trace([(0, regime(doppler=0.0))], slots=50)
        w0 = trace.true_precoders[0]
        for s in range(50):
            assert sgcs(trace.true_precoders[s], w0) > 1.0 - 1e-9

    def test_single_path_matches_steering_vector(self):
        # One path in a vanishing angular sector: every slot's precoder is
        # that path's steering vector up to a global phase.
        trace = make_trace([(0, regime(paths=1, spread=1e-9))], slots=20)
        rng = substream(7, "chan.angles.urban")
        angle = rng.uniform(-0.5e-9, 0.5e-9, 1)[0]
        steer = ula_steering(8, angle)
        for s in range(20):
            assert sgcs(trace.true_precoders[s], steer) > 1.0 - 1e-9

    def test_lag1_autocorrelation_decreases_with_doppler(self):
        means = []
        for doppler in (0.05, 0.15, 0.3):
            trace = make_trace(
                [(0, regime(doppler=doppler, paths=8))], slots=10_000, n_ant=16
            )
            w = trace.true_precoders
            inner = np.abs(np.sum(w[:-1].conj() * w[1:], axis=1))
            means.append(float(inner.mean()))
        assert means[0] > means[1] > means[2]

    def test_regime_boundaries_respected(self):
        # Zero Doppler freezes regime "a" exactly; regime "b" re-seeds the
        # gains at slot 100 and moves from there on.
        sched = [(0, regime("a", doppler=0.0)), (100, regime("b", doppler=0.2))]
        w = make_trace(sched, slots=200).true_precoders
        assert all(np.array_equal(w[s], w[0]) for s in range(100))
        assert not np.allclose(w[100], w[99])
        assert not np.allclose(w[101], w[100])

    def test_beam_power_tracks_aligned_beam(self):
        # A single-path channel pointed exactly along a DFT beam puts the
        # most power on that beam.
        n = 8
        cb = dft_codebook(n)
        trace = make_trace([(0, regime(paths=1, spread=1e-9))], slots=5, n_ant=n)
        steer = trace.true_precoders[0]
        expected = int(np.argmax(np.abs(cb.conj().T @ steer) ** 2))
        assert int(np.argmax(trace.per_beam_power[0])) == expected

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            make_trace([])
        with pytest.raises(ValueError):
            make_trace([(5, regime())])
        with pytest.raises(ValueError):
            make_trace([(0, regime()), (0, regime("b"))])
        with pytest.raises(ValueError):
            make_trace([(0, regime(paths=9))], n_ant=8)
        with pytest.raises(ValueError):
            make_trace([(0, regime(doppler=0.5))])
        with pytest.raises(ValueError):
            make_trace([(0, regime()), (400, regime("b"))], slots=300)


class TestInjectShift:
    def test_autocorrelation_drops_after_shift(self):
        sched = [(0, regime("a", doppler=0.01)), (100, regime("a", doppler=0.2))]
        trace = make_trace(sched, slots=200)
        w = trace.true_precoders
        inner = np.abs(np.sum(w[:-1].conj() * w[1:], axis=1))
        assert inner[:99].mean() > inner[101:].mean()


class TestMeasureCsi:
    def test_infinite_snr_is_exact(self):
        trace = make_trace([(0, regime(snr=math.inf))], slots=3)
        m = measure_one(trace.true_precoders[1], math.inf, 1, 7)
        assert np.array_equal(m, trace.true_precoders[1])

    def test_measurement_unit_norm(self):
        trace = make_trace([(0, regime())], slots=3)
        m = measure_one(trace.true_precoders[0], 10.0, 0, 7)
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    def test_deterministic_per_slot(self):
        w = unit_norm(np.arange(1, 9) + 1j)
        a = measure_one(w, 10.0, 5, 7)
        b = measure_one(w, 10.0, 5, 7)
        c = measure_one(w, 10.0, 6, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_sgcs_matches_monte_carlo_oracle(self):
        # Independent oracle: draw the same noise model with a separate
        # generator and average SGCS directly.
        n, snr_db, draws = 16, 20.0, 10_000
        rng = np.random.default_rng(123)
        w = unit_norm(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        var = 10.0 ** (-snr_db / 10.0) / n
        oracle_vals = []
        for _ in range(draws):
            noise = math.sqrt(var / 2) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            m = w + noise
            oracle_vals.append(
                abs(np.vdot(m, w)) ** 2
                / (np.vdot(m, m).real * np.vdot(w, w).real)
            )
        oracle = float(np.mean(oracle_vals))

        stack = measure_csi(np.tile(w, (draws, 1)), np.full(draws, snr_db), np.arange(draws), 99)
        measured = [sgcs(m, w) for m in stack.precoders]
        assert abs(float(np.mean(measured)) - oracle) < 0.02


def reference_measurement(w, snr_db, slot, seed):
    """The per-slot measurement model drawn from its own substream."""
    if math.isinf(snr_db) and snr_db > 0:
        return w.copy()
    n = w.size
    var = 10.0 ** (-snr_db / 10.0) / n
    rng = substream(seed, "meas", slot)
    noise = math.sqrt(var / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v = w + noise
    return v / np.linalg.norm(v)


class TestStackedMeasurement:
    @pytest.mark.parametrize("seed", [7, 2**40 + 3])
    def test_rows_equal_single_slot_calls(self, seed):
        trace = make_trace([(0, regime(snr=20.0)), (60, regime(snr=-3.0))], slots=120)
        snr = trace.snr_db.copy()
        snr[90:] = math.inf
        slots = np.arange(trace.num_slots)
        stacked = measure_csi(trace.true_precoders, snr, slots, seed)
        assert stacked.precoders.shape == trace.true_precoders.shape
        for t in slots.tolist():
            one = measure_one(trace.true_precoders[t], float(snr[t]), t, seed)
            ref = reference_measurement(trace.true_precoders[t], float(snr[t]), t, seed)
            assert stacked.precoders[t].tobytes() == one.tobytes()
            assert one.tobytes() == ref.tobytes()
        assert np.array_equal(stacked.precoders[90:], trace.true_precoders[90:])

    def test_slot_order_and_chunking_do_not_matter(self, monkeypatch):
        trace = make_trace([(0, regime())], slots=40)
        slots = np.arange(40)[::-1]
        whole = measure_csi(trace.true_precoders[slots], trace.snr_db[slots], slots, 3)
        monkeypatch.setattr(channel, "_MEASURE_CHUNK", 16)
        chunked = measure_csi(trace.true_precoders[slots], trace.snr_db[slots], slots, 3)
        assert chunked.precoders.tobytes() == whole.precoders.tobytes()
        for row, t in zip(whole.precoders, slots.tolist()):
            single = measure_one(trace.true_precoders[t], float(trace.snr_db[t]), t, 3)
            assert row.tobytes() == single.tobytes()

    def test_shapes_checked(self):
        w = np.ones((3, 4), complex) / 2
        with pytest.raises(ValueError):
            measure_csi(w[0], [20.0], [0], 1)
        with pytest.raises(ValueError):
            measure_csi(w, [20.0] * 2, [0, 1, 2], 1)
        with pytest.raises(ValueError):
            CsiMeasurements(w, [20.0] * 2)
        measured = measure_csi(w, [20.0] * 3, [4, 5, 6], 1)
        window = measured.window(1, 3)
        assert len(window) == 2
        for got, whole in ((window.precoders, measured.precoders), (window.snr_db, measured.snr_db)):
            assert np.shares_memory(got, whole) and got.tobytes() == whole[1:3].tobytes()


class TestUnitNorm:
    def test_norm_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 7, 32, 64):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for x in (v, v[::2], v.real):
                assert unit_norm(x).tobytes() == (x / np.linalg.norm(x)).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        v = np.ones(4, dtype=complex)
        v[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            unit_norm(v)
        v[2] = complex(0.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            unit_norm(v)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            unit_norm(np.zeros(4, dtype=complex))


def reference_trace(schedule, num_slots, n, codebook, seed):
    """generate_trace's arithmetic one slot at a time: the gain recursion,
    one gemv per product and one norm per row."""
    codebook_h = codebook.conj().T
    channels = np.empty((num_slots, n), complex)
    power = np.empty((num_slots, codebook.shape[1]))
    for start, end, reg in channel._segment_bounds(schedule, num_slots):
        p = reg.num_paths
        angles = substream(seed, f"chan.angles.{reg.regime_id}").uniform(
            -reg.angle_spread / 2, reg.angle_spread / 2, p
        )
        rates = substream(seed, f"chan.rates.{reg.regime_id}").uniform(-1.0, 1.0, p)
        steering = np.stack([ula_steering(n, a) for a in angles], axis=1)
        rotation = np.exp(2j * np.pi * reg.doppler_norm * rates)
        rho = math.cos(2 * math.pi * channel.AGING_FACTOR * reg.doppler_norm)
        draws = substream_normals(seed, "chan.gains", range(start, end), 2 * p)
        noise = draws[:, :p] + 1j * draws[:, p:]
        innovations = math.sqrt(max(0.0, 1.0 - rho * rho) / (2 * p)) * noise
        gains = noise[0] / math.sqrt(2 * p)
        for s in range(start, end):
            if s > start:
                gains = rotation * (rho * gains) + innovations[s - start]
            channels[s] = steering @ gains
            power[s] = np.abs(codebook_h @ channels[s])
    precoders = np.stack([h / np.linalg.norm(h) for h in channels])
    return precoders, power**2


class TestStackedKernels:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        st.sampled_from([8, 16, 32, 33, 64]),
        st.sampled_from([1, 2000, 2100]),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.01, 0.15]),
        st.integers(0, 2**32 - 1),
    )
    def test_trace_equals_the_per_slot_reference(self, n, slots, paths, doppler, seed):
        schedule = [(0, regime("a", paths, doppler))]
        if slots > 1:
            schedule.append((slots // 2, regime("b", 2, 0.3)))
        trace = generate_trace(schedule, slots, n, seed)
        precoders, power = reference_trace(schedule, slots, n, dft_codebook(n), seed)
        assert trace.true_precoders.tobytes() == precoders.tobytes()
        assert trace.per_beam_power.tobytes() == power.tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        st.sampled_from([8, 16, 32, 33, 64]),
        st.sampled_from([1, 2000]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_normalized_rows_equal_the_per_row_reference(self, n, rows, real, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, n))
        if not real:
            x = x + 1j * rng.standard_normal((rows, n))
        norms = [np.linalg.norm(v) for v in x]
        assert row_norms(x).tobytes() == np.array(norms).tobytes()
        want = np.stack([v / nv for v, nv in zip(x, norms)])
        assert unit_norm(x).tobytes() == want.tobytes()
        assert channel._normalize_rows(x.copy()).tobytes() == want.tobytes()
