import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.channel import CsiMeasurements, dft_codebook, unit_norm
from lcmsim.kpi import (
    BeamKpiConfig,
    InputDescriptor,
    beam_topk_accuracy,
    derive_input_descriptor,
    descriptor_divergence,
    descriptor_divergences,
    lag1_terms,
    misalignment_divergence,
    nmse,
    nmse_rows,
    sgcs,
    sgcs_rows,
)


def sgcs_oracle(p, t):
    # Straight transcription of the definition, scalar arithmetic only.
    num = 0 + 0j
    pn = tn = 0.0
    for a, b in zip(p, t):
        num += a.conjugate() * b
        pn += abs(a) ** 2
        tn += abs(b) ** 2
    return abs(num) ** 2 / (pn * tn)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestSgcs:
    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            p, t = random_vec(rng, n), random_vec(rng, n)
            assert abs(sgcs(p, t) - sgcs_oracle(p, t)) < 1e-12

    def test_identical_vectors(self):
        v = unit_norm(np.array([1 + 2j, 3 - 1j, 0.5j]))
        assert abs(sgcs(v, v) - 1.0) < 1e-12

    def test_orthogonal_vectors(self):
        assert sgcs(np.array([1 + 0j, 0]), np.array([0, 1 + 0j])) < 1e-15

    @settings(max_examples=60, derandomize=True)
    @given(
        st.integers(2, 32),
        st.integers(0, 2**32 - 1),
        st.floats(-math.pi, math.pi),
        st.floats(0.01, 100.0),
    )
    def test_phase_and_scale_invariance(self, n, seed, phase, scale):
        rng = np.random.default_rng(seed)
        p, t = random_vec(rng, n), random_vec(rng, n)
        base = sgcs(p, t)
        assert abs(sgcs(p * scale * np.exp(1j * phase), t) - base) < 1e-9
        assert 0.0 <= base <= 1.0 + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            sgcs(np.ones(3, complex), np.ones(4, complex))
        with pytest.raises(ValueError):
            sgcs(np.zeros(3, complex), np.ones(3, complex))


class TestNmse:
    def test_zero_for_identical(self):
        v = np.array([1 + 1j, 2, 3j])
        assert nmse(v, v) == 0.0

    def test_unit_norm_identity(self):
        # For unit-norm vectors, nmse = 2 - 2 Re<p, t>.
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = unit_norm(random_vec(rng, 8))
            t = unit_norm(random_vec(rng, 8))
            expected = 2 - 2 * np.vdot(p, t).real
            assert abs(nmse(p, t) - expected) < 1e-9

    def test_scale_sensitivity(self):
        t = unit_norm(np.ones(4, complex))
        assert nmse(2 * t, t) > 0.5


class TestBeamTopk:
    def test_full_overlap(self):
        powers = np.array([0.1, 0.5, 0.2, 0.2])
        history = [(powers, powers)] * 5
        cfg = BeamKpiConfig(top_k=1, top_m=1, window_n=5)
        assert beam_topk_accuracy(history, cfg) == 1.0

    def test_counts_recent_window_only(self):
        hit = (np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        miss = (np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]))
        history = [miss] * 10 + [hit] * 2
        cfg = BeamKpiConfig(top_k=1, top_m=1, window_n=4)
        assert beam_topk_accuracy(history, cfg) == 0.5

    def test_monotone_in_k_and_m(self):
        rng = np.random.default_rng(11)
        history = [(rng.random(16), rng.random(16)) for _ in range(64)]
        accs_k = [
            beam_topk_accuracy(history, BeamKpiConfig(k, 2, 64)) for k in (1, 2, 4, 8)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(accs_k, accs_k[1:]))
        accs_m = [
            beam_topk_accuracy(history, BeamKpiConfig(2, m, 64)) for m in (1, 2, 4, 8)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(accs_m, accs_m[1:]))

    def test_tie_break_lowest_index(self):
        pred = np.array([0.5, 0.5, 0.5, 0.1])
        meas = np.array([0.0, 0.0, 1.0, 0.0])
        history = [(pred, meas)]
        # Top-2 predicted must be beams {0, 1} by the tie rule, missing beam 2.
        cfg = BeamKpiConfig(top_k=2, top_m=1, window_n=1)
        assert beam_topk_accuracy(history, cfg) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            beam_topk_accuracy([], BeamKpiConfig(1, 1, 1))
        history = [(np.ones(4), np.ones(4))]
        with pytest.raises(ValueError):
            beam_topk_accuracy(history, BeamKpiConfig(5, 1, 1))


def static_window(w, count, snr=math.inf):
    return CsiMeasurements(range(count), [w] * count, [snr] * count)


class TestInputDescriptor:
    def test_rank_one_channel_flags_aligned_beam(self):
        cb = dft_codebook(8)
        w = cb[:, 3]
        desc = derive_input_descriptor(static_window(w, 10), cb)
        assert int(np.argmax(desc.mean_beam_power)) == 3
        assert abs(desc.mean_beam_power.sum() - 1.0) < 1e-12

    def test_static_window_zero_doppler(self):
        cb = dft_codebook(8)
        rng = np.random.default_rng(5)
        w = unit_norm(random_vec(rng, 8))
        desc = derive_input_descriptor(static_window(w, 20), cb)
        assert abs(desc.doppler_estimate) < 1e-6

    def test_single_sample_window(self):
        cb = dft_codebook(4)
        desc = derive_input_descriptor(static_window(unit_norm(np.ones(4, complex)), 1), cb)
        assert desc.doppler_estimate == 0.0
        assert desc.window_len == 1

    def test_explicit_beam_powers_used(self):
        cb = dft_codebook(4)
        w = unit_norm(np.ones(4, complex))
        powers = np.tile([0.0, 1.0, 0.0, 0.0], (3, 1))
        desc = derive_input_descriptor(static_window(w, 3), cb, powers)
        assert int(np.argmax(desc.mean_beam_power)) == 1

    def test_mean_snr(self):
        cb = dft_codebook(4)
        w = unit_norm(np.ones(4, complex))
        window = CsiMeasurements(range(3), [w] * 3, (10.0, 20.0, 30.0))
        desc = derive_input_descriptor(window, cb)
        assert abs(desc.mean_snr_db - 20.0) < 1e-12

    def test_given_lag_terms_give_the_same_descriptor(self):
        cb = dft_codebook(8)
        rng = np.random.default_rng(9)
        snrs = [math.inf, 0.0, 12.5, -3.0] * 10
        window = CsiMeasurements(range(40), [unit_norm(random_vec(rng, 8)) for _ in snrs], snrs)
        terms = lag1_terms(window.precoders, snrs)
        assert len(terms) == len(window) - 1
        for lo, hi in ((0, 40), (3, 17), (5, 6)):
            want = derive_input_descriptor(window.window(lo, hi), cb)
            got = derive_input_descriptor(window.window(lo, hi), cb, lag_terms=terms[lo : hi - 1])
            assert got.doppler_estimate == want.doppler_estimate
            assert got.mean_snr_db == want.mean_snr_db
            assert got.mean_beam_power.tobytes() == want.mean_beam_power.tobytes()
        with pytest.raises(ValueError):
            derive_input_descriptor(window.window(0, 5), cb, lag_terms=terms[:3])
        with pytest.raises(ValueError):
            derive_input_descriptor(window.window(3, 3), cb)


def make_desc(power, doppler=0.0, snr=20.0):
    return InputDescriptor(np.asarray(power, float), doppler, snr, 10)


class TestDescriptorDivergence:
    def test_zero_iff_equal_features(self):
        a = make_desc([0.25, 0.25, 0.25, 0.25], 0.1, 15.0)
        b = make_desc([0.25, 0.25, 0.25, 0.25], 0.1, 15.0)
        assert descriptor_divergence(a, b) == 0.0
        c = make_desc([0.4, 0.2, 0.2, 0.2], 0.1, 15.0)
        assert descriptor_divergence(a, c) > 0.0

    def test_disjoint_support_js_is_ln2(self):
        a = make_desc([1.0, 0.0, 0.0, 0.0])
        b = make_desc([0.0, 0.0, 0.0, 1.0])
        assert abs(descriptor_divergence(a, b) - math.log(2)) < 1e-12

    def test_components_add(self):
        a = make_desc([0.5, 0.5], 0.0, 20.0)
        b = make_desc([0.5, 0.5], 0.1, 50.0)
        assert abs(descriptor_divergence(a, b) - (0.1 + 1.0)) < 1e-12

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pa = rng.random(8) + 1e-6
            pb = rng.random(8) + 1e-6
            a = make_desc(pa / pa.sum(), rng.random() / 4, rng.uniform(0, 30))
            b = make_desc(pb / pb.sum(), rng.random() / 4, rng.uniform(0, 30))
            d1, d2 = descriptor_divergence(a, b), descriptor_divergence(b, a)
            assert d1 >= 0.0
            assert abs(d1 - d2) < 1e-12

    def test_misalignment_ignores_snr(self):
        a = make_desc([0.5, 0.5], 0.05, 20.0)
        b = make_desc([0.5, 0.5], 0.05, 0.0)
        assert descriptor_divergence(a, b) > 0.5
        assert misalignment_divergence(a, b) < 1e-12

    def test_infinite_snr_pair(self):
        a = make_desc([0.5, 0.5], 0.0, math.inf)
        b = make_desc([0.5, 0.5], 0.0, math.inf)
        assert descriptor_divergence(a, b) == 0.0


class TestDescriptorDivergences:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        beams=st.sampled_from([8, 32, 64]),
        rows=st.integers(1, 60),
        query_zero=st.booleans(),
    )
    def test_rows_equal_the_scalar_form_bit_for_bit(self, seed, beams, rows, query_zero):
        rng = np.random.default_rng(seed)

        def draw():
            power = rng.dirichlet(np.ones(beams)) * rng.choice([1.0, 3.5])
            power[rng.random(beams) < 0.002] = 0.0  # zero powers in a few rows
            snr = math.inf if rng.random() < 0.2 else float(rng.uniform(-10.0, 40.0))
            return make_desc(power, float(rng.uniform(0.0, 0.5)), snr)

        query = draw()
        if query_zero:
            query.mean_beam_power[int(rng.integers(beams))] = 0.0
        stored = [draw() for _ in range(rows)] + [query]
        got = descriptor_divergences(query, stored)
        want = [descriptor_divergence(query, d) for d in stored]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_empty_and_mismatched_profiles(self):
        query = make_desc([0.5, 0.5])
        assert descriptor_divergences(query, []) == []
        with pytest.raises(ValueError):
            descriptor_divergences(query, [make_desc([0.25, 0.25, 0.5])])


# The per-slot arithmetic the stacked kernels replace, one numpy call per
# row: the references their rows must equal bit for bit.
def sgcs_reference(p, t):
    return float(abs(np.vdot(p, t)) ** 2 / (np.vdot(p, p).real * np.vdot(t, t).real))


def nmse_reference(p, t):
    d = p - t
    return float(np.vdot(d, d).real / np.vdot(t, t).real)


def lag_reference(vectors, snrs):
    gains = [1.0 if s == math.inf else 1.0 + 10.0 ** (-s / 10.0) for s in snrs]
    return [
        abs(np.vdot(vectors[i], vectors[i + 1])) * math.sqrt(gains[i] * gains[i + 1])
        for i in range(len(gains) - 1)
    ]


def random_stack(rng, rows, n):
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


# One row, and enough rows that an np.abs or np.square in place of the
# scalar abs and ** (which round differently on some hosts) would show.
STACK_ROWS = st.sampled_from([1, 2000, 2049])
WIDTHS = st.sampled_from([8, 16, 32, 33, 64])


class TestRowKernels:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(WIDTHS, STACK_ROWS, st.integers(0, 2**32 - 1))
    def test_sgcs_and_nmse_rows_equal_the_scalar_reference(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        p, t = random_stack(rng, rows, n), random_stack(rng, rows, n)
        t[rows // 2] = p[rows // 2]  # an exact match
        want_sgcs = np.array([sgcs_reference(a, b) for a, b in zip(p, t)])
        want_nmse = np.array([nmse_reference(a, b) for a, b in zip(p, t)])
        assert sgcs_rows(p, t).tobytes() == want_sgcs.tobytes()
        assert nmse_rows(p, t).tobytes() == want_nmse.tobytes()
        # The scalar functions are the one-row case.
        assert sgcs(p[-1], t[-1]) == want_sgcs[-1]
        assert nmse(p[-1], t[-1]) == want_nmse[-1]

    def test_sgcs_rows_broadcast_one_vector_against_a_stack(self):
        rng = np.random.default_rng(4)
        stack, one = random_stack(rng, 300, 32), random_stack(rng, 1, 32)[0]
        want = np.array([sgcs_reference(one, b) for b in stack])
        assert sgcs_rows(one, stack).tobytes() == want.tobytes()

    def test_zero_rows_and_mismatched_lengths_rejected(self):
        p = np.ones((3, 4), complex)
        zero = p.copy()
        zero[1] = 0.0
        for bad in ((zero, p), (p, zero)):
            with pytest.raises(ValueError, match="zero"):
                sgcs_rows(*bad)
        with pytest.raises(ValueError, match="zero"):
            nmse_rows(p, zero)
        for kernel in (sgcs_rows, nmse_rows):
            with pytest.raises(ValueError):
                kernel(p, np.ones((3, 5), complex))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(WIDTHS, STACK_ROWS, st.integers(0, 2**32 - 1))
    def test_lag_terms_equal_the_scalar_reference(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        vectors = random_stack(rng, rows, n)
        snrs = rng.choice([math.inf, 0.0, 12.5, -3.0, 30.0], size=rows).tolist()
        got = lag1_terms(vectors, snrs)
        assert np.array(got).tobytes() == np.array(lag_reference(vectors, snrs)).tobytes()
        assert len(got) == rows - 1
