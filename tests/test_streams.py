"""Random substreams: the batched normals replay the per-index streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.streams import _pcg64_states, stable_id, substream, substream_normals


class TestSubstreamNormals:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        module=st.sampled_from(["meas", "chan.gains", "x", "chan.angles.urban-a"]),
        indices=st.one_of(
            st.just([]),
            st.just([0]),
            st.lists(st.integers(min_value=0, max_value=10**7), max_size=40),
        ),
        width=st.integers(min_value=0, max_value=130),
    )
    def test_rows_equal_per_index_draws(self, seed, module, indices, width):
        got = substream_normals(seed, module, indices, width)
        assert got.shape == (len(indices), width)
        for row, index in zip(got, indices):
            want = substream(seed, module, index).standard_normal(width)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 6, 300])
    def test_gaps_unsorted_and_repeated_indices(self, count):
        indices = ([9, 2, 2, 1000, 0, 7] * 50)[:count]
        got = substream_normals(42, "meas", indices, 64)
        for row, index in zip(got, indices):
            assert row.tobytes() == substream(42, "meas", index).standard_normal(64).tobytes()

    def test_one_wide_draw_equals_two_narrow_ones(self):
        # generate_trace and measure_csi split one 2p-wide row into the
        # real and imaginary halves the reference drew in two calls.
        rng = substream(5, "chan.gains", 3)
        halves = np.concatenate([rng.standard_normal(6), rng.standard_normal(6)])
        assert substream_normals(5, "chan.gains", [3], 12)[0].tobytes() == halves.tobytes()


class TestPcg64States:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.one_of(
            st.integers(min_value=-(2**70), max_value=2**70),
            st.sampled_from([-1, 2**64 - 1, 2**64, 2**128 + 3]),
        ),
        module=st.text(max_size=12),
        indices=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=8),
    )
    def test_states_equal_the_seeded_generators(self, seed, module, indices):
        words = zip(*(a.tolist() for a in _pcg64_states(seed, module, indices)))
        got = [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in words]
        want = []
        for index in indices:
            state = substream(seed, module, index).bit_generator.state["state"]
            want.append((state["state"], state["inc"]))
        assert got == want


class TestStableId:
    def test_array_parts_hash_as_their_bytes(self):
        rng = np.random.default_rng(4)
        real = rng.standard_normal((6, 5))
        cplx = real + 1j * rng.standard_normal((6, 5))
        for array in (real, real.T, cplx, cplx.T, cplx[:, ::2]):
            assert stable_id("x", array, "cfg") == stable_id("x", array.tobytes(), "cfg")
        assert stable_id("x", real) != stable_id("x", real.T)
