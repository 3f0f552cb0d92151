"""Tests for the tripartite state model and its block decomposition."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import linalg, states

from helpers import partial_trace_oracle, random_state_vector, rng, swap_b_and_e, swap_cases


class TestTripartiteState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 8 amplitudes"):
            states.TripartiteState((2, 2, 2), np.zeros(7))

    def test_rejects_non_finite(self):
        x = np.zeros(8)
        x[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            states.TripartiteState((2, 2, 2), x)

    def test_rejects_bad_norm_when_flagged(self):
        with pytest.raises(ValueError, match="flagged normalized"):
            states.TripartiteState((2, 2, 2), np.ones(8), normalized=True)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="positive"):
            states.TripartiteState((2, 0, 2), np.zeros(0))

    def test_unit_rescales(self):
        st_ = states.TripartiteState((2, 2, 1), np.array([3.0, 0, 0, 4.0]))
        unit = st_.unit()
        assert unit.normalized
        assert unit.norm_squared() == pytest.approx(1.0)
        assert np.allclose(unit.amplitudes, [0.6, 0, 0, 0.8])

    def test_unit_rejects_zero(self):
        with pytest.raises(ValueError, match="zero state"):
            states.TripartiteState((1, 1, 1), np.zeros(1)).unit()

    def test_tensor_layout_is_lexicographic(self):
        x = np.arange(12, dtype=complex)
        st_ = states.TripartiteState((2, 3, 2), x)
        T = st_.tensor()
        assert T[1, 2, 0] == 1 * 6 + 2 * 2 + 0
        assert T[0, 1, 1] == 0 * 6 + 1 * 2 + 1


class TestExtractBlocks:
    def test_ghz_slices(self):
        ghz = states.build_fixture("ghz")
        blocks = states.extract_blocks(ghz)
        s = 1 / np.sqrt(2)
        assert np.allclose(blocks.S[0], [[s, 0], [0, 0]])
        assert np.allclose(blocks.S[1], [[0, 0], [0, s]])
        assert np.allclose(blocks.R[0], blocks.S[0].T)
        assert np.allclose(blocks.G_R[0, 0], [[0.5, 0], [0, 0]])
        assert np.allclose(blocks.G_R[0, 1], 0)

    def test_example2_slices(self):
        a = b = 0.5
        st_ = states.build_fixture("example2", a=a, b=b)
        assert np.allclose(st_.amplitudes, [a, 0, b, 0, 0, a, 0, -b])
        blocks = states.extract_blocks(st_)
        assert np.allclose(blocks.S[0], [[a, 0], [b, 0]])
        assert np.allclose(blocks.S[1], [[0, a], [0, -b]])
        assert np.allclose(blocks.R[0], [[a, b], [0, 0]])
        assert np.allclose(blocks.R[1], [[0, 0], [a, -b]])

    def test_sec4_slices(self):
        alpha = np.sqrt(0.8)
        a = np.sqrt(0.65)
        beta = np.sqrt(0.2)
        b = np.sqrt(0.35)
        st_ = states.build_fixture("sec4", alpha=alpha, a=a)
        blocks = states.extract_blocks(st_)
        assert np.allclose(blocks.S[0], [[2 * alpha * a, 0], [0, 2 * beta * b]])
        assert np.allclose(
            blocks.S[1], [[alpha * a, alpha * b], [1j * beta * a, 1j * beta * b]]
        )
        assert np.allclose(
            blocks.S[2], [[alpha * a, -alpha * b], [-1j * beta * a, 1j * beta * b]]
        )
        assert st_.norm_squared() == pytest.approx(4.36)

    def test_bell_lift_single_column_blocks(self):
        st_ = states.build_fixture("bell_lift")
        blocks = states.extract_blocks(st_)
        assert blocks.S[0].shape == (2, 1)
        assert np.allclose(blocks.S[0], [[1.0], [0.0]])
        assert np.allclose(blocks.S[1], [[0.0], [1.0]])
        assert st_.norm_squared() == pytest.approx(2.0)


class TestReducedDensities:
    def test_example2_matches_displayed_matrices(self):
        a, b = np.sqrt(0.3), np.sqrt(0.2)
        st_ = states.build_fixture("example2", a=a, b=b)
        red = states.reduced_densities(st_)
        s, d = a * a + b * b, a * a - b * b
        X2 = np.array(
            [[s, 0, 0, d], [0, 0, 0, 0], [0, 0, 0, 0], [d, 0, 0, s]], dtype=complex
        )
        X3 = np.array(
            [
                [a * a, a * b, 0, 0],
                [a * b, b * b, 0, 0],
                [0, 0, a * a, -a * b],
                [0, 0, -a * b, b * b],
            ],
            dtype=complex,
        )
        assert np.allclose(red.X2, X2, atol=1e-12)
        assert np.allclose(red.X3, X3, atol=1e-12)

    def test_ghz_reductions(self):
        red = states.reduced_densities(states.build_fixture("ghz"))
        assert np.allclose(red.X2, np.diag([0.5, 0, 0, 0.5]))
        assert np.allclose(red.X3, np.diag([0.5, 0, 0, 0.5]))
        assert np.allclose(red.X1, np.diag([0.5, 0, 0, 0.5]))

    def test_matches_reshape_oracle(self):
        gen = rng(7)
        for dims in [(2, 2, 2), (3, 2, 2), (2, 3, 4)]:
            x = random_state_vector(gen, int(np.prod(dims)))
            st_ = states.TripartiteState(dims, x, normalized=True)
            red = states.reduced_densities(st_)
            rho = st_.density()
            assert np.allclose(red.X1, partial_trace_oracle(rho, dims, 1))
            assert np.allclose(red.X2, partial_trace_oracle(rho, dims, 2))
            assert np.allclose(red.X3, partial_trace_oracle(rho, dims, 3))


class TestAssemblyIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_blocks_tile_reduced_densities(self, n, p, q, seed):
        gen = rng(seed)
        x = random_state_vector(gen, n * p * q)
        st_ = states.TripartiteState((n, p, q), x, normalized=True)
        blocks = states.extract_blocks(st_)
        red = states.reduced_densities(st_)
        # The stored Gram stacks are the tiles: G_R[u, v] = R_u R_v* is block
        # (u, v) of X2, and G_S[u, v] = S_u S_v* is block (u, v) of X3.
        families = ((blocks.G_R, blocks.R, red.X2, q), (blocks.G_S, blocks.S, red.X3, p))
        for G, mats, X, d in families:
            assert G.shape == (n, n, d, d)
            for u in range(n):
                for v in range(n):
                    tile = X[u * d : (u + 1) * d, v * d : (v + 1) * d]
                    assert np.allclose(G[u, v], tile, atol=1e-12)
                    assert np.allclose(G[u, v], mats[u] @ mats[v].conj().T, atol=1e-14)


class TestFixtureValidation:
    def test_example2_rejects_bad_constraint(self):
        with pytest.raises(ValueError, match=r"2\(a\^2 \+ b\^2\) = 1"):
            states.build_fixture("example2", a=0.9, b=0.9)

    def test_example2_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            states.build_fixture("example2", a=-0.5, b=0.5)

    def test_sec4_rejects_boundary(self):
        with pytest.raises(ValueError, match="strictly inside"):
            states.build_fixture("sec4", alpha=1.0, a=0.5)

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            states.build_fixture("w_state")

    def test_unexpected_parameter(self):
        with pytest.raises(ValueError, match="takes parameters"):
            states.build_fixture("ghz", a=0.3)


class TestSwappedFamily:
    @pytest.mark.parametrize("state", [pytest.param(s, id=k) for k, s in swap_cases()])
    def test_is_the_family_of_the_transposed_state(self, state):
        # Exchanging B and E only relabels the blocks, bit for bit.
        want = states.extract_blocks(swap_b_and_e(state))
        got = states.extract_blocks(state).swapped()
        for name in ("S", "R", "G_R", "G_S"):
            x, y = getattr(got, name), getattr(want, name)
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
