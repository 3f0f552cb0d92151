"""Tests for the rank-one block fast path."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import linalg, rank_one, states

from helpers import (
    block_map_error,
    crandn,
    random_product_state,
    rng,
    schur_yes_decomposition,
    state_from_decomposition,
    unit,
)


class TestDetect:
    def test_ghz(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        dec = rank_one.detect_rank_one(blocks)
        assert dec is not None
        s = 1 / np.sqrt(2)
        assert np.allclose(dec.d, [s, s])
        assert np.allclose(np.abs(dec.u[0]), [1, 0])
        assert np.allclose(np.abs(dec.u[1]), [0, 1])
        assert np.allclose(np.abs(dec.v[0]), [1, 0])
        assert np.allclose(np.abs(dec.v[1]), [0, 1])

    def test_example2_blocks_are_rank_one(self):
        a, b = np.sqrt(0.3), np.sqrt(0.2)
        blocks = states.extract_blocks(states.build_fixture("example2", a=a, b=b))
        dec = rank_one.detect_rank_one(blocks)
        assert dec is not None
        s = np.sqrt(a * a + b * b)
        assert np.allclose(dec.d, [s, s])
        assert np.allclose(np.abs(dec.u[0]), [1, 0])
        assert np.allclose(np.abs(dec.u[1]), [0, 1])
        assert np.allclose(np.abs(dec.v[0]), [a / s, b / s])
        assert np.allclose(np.abs(dec.v[1]), [a / s, b / s])

    def test_example2_decided_by_rank_one_path(self):
        a, b = np.sqrt(0.3), np.sqrt(0.2)
        blocks = states.extract_blocks(states.build_fixture("example2", a=a, b=b))
        dec = rank_one.detect_rank_one(blocks)
        assert rank_one.check_condition_e(dec)[0] == "Yes"
        verdict, _, reason = rank_one.check_condition_e(dec.swapped())
        assert verdict == "No"
        assert "v-Gram vanishes" in reason

    def test_zero_block_rejected(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        blocks = states.extract_blocks(states.TripartiteState((2, 2, 2), x))
        assert rank_one.detect_rank_one(blocks) is None

    def test_rank_truncation(self):
        # A block counts as rank one when its second singular value is at most
        # linalg.DEFAULT_RANK_TOL times its first; a zero block is not rank one.
        def detect(second: float, first_block: float = 1.0):
            T = np.zeros((2, 2, 3), dtype=complex)
            T[0, 0, 0], T[0, 1, 1] = first_block, second
            T[1] = np.outer([1.0, 1.0j], [1.0, 0.0, 2.0])
            state = states.TripartiteState((2, 2, 3), T)
            return rank_one.detect_rank_one(states.extract_blocks(state))

        dec = detect(1e-14)
        assert dec is not None
        assert dec.d[0] == pytest.approx(1.0)
        assert np.allclose(np.abs(dec.u[0]), [1, 0, 0])
        assert detect(1e-9) is None
        assert detect(0.0, first_block=0.0) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_product_state_recovered(self, seed):
        gen = rng(seed)
        n, p, q = (int(gen.integers(1, 4)) for _ in range(3))
        x, s_norms, t_norms = random_product_state(gen, n, p, q)
        blocks = states.extract_blocks(states.TripartiteState((n, p, q), x))
        dec = rank_one.detect_rank_one(blocks)
        assert dec is not None
        for i in range(n):
            assert dec.d[i] == pytest.approx(s_norms[i] * t_norms[i])
            rebuilt = dec.d[i] * np.outer(dec.u[i], dec.v[i])
            assert np.max(np.abs(rebuilt - blocks.R[i])) < 1e-9


class TestConditionE:
    def test_ghz_yes(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        verdict, cert, _ = rank_one.check_condition_e(rank_one.detect_rank_one(blocks))
        assert verdict == "Yes"
        assert cert is not None
        assert linalg.min_eig(cert.C) > -1e-8

    def test_equal_grams_give_all_ones(self):
        gen = rng(3)
        v = [unit(crandn(gen, 3)) for _ in range(3)]
        dec = rank_one.RankOneDecomposition(u=v, d=[1.0, 1.0, 1.0], v=v)
        verdict, cert, _ = rank_one.check_condition_e(dec)
        assert verdict == "Yes"
        assert not cert.completed
        assert np.allclose(cert.C, np.ones((3, 3)), atol=1e-12)

    def test_forced_entry_above_one_is_no(self):
        u = [np.array([1.0, 0.0]), unit(np.array([1.0, 0.2]))]
        v = [np.array([1.0, 0.0]), unit(np.array([1.0, 3.0]))]
        dec = rank_one.RankOneDecomposition(u=u, d=[1.0, 1.0], v=v)
        verdict, cert, reason = rank_one.check_condition_e(dec)
        assert verdict == "No"
        assert cert == rank_one.RankOneRefutation(0, 1)
        assert "principal minor" in reason

    def test_vanishing_v_gram_with_nonzero_u_gram_is_no(self):
        u = [unit(np.array([1.0, 1.0])), np.array([1.0, 0.0])]
        v = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        dec = rank_one.RankOneDecomposition(u=u, d=[1.0, 1.0], v=v)
        verdict, cert, reason = rank_one.check_condition_e(dec)
        assert verdict == "No"
        assert cert == rank_one.RankOneRefutation(0, 1)
        assert "v-Gram vanishes" in reason

    @pytest.mark.parametrize(
        "order, reason",
        [
            ((0, 1, 2), "u-Gram entry (0,2) = 0.707107 is nonzero where the v-Gram vanishes"),
            ((1, 0, 2), "forced |C(0,2)| = 1.34164 > 1: principal minor 1 - |C|^2 = -0.8 < 0"),
        ],
        ids=["vanishing-first", "forced-first"],
    )
    def test_first_offending_entry_in_row_major_order(self, order, reason):
        # Entry (0,1) holds; (0,2) and (1,2) fail, one where the v-Gram
        # vanishes and one with a forced |C| > 1. Swapping blocks 0 and 1
        # swaps which kind comes first; (2,0) comes first in column-major order.
        u = [np.array([1.0, 0.0, 0.0]), unit(np.array([0.5, 0.0, 1.0])),
             unit(np.array([1.0, 0.0, 1.0]))]
        v = [np.array([1.0, 0.0]), unit(np.array([1.0, 1.0])), np.array([0.0, 1.0])]
        dec = rank_one.RankOneDecomposition(
            u=[u[k] for k in order], d=[1.0] * 3, v=[v[k] for k in order]
        )
        assert rank_one.check_condition_e(dec) == (
            "No", rank_one.RankOneRefutation(0, 2), reason
        )

    def test_completion_reason_names_the_stop(self, monkeypatch):
        # C_01 = C_12 = 0.9 are forced and C_02 is free; the start with
        # C_02 = 0 is indefinite, so the completion takes several iterations.
        x = 0.9 / np.sqrt(2)
        u = [np.array([1.0, 0.0, 0.0]), np.array([x, x, np.sqrt(1 - 2 * x * x)]),
             np.array([0.0, 1.0, 0.0])]
        v = [np.array([1.0, 0.0]), unit(np.array([1.0, 1.0])), np.array([0.0, 1.0])]
        dec = rank_one.RankOneDecomposition(u=u, d=[1.0] * 3, v=v)
        verdict, cert, _ = rank_one.check_condition_e(dec)
        assert verdict == "Yes"
        assert cert.completed
        monkeypatch.setattr(rank_one, "COMPLETION_MAX_ITER", 1)
        verdict, cert, reason = rank_one.check_condition_e(dec)
        assert (verdict, cert) == ("Inconclusive", None)
        assert reason.startswith(
            "PSD completion: projections iteration budget exhausted after 1 iterations"
        )

    def test_indefinite_fully_forced_c_is_no_without_a_pair(self):
        # Every |C_ij| = 1 is allowed, but C's signed triangle has eigenvalue -1,
        # while G_u = G_v ∘ C (eigenvalues 1.5, 1.5, 0) is still a Gram matrix.
        G_v = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        C = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]], dtype=float)
        w, W = np.linalg.eigh(G_v * C)
        M = np.sqrt(np.clip(w, 0, None))[:, None] * W.T
        u = [M[:, i].astype(complex) for i in range(3)]
        L = np.linalg.cholesky(G_v)
        v = [L[i].astype(complex) for i in range(3)]
        dec = rank_one.RankOneDecomposition(u=u, d=[1.0] * 3, v=v)
        verdict, cert, reason = rank_one.check_condition_e(dec)
        assert verdict == "No"
        assert cert is None
        assert "fully forced C has min eigenvalue" in reason

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_certificate_invariants(self, seed):
        gen = rng(seed)
        n = int(gen.integers(2, 4))
        dec = schur_yes_decomposition(gen, n, p=int(gen.integers(2, 4)), q=n)
        verdict, cert, _ = rank_one.check_condition_e(dec)
        assert verdict == "Yes"
        C = cert.C
        assert np.allclose(C, C.conj().T, atol=1e-12)
        assert np.allclose(np.diag(C), 1.0, atol=1e-12)
        assert linalg.min_eig(C) > -1e-8
        G_u = np.array([[np.vdot(a, b) for b in dec.u] for a in dec.u])
        G_v = np.array([[np.vdot(a, b) for b in dec.v] for a in dec.v])
        err = np.abs(G_u - G_v * C)[cert.fixed_mask]
        assert err.size == 0 or np.max(err) < 1e-9


class TestTwoWay:
    """Phase families u_i = e^{iφ_i} v_i, which are degradable both ways."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_two_way_yes_implies_condition_e_both_ways(self, seed):
        gen = rng(seed)
        n = int(gen.integers(2, 4))
        v = [unit(crandn(gen, n)) for _ in range(n)]
        phi = gen.uniform(0, 2 * np.pi, n)
        u = [np.exp(1j * phi[i]) * v[i] for i in range(n)]
        dec = rank_one.RankOneDecomposition(u=u, d=[1.0] * n, v=v)
        assert rank_one.check_condition_e(dec)[0] == "Yes"
        assert rank_one.check_condition_e(dec.swapped())[0] == "Yes"


class TestKrausConstruction:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_certificate_yields_verified_channel(self, seed):
        gen = rng(seed)
        n = int(gen.integers(1, 4))
        p = int(gen.integers(1, 4))
        q = n + int(gen.integers(0, 2))
        dec = schur_yes_decomposition(gen, n, p, q)
        state = state_from_decomposition(dec)
        blocks = states.extract_blocks(state)
        found = rank_one.detect_rank_one(blocks)
        assert found is not None
        verdict, cert, _ = rank_one.check_condition_e(found)
        assert verdict == "Yes"
        kraus = rank_one.kraus_from_correlation(found, cert)
        worst, defect = block_map_error(blocks, kraus, "EtoB")
        assert worst < 1e-7
        assert defect < 1e-9

    def test_ghz_channel_exact(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        dec = rank_one.detect_rank_one(blocks)
        _, cert, _ = rank_one.check_condition_e(dec)
        kraus = rank_one.kraus_from_correlation(dec, cert)
        worst, defect = block_map_error(blocks, kraus, "EtoB")
        assert worst < 1e-12
        assert defect < 1e-12
