from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import feasibility, linalg, states
from helpers import crandn, partial_trace_oracle, random_unitary, rng


def test_svd_depolarizing_difference_singular_values():
    # R0 R0* - R1 R1* for the depolarizing lift has singular values
    # (2ab, 2ab, 2b^2, 2b^2) with a = sqrt(1-eps), b = sqrt(eps/3).
    eps = 0.1
    a, b = np.sqrt(1 - eps), np.sqrt(eps / 3)
    S0 = np.array([[a, b, 0, 0], [0, 0, b, b]])
    S1 = np.array([[0, 0, -b, b], [a, -b, 0, 0]])
    R0, R1 = S0.T, S1.T
    D = np.linalg.svd(R0 @ R0.conj().T - R1 @ R1.conj().T, compute_uv=False)
    expected = np.sort([2 * a * b, 2 * a * b, 2 * b * b, 2 * b * b])[::-1]
    assert np.allclose(D, expected, atol=1e-12)


def test_trace_norm_diagonal():
    assert linalg.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_depolarizing_output_difference():
    eps = 0.1
    a2, b2 = 1 - eps, eps / 3
    S0 = np.array([[np.sqrt(a2), np.sqrt(b2), 0, 0], [0, 0, np.sqrt(b2), np.sqrt(b2)]])
    S1 = np.array([[0, 0, -np.sqrt(b2), np.sqrt(b2)], [np.sqrt(a2), -np.sqrt(b2), 0, 0]])
    val = linalg.trace_norm(S0 @ S0.conj().T - S1 @ S1.conj().T)
    assert val == pytest.approx(2 * (a2 - b2), abs=1e-12)


def test_trace_norm_unitary_invariance():
    gen = rng(3)
    M = crandn(gen, 4, 4)
    U, V = random_unitary(gen, 4), random_unitary(gen, 4)
    assert linalg.trace_norm(U @ M @ V) == pytest.approx(linalg.trace_norm(M), abs=1e-12)


def test_trace_norm_matches_svd_sum():
    gen = rng(17)
    for _ in range(20):
        M = crandn(gen, 5, 3)
        singular_values = np.linalg.svd(M, compute_uv=False)
        assert linalg.trace_norm(M) == pytest.approx(singular_values.sum(), abs=1e-10)


def test_hermitian_eig_diag():
    w, V = linalg.hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(V), np.eye(2))


def test_hermitian_eig_example2_spectrum():
    # X2 of the a=b=1/2 state has eigenvalues (1/2, 1/2, 0, 0).
    h = 0.25
    X2 = np.array(
        [[2 * h, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2 * h]], dtype=complex
    )
    X2[0, 3] = X2[3, 0] = 0.0
    X2[0, 0] = X2[3, 3] = 0.5
    w, _ = linalg.hermitian_eig(X2)
    assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_hermitian_eig_reconstruction():
    gen = rng(5)
    A = crandn(gen, 6, 6)
    H = (A + A.conj().T) / 2
    w, V = linalg.hermitian_eig(H)
    assert np.linalg.norm((V * w) @ V.conj().T - H) < 1e-10
    assert np.all(np.diff(w) <= 1e-12)


def test_hermitian_eig_rejects():
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_partial_trace_example2_displayed_matrices():
    a = b = 0.5
    x = np.array([a, 0, b, 0, 0, a, 0, -b], dtype=complex)
    rho = np.outer(x, x.conj())
    X2 = linalg.partial_trace(rho, (2, 2, 2), 2)
    X3 = linalg.partial_trace(rho, (2, 2, 2), 3)
    X2_expected = np.array(
        [
            [a * a + b * b, 0, 0, a * a - b * b],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [a * a - b * b, 0, 0, a * a + b * b],
        ]
    )
    X3_expected = np.array(
        [
            [a * a, a * b, 0, 0],
            [a * b, b * b, 0, 0],
            [0, 0, a * a, -a * b],
            [0, 0, -a * b, b * b],
        ]
    )
    assert np.allclose(X2, X2_expected, atol=1e-12)
    assert np.allclose(X3, X3_expected, atol=1e-12)


def test_partial_trace_ghz():
    x = np.zeros(8, dtype=complex)
    x[0] = x[7] = 1 / np.sqrt(2)
    rho = np.outer(x, x.conj())
    for s in (1, 2, 3):
        assert np.allclose(
            linalg.partial_trace(rho, (2, 2, 2), s), np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )


def test_partial_trace_against_reshape_oracle():
    gen = rng(23)
    for dims in [(2, 2, 2), (3, 2, 4), (2, 3, 2)]:
        n, p, q = dims
        A = crandn(gen, n * p * q, n * p * q)
        for s in (1, 2, 3):
            assert np.allclose(
                linalg.partial_trace(A, dims, s),
                partial_trace_oracle(A, dims, s),
                atol=1e-12,
            )
            assert np.trace(linalg.partial_trace(A, dims, s)) == pytest.approx(
                np.trace(A), abs=1e-12
            )


def test_partial_trace_shape_check():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(7), (2, 2, 2), 1)


def test_project_psd():
    A = np.array([[1.0, -2.0, 3.0], [-2.0, 3.0, -2.0], [3.0, -2.0, 1.0]])
    X = linalg.project_psd(A)
    expected = np.array([[2.0, -2.0, 2.0], [-2.0, 3.0, -2.0], [2.0, -2.0, 2.0]])
    assert np.allclose(X, expected, atol=1e-12)
    assert linalg.min_eig(X) >= -1e-12


def test_independent_columns_spans_low_rank_matrix():
    gen = rng(4)
    M = crandn(gen, 6, 3) @ crandn(gen, 3, 5)
    keep = linalg.independent_columns(M)
    assert len(keep) == 3 and keep == sorted(keep)
    assert np.linalg.matrix_rank(M[:, keep]) == 3
    assert linalg.independent_columns(np.zeros((4, 2))) == []
    # A column dependent up to rounding is not independent.
    N = np.column_stack([M[:, 0], M[:, 1], M[:, 0] + M[:, 1] + 1e-14])
    assert len(linalg.independent_columns(N)) == 2


def test_reduce_rows_consistent_and_inconsistent():
    def least_squares_point(Q, c):
        return Q.conj().T @ c

    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, 2.0, 3.0])
    Q, c = linalg.reduce_rows(A, b)
    assert Q.shape[0] == 2
    assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-12)
    x = np.array([1.0, 2.0, 7.0])
    assert np.allclose(Q @ x, c, atol=1e-12)
    assert np.allclose(A @ least_squares_point(Q, c), b, atol=1e-12)

    # An inconsistent system keeps its min-norm least-squares point, which misses b.
    b_bad = np.array([1.0, 2.0, 4.0])
    x_bad = least_squares_point(*linalg.reduce_rows(A, b_bad))
    assert np.allclose(x_bad, np.linalg.lstsq(A, b_bad, rcond=None)[0], atol=1e-12)
    assert np.linalg.norm(A @ x_bad - b_bad) > 1e-3

    # Complex rows and one right-hand side per column.
    gen = rng(2)
    Ac, X = crandn(gen, 4, 3), crandn(gen, 3, 2)
    Q_c, c_c = linalg.reduce_rows(Ac, Ac @ X)
    assert Q_c.shape[0] == 3
    assert np.allclose(Ac @ least_squares_point(Q_c, c_c), Ac @ X, atol=1e-12)
    assert np.allclose(Q_c @ X, c_c, atol=1e-12)


def test_psd_factor_keeps_exactly_the_positive_eigenpairs():
    gen = rng(4)
    V = random_unitary(gen, 6)
    w = np.array([-2.0, -0.5, -1e-3, 0.3, 1.0, 4.0])
    M = (V * w) @ V.conj().T
    K = linalg.psd_factor(M)
    assert K.shape == (6, 3)
    clipped = (V * np.maximum(w, 0.0)) @ V.conj().T
    assert np.max(np.abs(K @ K.conj().T - clipped)) <= 1e-12
    assert np.max(np.abs(linalg.project_psd(M) - clipped)) <= 1e-12


def test_alternating_projections_feasible_correlation():
    # nearest-correlation style completion: fix diagonal, solve within PSD cone
    target = np.array(
        [[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]], dtype=complex
    )
    mask = np.zeros((3, 3), dtype=bool)
    mask[np.diag_indices(3)] = True
    mask[0, 1] = mask[1, 0] = True
    res = linalg.complete_psd(target, mask, start=np.ones((3, 3), dtype=complex))
    assert res.converged
    assert res.residual_affine <= 1e-8
    assert linalg.min_eig(res.point) >= -1e-8
    # The completion is the affine point: the run may stop on it while the
    # cone iterate is still off the set (the affine_psd stop).
    assert linalg.min_eig(res.affine_point) >= -1e-8
    assert abs(res.affine_point[0, 1] - 0.9) < 1e-7


def test_alternating_projections_infeasible_stalls():
    # |C_01| = |C_02| = |C_12| forced with an odd sign pattern that has no PSD
    # completion: C = [[1, 1, 1], [1, 1, -1], [1, -1, 1]] is indefinite and fully fixed.
    C = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]], dtype=complex)
    mask = np.ones((3, 3), dtype=bool)
    res = linalg.complete_psd(C, mask, max_iter=4000)
    assert not res.converged
    assert res.residual_affine > 1e-3 or res.residual_psd > 1e-3


def test_converged_affine_point_satisfies_the_affine_set():
    # Certificates are read off affine_point, so it must meet the affine
    # constraints exactly, not just within FEAS_TOL. Both cases converge to
    # the PSD boundary, where the cone iterate is still ~1e-9 off the set.
    g = crandn(rng(0), 5, 1)
    C = g @ g.conj().T
    mask = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) <= 1
    res = linalg.complete_psd(C, mask, start=np.eye(5, dtype=complex))
    assert res.converged
    assert np.max(np.abs(res.affine_point[mask] - C[mask])) <= 1e-12
    assert np.max(np.abs(res.affine_point - res.affine_point.conj().T)) <= 1e-12
    assert linalg.min_eig(res.affine_point) >= -linalg.PSD_TOL
    assert linalg.min_eig(res.point) >= -1e-12

    # A planted E -> B state (Choi 16): chi is symmetric under B <-> E.
    Z = crandn(rng(0), 2, 4, 4)
    state = states.TripartiteState((2, 4, 4), ((Z + Z.transpose(0, 2, 1)) / 2).reshape(-1))
    system = feasibility.build_constraints(states.extract_blocks(state))
    dim = system.in_dim * system.out_dim
    res = linalg.alternating_projections(
        system.project_and_residual, start=np.eye(dim, dtype=complex)
    )
    assert res.converged
    assert system.residual(res.affine_point) <= 1e-12
    assert np.max(np.abs(system.project(res.affine_point) - res.affine_point)) <= 1e-12
    assert linalg.min_eig(res.affine_point) >= -linalg.PSD_TOL
    assert linalg.min_eig(res.point) >= -1e-12


def test_converged_completion_is_psd_to_psd_tol():
    # rank_one.check_condition_e takes a converged completion as its
    # certificate without testing it again. The one stop complete_psd can
    # certify with requires min_eig(affine_point) >= -PSD_TOL.
    stops = []
    for seed in range(60):
        gen = rng(seed)
        n = int(gen.integers(3, 7))
        g = crandn(gen, n, int(gen.integers(1, n)))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        C = g @ g.conj().T
        upper = np.triu(gen.random((n, n)) < 0.5, 1)
        mask = upper | upper.T | np.eye(n, dtype=bool)
        if seed % 2:
            # Stretch the fixed off-diagonal entries so some masks have no completion.
            C = np.where(mask & ~np.eye(n, dtype=bool), 1.3 * C, C)
        res = linalg.complete_psd(C, mask, max_iter=500)
        stops.append(res.stop)
        if res.converged:
            assert linalg.min_eig(res.affine_point) >= -linalg.PSD_TOL
    # The fixed entries are consistent, so no run ends "inconsistent".
    assert {"affine_psd", "budget"} == set(stops)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_trace_norm_triangle_and_svd(seed):
    gen = rng(seed)
    A = crandn(gen, 3, 3)
    B = crandn(gen, 3, 3)
    tn = linalg.trace_norm
    assert tn(A + B) <= tn(A) + tn(B) + 1e-10
    assert tn(A) == pytest.approx(np.abs(np.linalg.svd(A, compute_uv=False)).sum(), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_partial_trace_pure_state(seed):
    gen = rng(seed)
    dims = (2, 3, 2)
    x = crandn(gen, 12)
    x /= np.linalg.norm(x)
    rho = np.outer(x, x.conj())
    for s in (1, 2, 3):
        red = linalg.partial_trace(rho, dims, s)
        assert np.allclose(red, red.conj().T, atol=1e-12)
        assert linalg.min_eig(red) >= -1e-12
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
