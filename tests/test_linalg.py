from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import feasibility, linalg, states
from helpers import crandn, partial_trace_oracle, random_unitary, rng


def test_svd_identity():
    f = linalg.svd(np.eye(2))
    assert f.rank == 2
    assert np.allclose(f.D, [1.0, 1.0])
    assert np.allclose(f.U @ f.V.T, np.eye(2), atol=1e-12)


def test_svd_transpose_convention_reconstructs_complex():
    gen = rng(11)
    for rows, cols in [(5, 3), (3, 5), (4, 4)]:
        M = crandn(gen, rows, cols)
        f = linalg.svd(M)
        assert np.linalg.norm(f.reconstruct() - M) <= 1e-10 * np.linalg.norm(M)
        # both factors have orthonormal columns; V is unconjugated-transpose style
        assert np.allclose(f.U.conj().T @ f.U, np.eye(f.rank), atol=1e-12)
        assert np.allclose(f.V.conj().T @ f.V, np.eye(f.rank), atol=1e-12)


def test_svd_rank_truncation():
    u = np.array([1.0, 0.0])
    M = np.outer(u, u) + 1e-14 * np.outer([0, 1.0], [0, 1.0])
    f = linalg.svd(M, rank_tol=1e-10)
    assert f.rank == 1
    assert linalg.svd(np.zeros((3, 2))).rank == 0


def test_svd_depolarizing_difference_singular_values():
    # R0 R0* - R1 R1* for the depolarizing lift has singular values
    # (2ab, 2ab, 2b^2, 2b^2) with a = sqrt(1-eps), b = sqrt(eps/3).
    eps = 0.1
    a, b = np.sqrt(1 - eps), np.sqrt(eps / 3)
    S0 = np.array([[a, b, 0, 0], [0, 0, b, b]])
    S1 = np.array([[0, 0, -b, b], [a, -b, 0, 0]])
    R0, R1 = S0.T, S1.T
    D = linalg.svd(R0 @ R0.conj().T - R1 @ R1.conj().T).D
    expected = np.sort([2 * a * b, 2 * a * b, 2 * b * b, 2 * b * b])[::-1]
    assert np.allclose(D, expected, atol=1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.nan, 0], [0, 1]]))


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
        assert linalg.trace_norm(M) == pytest.approx(linalg.svd(M).D.sum(), abs=1e-10)


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


def test_gram_basic():
    assert np.allclose(linalg.gram(list(np.eye(3))), np.eye(3), atol=1e-15)
    e1, e2 = np.eye(2)
    G = linalg.gram([e1, (e1 + e2) / np.sqrt(2)])
    assert np.allclose(G, [[1, 1 / np.sqrt(2)], [1 / np.sqrt(2), 1]], atol=1e-12)


def test_gram_is_psd():
    gen = rng(7)
    vs = [crandn(gen, 5) for _ in range(4)]
    G = linalg.gram(vs)
    assert np.allclose(G, G.conj().T, atol=1e-13)
    assert linalg.min_eig(G) >= -1e-12


def test_gram_length_mismatch():
    with pytest.raises(ValueError):
        linalg.gram([np.ones(2), np.ones(3)])


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
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    red = linalg.reduce_rows(A, np.array([1.0, 2.0, 3.0]))
    assert red.rank == 2
    assert red.inconsistency < 1e-12
    assert np.allclose(red.Q @ red.Q.T, np.eye(2), atol=1e-12)
    x = np.array([1.0, 2.0, 7.0])
    assert np.allclose(red.Q @ x, red.c, atol=1e-12)

    red_bad = linalg.reduce_rows(A, np.array([1.0, 2.0, 4.0]))
    assert red_bad.inconsistency > 1e-3

    # Complex rows and one right-hand side per column.
    gen = rng(2)
    Ac, X = crandn(gen, 4, 3), crandn(gen, 3, 2)
    red_c = linalg.reduce_rows(Ac, Ac @ X)
    assert red_c.rank == 3 and red_c.inconsistency < 1e-12
    assert np.allclose(red_c.Q @ X, red_c.c, atol=1e-12)


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
    # constraints exactly, not just within feas_tol. Both cases converge to
    # the PSD boundary, where the cone iterate is still ~1e-9 off the set.
    psd_tol = 1e-9
    g = crandn(rng(0), 5, 1)
    C = g @ g.conj().T
    mask = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) <= 1
    res = linalg.complete_psd(C, mask, start=np.eye(5, dtype=complex), psd_tol=psd_tol)
    assert res.converged
    assert np.max(np.abs(res.affine_point[mask] - C[mask])) <= 1e-12
    assert np.max(np.abs(res.affine_point - res.affine_point.conj().T)) <= 1e-12
    assert linalg.min_eig(res.affine_point) >= -psd_tol
    assert linalg.min_eig(res.point) >= -1e-12

    # A planted E -> B state (Choi 16): chi is symmetric under B <-> E.
    Z = crandn(rng(0), 2, 4, 4)
    state = states.TripartiteState((2, 4, 4), ((Z + Z.transpose(0, 2, 1)) / 2).reshape(-1))
    system = feasibility.build_constraints(states.extract_blocks(state), "EtoB")
    dim = system.in_dim * system.out_dim
    res = linalg.alternating_projections(
        system.project_and_residual, start=np.eye(dim, dtype=complex), psd_tol=psd_tol
    )
    assert res.converged
    assert system.residual(res.affine_point) <= 1e-12
    assert np.max(np.abs(system.project(res.affine_point) - res.affine_point)) <= 1e-12
    assert linalg.min_eig(res.affine_point) >= -psd_tol
    assert linalg.min_eig(res.point) >= -1e-12


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
