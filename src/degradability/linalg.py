"""Dense complex linear algebra primitives shared by every other module.

Index layout convention, used everywhere: a tripartite amplitude tensor with
dimensions ``(n, p, q)`` is stored as a flat vector in lexicographic order of
``(i, j, k)``, i.e. entry ``(i, j, k)`` sits at flat position ``i*p*q + j*q + k``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-10
DEFAULT_HERM_TOL = 1e-9
# Largest entry of |Σ F*F - I| a Kraus set may show and still count as trace
# preserving: channel inputs, contractivity checks and certificates share it.
COMPLETENESS_TOL = 1e-8


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def trace_norm(M: np.ndarray) -> float:
    """Sum of singular values of ``M``."""
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("trace_norm: input contains non-finite entries")
    return float(np.linalg.svd(M, compute_uv=False).sum())


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm of every matrix in a stack, one batched SVD over the last two axes."""
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def hermitian_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as ``(M + M*)/2`` before factoring; inputs whose
    anti-Hermitian part exceeds ``DEFAULT_HERM_TOL`` in Frobenius norm are
    rejected.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"hermitian_eig: expected a square matrix, got shape {M.shape}")
    defect = np.linalg.norm(M - dagger(M))
    if defect > DEFAULT_HERM_TOL:
        raise ValueError(f"hermitian_eig: matrix is not Hermitian (defect {defect:.3e})")
    w, V = np.linalg.eigh((M + dagger(M)) / 2.0)
    return w[::-1], V[:, ::-1]


def psd_factor(M: np.ndarray) -> np.ndarray:
    """Factor K with K K* the nearest (Frobenius) PSD matrix to a Hermitian M.

    Only the lower triangle of M is read. The columns are √w v over the
    eigenpairs with positive eigenvalue only, which ``eigh`` returns last; the
    others contribute nothing, so the number of columns is the exact rank of
    the projection.
    """
    w, V = np.linalg.eigh(M)
    first = int(np.count_nonzero(w <= 0.0))
    return V[:, first:] * np.sqrt(w[first:])


def project_psd(M: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to ``(M + M*)/2``."""
    K = psd_factor((M + dagger(M)) / 2.0)
    return K @ dagger(K)


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((M + dagger(M)) / 2.0)[0])


def partial_trace(rho: np.ndarray, dims: tuple[int, int, int], subsystem: int) -> np.ndarray:
    """Trace out one subsystem of a tripartite operator in lexicographic layout.

    ``subsystem`` is 1-based (1, 2 or 3); the result is indexed lexicographically
    by the remaining two indices.
    """
    rho = np.asarray(rho, dtype=complex)
    n, p, q = dims
    total = n * p * q
    if rho.shape != (total, total):
        raise ValueError(
            f"partial_trace: operator shape {rho.shape} does not match dims {dims}"
        )
    if subsystem not in (1, 2, 3):
        raise ValueError(f"partial_trace: subsystem must be 1, 2 or 3, got {subsystem}")
    sizes = (n, p, q)
    strides = (p * q, q, 1)
    traced = subsystem - 1
    kept = [a for a in range(3) if a != traced]
    da, db, dt = sizes[kept[0]], sizes[kept[1]], sizes[traced]
    flat = (
        np.arange(da)[:, None, None] * strides[kept[0]]
        + np.arange(db)[None, :, None] * strides[kept[1]]
        + np.arange(dt)[None, None, :] * strides[traced]
    ).reshape(da * db, dt)
    return rho[flat[:, None, :], flat[None, :, :]].sum(axis=2)


def independent_columns(M: np.ndarray) -> list[int]:
    """Sorted indices of a maximal linearly independent set of columns of ``M``.

    Greedy Gram-Schmidt with column pivoting: each step keeps the column with
    the largest component orthogonal to the columns kept so far, and stops once
    that component falls to ``DEFAULT_RANK_TOL`` times the largest column norm.
    """
    rest = np.array(M, dtype=complex)
    norms = np.linalg.norm(rest, axis=0)
    floor = DEFAULT_RANK_TOL * norms.max(initial=0.0)
    keep: list[int] = []
    for _ in range(min(rest.shape)):
        j = int(np.argmax(norms))
        if norms[j] <= floor:
            break
        keep.append(j)
        q = rest[:, j] / norms[j]
        for _ in range(2):  # the second pass removes what rounding left along q
            rest -= np.outer(q, q.conj() @ rest)
        norms = np.linalg.norm(rest, axis=0)
    return sorted(keep)


def reduce_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solution set of real or complex ``A x = b`` as ``Q x = c``, by SVD.

    ``Q`` has orthonormal rows spanning the row space of ``A``, so the rank is
    ``Q.shape[0]``; ``b`` and ``c`` may be vectors or matrices with one column
    per right-hand side. Returns ``(Q, c)``.
    """
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    c = (dagger(U[:, :rank]) / s[:rank, None]) @ b
    return Vh[:rank], c


# Ways a Douglas–Rachford run ends; the first two certify a point.
CERTIFYING_STOPS = ("affine_psd", "kraus_newton")
# Outcome detail for each stop, formatted with the iteration count.
STOP_DETAIL = {
    "affine_psd": "affine point PSD after {} iterations",
    "kraus_newton": "Kraus-form Gauss-Newton finish at iteration {}",
    "inconsistent": "affine constraints linearly inconsistent, stopped after {} iterations",
    "stalled": "projections stalled after {} iterations",
    "budget": "projections iteration budget exhausted after {} iterations",
}
# An affine set is consistent when its residual floor is at most FEAS_TOL; a
# point of it certifies when it has no eigenvalue below -PSD_TOL.
FEAS_TOL = 1e-8
PSD_TOL = 1e-9
# A run stalls when the best residual over STALL_WINDOW iterations improves on
# the previous window's by less than STALL_TOL (relative).
STALL_WINDOW = 500
STALL_TOL = 1e-12
# The finish callback runs at iterations FINISH_FROM, 2·FINISH_FROM, 4·FINISH_FROM, ...
FINISH_FROM = 32
# A cone iterate farther than FEAS_TOL from the affine set has its affine point
# tested at every iteration up to PSD_CHECK_DENSE and at every
# PSD_CHECK_EVERY-th iteration after that.
PSD_CHECK_DENSE = 64
PSD_CHECK_EVERY = 8


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a Douglas–Rachford run (see ``alternating_projections``).

    ``point`` is the last PSD-cone iterate X, the finish's candidate K K*
    after a ``kraus_newton`` stop, or the (Hermitian part of the) start after
    an ``inconsistent`` stop, and ``affine_point`` is its affine projection,
    which satisfies the affine constraints as well as they can be met. ``stop``
    says why the run ended:

    - ``affine_psd``: ``affine_point``, the projection of a cone iterate, is
      PSD up to ``PSD_TOL``;
    - ``kraus_newton``: ``affine_point``, the projection of the finish's
      K K*, is PSD up to ``PSD_TOL``;
    - ``inconsistent``: the affine set's residual floor is above
      ``FEAS_TOL``, so no point of it can certify; the run ends at
      iteration 0;
    - ``stalled``: the window stall rule ended the run;
    - ``budget``: ``max_iter`` iterations ran out.

    ``residual_affine`` is the affine set's residual floor, the residual of
    ``affine_point``, after a certifying or ``inconsistent`` stop, and the
    residual of ``point`` otherwise. ``residual_psd`` is measured at
    ``affine_point``.
    """

    point: np.ndarray
    affine_point: np.ndarray
    residual_affine: float
    residual_psd: float
    iterations: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop in CERTIFYING_STOPS

    @property
    def stalled(self) -> bool:
        return self.stop == "stalled"


def alternating_projections(
    project_affine: Callable[[np.ndarray], tuple[np.ndarray, float]],
    *,
    start: np.ndarray,
    max_iter: int = 20000,
    finish: Callable[[np.ndarray], np.ndarray | None] | None = None,
) -> ProjectionResult:
    """Douglas–Rachford splitting between the PSD cone and an affine set.

    ``project_affine(X)`` returns the affine projection P_aff(X) together with
    the affine residual of X. Each step takes X = P_psd(Z), tests it, and moves
    the governing sequence by Z += P_aff(2X - Z) - X (Bauschke, Combettes &
    Luke, J. Approx. Theory 127, 2004). P_aff is affine, so that step equals
    Z += 2 P_aff(X) - P_aff(Z) - X, and afterwards P_aff(Z) = P_aff(X). The
    loop therefore carries P_aff(Z) forward and evaluates the affine map once
    per iteration, on X; the same Y = P_aff(X) serves the stop test.

    Every point of the affine set has the same residual, its floor, so the
    floor is evaluated once, before the loop, as the residual of
    P_aff(start). A floor above ``FEAS_TOL`` means the set is linearly
    inconsistent and no point of it can certify: the run ends at iteration 0
    (``inconsistent``). On a consistent set the run stops as soon as an affine
    point is PSD to ``PSD_TOL`` (see ``ProjectionResult.stop``): Y is tested
    whenever the residual of X is at most ``FEAS_TOL``, and otherwise at every
    iteration up to ``PSD_CHECK_DENSE`` and at every ``PSD_CHECK_EVERY``-th
    after that, since the test's Cholesky screen costs 10–15 % of an
    iteration at small Choi sizes and, on the benchmark corpora, every run
    that stopped far from the set did so by iteration 64.

    ``finish(K)``, if given, is called at iterations 32, 64, 128, ... with
    the factor K of X = K K* and may return a candidate point (typically a
    polished K K*) or None. A candidate is accepted (``kraus_newton``) only
    when its residual is at most ``FEAS_TOL`` and its affine point passes the
    same PSD test.

    The run stalls when the best residual of X over a ``STALL_WINDOW``
    improves on the previous window's by less than ``STALL_TOL`` (relative).
    The routine never claims that a consistent set misses the cone. The name
    is kept for its callers and for the benchmark's trace spans, which wrap
    the function by name and read ``start`` by keyword.
    """
    if max_iter <= 0:
        raise ValueError("alternating_projections: max_iter must be positive")

    # Z stays Hermitian up to rounding; the eigensolver reads only its lower triangle.
    Z = np.asarray(start, dtype=complex)
    Z = (Z + dagger(Z)) / 2
    PZ, _ = project_affine(Z)
    floor = project_affine(PZ)[1]
    shift = 2 * PSD_TOL * np.eye(Z.shape[0])

    def certifies(Y: np.ndarray) -> bool:
        # A Cholesky of Y + 2·PSD_TOL·I screens out most non-PSD Y before their
        # eigenvalues; the doubled tolerance keeps the screen looser than the
        # test, so rounding never screens out a Y the test would accept.
        try:
            np.linalg.cholesky(Y + shift)
        except np.linalg.LinAlgError:
            return False
        return min_eig(Y) >= -PSD_TOL

    # An inconsistent set ends the run before its first iteration.
    stop = "inconsistent" if floor > FEAS_TOL else "budget"
    X, Y, res_aff, it = Z, PZ, floor, 0
    window_best = np.inf
    prev_window_best = np.inf
    while stop == "budget" and it < max_iter:
        it += 1
        K = psd_factor(Z)
        X = K @ dagger(K)
        Y, res_aff = project_affine(X)
        due = res_aff <= FEAS_TOL or it <= PSD_CHECK_DENSE or it % PSD_CHECK_EVERY == 0
        if due and certifies(Y):
            stop = "affine_psd"
            break
        if finish is not None and it >= FINISH_FROM and it & (it - 1) == 0:
            candidate = finish(K)
            if candidate is not None:
                Y_c, res_c = project_affine(candidate)
                if res_c <= FEAS_TOL and certifies(Y_c):
                    X, Y, stop = candidate, Y_c, "kraus_newton"
                    break
        window_best = min(window_best, res_aff)
        if it % STALL_WINDOW == 0:
            if np.isfinite(prev_window_best):
                improvement = (prev_window_best - window_best) / max(prev_window_best, 1e-300)
                if improvement < STALL_TOL:
                    stop = "stalled"
                    break
            prev_window_best = window_best
            window_best = np.inf
        Z = Z + 2 * Y - PZ - X
        PZ = Y
    return ProjectionResult(
        point=X,
        affine_point=Y,
        residual_affine=floor if stop in CERTIFYING_STOPS else res_aff,
        residual_psd=max(0.0, -min_eig(Y)),
        iterations=it,
        stop=stop,
    )


def complete_psd(
    fixed: np.ndarray,
    mask: np.ndarray,
    start: np.ndarray | None = None,
    *,
    max_iter: int = 20000,
) -> ProjectionResult:
    """Complete a partial Hermitian matrix (entries where ``mask`` is set) to PSD.

    ``mask`` must be symmetric and include the diagonal; ``fixed`` must be
    Hermitian on the masked entries.
    """
    mask = np.asarray(mask, dtype=bool)
    if not np.array_equal(mask, mask.T):
        raise ValueError("complete_psd: mask must be symmetric")
    target = fixed[mask]
    scale = 1.0 + float(np.linalg.norm(target))

    def project_affine(X: np.ndarray) -> tuple[np.ndarray, float]:
        Y = (X + dagger(X)) / 2.0
        Y[mask] = target
        return Y, float(np.linalg.norm(X[mask] - target) / scale)

    if start is None:
        start = fixed * mask
    return alternating_projections(project_affine, start=start, max_iter=max_iter)
