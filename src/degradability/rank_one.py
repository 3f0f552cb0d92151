"""Exact fast path for block families whose R_i are all rank one.

With R_i = u_i d_i v_i^t, a channel taking {R_u R_v*} to {S_u S_v*} exists
iff the Gram matrices satisfy (u_i*u_j) = (v_i*v_j) ∘ C for some correlation
matrix C (Hermitian, unit diagonal, PSD).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import BlockFamily

DEFAULT_DIV_TOL = 1e-10
DEFAULT_MATCH_TOL = 1e-8
# Iteration budget of the PSD completion behind a condition-(e) Yes.
COMPLETION_MAX_ITER = 5000


@dataclass(frozen=True)
class RankOneDecomposition:
    """Factors R_i = u_i d_i v_i^t with unit u_i in C^q, unit v_i in C^p, d_i > 0.

    Entry i of ``u``, ``d`` and ``v`` belongs to R_i.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray

    @property
    def count(self) -> int:
        return len(self.u)

    def swapped(self) -> RankOneDecomposition:
        """Decomposition of the transposed family S_i = v_i d_i u_i^t."""
        return RankOneDecomposition(u=self.v, d=self.d, v=self.u)


@dataclass(frozen=True)
class CorrelationCertificate:
    """Correlation matrix C with the mask of entries forced by Gram division."""

    C: np.ndarray
    fixed_mask: np.ndarray
    completed: bool


@dataclass(frozen=True)
class RankOneRefutation:
    """The entry (i, j) on which condition (e) fails.

    Either the forced |C_ij| exceeds 1, or the u-Gram entry is nonzero where
    the v-Gram vanishes.
    """

    i: int
    j: int


def detect_rank_one(blocks: BlockFamily) -> RankOneDecomposition | None:
    """Rank-one factors of every R_i, or None if any block fails the test.

    A block is rank one when its largest singular value is positive and its
    second is at most ``linalg.DEFAULT_RANK_TOL`` times the largest. The rule
    reads the singular values of the R stack alone; only a family that passes
    pays for the singular vectors.
    """
    s = np.linalg.svd(blocks.R, compute_uv=False)
    top = s[:, 0]
    if not np.all(top > 0.0):
        return None
    if s.shape[1] > 1 and np.any(s[:, 1] > linalg.DEFAULT_RANK_TOL * top):
        return None
    U, s, Vh = np.linalg.svd(blocks.R, full_matrices=False)
    return RankOneDecomposition(u=U[:, :, 0], d=s[:, 0], v=Vh[:, 0, :])


def check_condition_e(
    dec: RankOneDecomposition,
) -> tuple[str, CorrelationCertificate | RankOneRefutation | None, str]:
    """Decide whether a correlation matrix C with (u_i*u_j) = (v_i*v_j) ∘ C exists.

    Returns (verdict, certificate, reason) with verdict Yes, No or Inconclusive.
    Entries with |v_i*v_j| <= DEFAULT_DIV_TOL stay free and are PSD-completed; a forced
    entry with |C_ij| > 1 kills the 2x2 principal minor and settles No exactly.
    A Yes carries a ``CorrelationCertificate``. A No settled by one entry
    carries the first offending entry in row-major order as a
    ``RankOneRefutation``; a No from the fully forced C, and an Inconclusive,
    carry None. An Inconclusive reason names how the PSD completion stopped.
    """
    n = dec.count
    u = np.asarray(dec.u, dtype=complex)
    v = np.asarray(dec.v, dtype=complex)
    G_u = u.conj() @ u.T
    G_v = v.conj() @ v.T
    diag = np.eye(n, dtype=bool)
    fixed_mask = ~diag & (np.abs(G_v) > DEFAULT_DIV_TOL)
    C = G_u / np.where(fixed_mask, G_v, 1.0)
    too_large = fixed_mask & (np.abs(C) ** 2 > 1 + DEFAULT_MATCH_TOL)
    unmatched = ~diag & ~fixed_mask & (np.abs(G_u) > DEFAULT_MATCH_TOL)
    offending = too_large | unmatched
    if offending.any():
        # argmax of the flat mask is its first offending entry in row-major order.
        i, j = divmod(int(np.argmax(offending)), n)
        if too_large[i, j]:
            c = C[i, j]
            reason = (
                f"forced |C({i},{j})| = {abs(c):.6g} > 1: principal minor "
                f"1 - |C|^2 = {1 - abs(c) ** 2:.3g} < 0"
            )
        else:
            reason = (
                f"u-Gram entry ({i},{j}) = {abs(G_u[i, j]):.6g} is nonzero where "
                f"the v-Gram vanishes"
            )
        return "No", RankOneRefutation(i, j), reason

    fixed = np.where(fixed_mask, C, np.eye(n))
    mask = fixed_mask | diag
    if mask.all():
        low = linalg.min_eig(fixed)
        if low < -DEFAULT_MATCH_TOL:
            return "No", None, f"fully forced C has min eigenvalue {low:.3g} < 0"
        cert = CorrelationCertificate(C=fixed, fixed_mask=fixed_mask, completed=False)
        return "Yes", cert, "all entries forced; PSD verified"

    result = linalg.complete_psd(fixed * mask, mask, max_iter=COMPLETION_MAX_ITER)
    if not result.converged:
        detail = linalg.STOP_DETAIL[result.stop].format(result.iterations)
        return (
            "Inconclusive",
            None,
            f"PSD completion: {detail} (affine residual {result.residual_affine:.3g})",
        )
    cert = CorrelationCertificate(
        C=result.affine_point, fixed_mask=fixed_mask, completed=True
    )
    return "Yes", cert, f"completed in {result.iterations} iterations"


def kraus_from_correlation(
    dec: RankOneDecomposition,
    cert: CorrelationCertificate,
) -> list[np.ndarray]:
    """Explicit Kraus set realizing {R_uR_v*} -> {S_uS_v*} from a certificate C.

    Factor C = Γ*Γ with unit columns γ_i; the targets t_i = v_i ⊗ γ_i share the
    Gram of the u_i, so an isometry with V u_i = t_i exists once the environment
    is padded to p·r >= q. V is the Procrustes polar factor of M_t M_u*, which
    is exact whenever the Grams match and involves no inversion, so nearly
    dependent u_i cannot blow up; tracing out the γ register gives the map.
    """
    q = dec.u[0].shape[0]
    p = dec.v[0].shape[0]
    n = dec.count
    w, W = linalg.hermitian_eig(cert.C)
    w = np.clip(w, 0.0, None)
    rank = max(int(np.sum(w > 1e-12 * max(w[0], 1.0))), 1)
    r = max(rank, -(-q // p))
    Gamma = np.zeros((r, n), dtype=complex)
    Gamma[:rank, :] = np.sqrt(w[:rank])[:, None] * linalg.dagger(W[:, :rank])

    M_u = np.column_stack(dec.u)
    M_t = np.column_stack(
        [np.kron(dec.v[i], Gamma[:, i]) for i in range(n)]
    )
    U_x, _, Vh_x = np.linalg.svd(M_t @ linalg.dagger(M_u), full_matrices=False)
    V_iso = U_x @ Vh_x
    return [V_iso.reshape(p, r, q)[:, s, :] for s in range(r)]
