"""Choi-matrix feasibility engine for the block transformability condition.

The existence of a channel Φ with Φ(R_uR_v*) = S_uS_v* for all u, v is encoded
as an affine system on the Hermitian Choi matrix J = Σ_kl E_kl ⊗ Φ(E_kl)
(input index slow, output fast) intersected with the PSD cone, and searched by
Douglas–Rachford splitting between the two sets, with a Kraus-form
Gauss–Newton finish for low-rank solutions. Kraus certificates are taken from
the affine projection of the point the run stops on, which satisfies the
affine constraints, trace preservation included, exactly. The solver never
claims infeasibility; only trace-norm filter witnesses rule out.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg, rank_one
from .filters import (
    DEFAULT_SLACK_TOL,
    FilterWitness,
    combination,
    oriented_families,
    pair_filter,
    random_witness_filter,
)
from .states import BlockFamily, TripartiteState, extract_blocks

# Most Gauss–Newton steps one Kraus-form finish takes (see AffineSystem.kraus_newton).
NEWTON_STEPS = 12
# Outcome detail for each way a projection run stops (linalg.ProjectionResult.stop).
_STOP_DETAIL = {
    "converged": "converged in {} iterations",
    "affine_psd": "affine point PSD after {} iterations",
    "kraus_newton": "Kraus-form Gauss-Newton finish at iteration {}",
    "stalled": "projections stalled after {} iterations",
    "budget": "projections iteration budget exhausted after {} iterations",
}


@dataclass(frozen=True)
class SolveConfig:
    max_iter: int = 20000
    feas_tol: float = 1e-8
    psd_tol: float = 1e-9
    stall_window: int = 500
    stall_tol: float = 1e-12
    verify_tol: float = 1e-7
    rank_tol: float = 1e-10
    slack_tol: float = DEFAULT_SLACK_TOL
    witnesses: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("feas_tol", "psd_tol", "stall_tol", "verify_tol", "rank_tol",
                     "slack_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iter < 1 or self.stall_window < 1:
            raise ValueError("max_iter and stall_window must be >= 1")
        if self.witnesses < 0:
            raise ValueError("witnesses must be >= 0")


@dataclass(frozen=True)
class AffineSystem:
    """Φ(M_in^{uv}) = M_out^{uv} and tr_out J = I as an affine set of Choi matrices.

    The constraints act on the realigned Choi matrix Jm[(k,l),(a,b)] =
    J[(k,a),(l,b)], for which Φ(X) = vec(X)ᵗ Jm. ``sources`` and ``images``
    stack vec(M_in^{uv}) and vec(M_out^{uv}) over ordered pairs, off-diagonal
    pairs scaled by 1/√2 so that each unordered pair weighs once. ``basis``
    holds orthonormal rows Q spanning the sources and ``fitted`` their
    least-squares images C. The affine set is Q Jm = C together with trace
    preservation on the complement of span Q; residuals are measured against
    the weighted pairs themselves, so an inconsistent system has a positive
    residual floor equal to ``inconsistency`` and can never converge.
    ``raw_rows`` counts the real equations the constraints amount to.

    ``project`` and ``residual`` state the two maps on their own;
    ``project_and_residual`` is the engine's fused form of both.
    ``kraus_newton`` is the engine's finish: it polishes a low-rank factor
    J = K K* onto the set by Gauss–Newton steps on K.
    """

    direction: str
    in_dim: int
    out_dim: int
    sources: np.ndarray = field(repr=False)
    images: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    raw_rows: int
    dependency_witness: FilterWitness | None = None
    dependency_detail: str = ""

    @property
    def inconsistency(self) -> float:
        dim = self.in_dim * self.out_dim
        return self.residual(self.project(np.zeros((dim, dim), dtype=complex)))

    def _realign(self, J: np.ndarray) -> np.ndarray:
        i, o = self.in_dim, self.out_dim
        return J.reshape(i, o, i, o).transpose(0, 2, 1, 3).reshape(i * i, o * o)

    def project(self, J: np.ndarray) -> np.ndarray:
        """Frobenius-nearest Hermitian point of the affine set."""
        i, o = self.in_dim, self.out_dim
        Q = self.basis
        Jm = self._realign(J)
        Jm = Jm + linalg.dagger(Q) @ (self.fitted - Q @ Jm)
        diag = np.arange(o) * (o + 1)
        g = np.eye(i).reshape(-1) - Jm[:, diag].sum(axis=1)
        Jm[:, diag] += (g - linalg.dagger(Q) @ (Q @ g))[:, None] / o
        X = Jm.reshape(i, i, o, o).transpose(0, 2, 1, 3).reshape(i * o, i * o)
        return (X + linalg.dagger(X)) / 2

    @cached_property
    def _fused(self) -> tuple[np.ndarray, ...]:
        # Q*, sources·Q*, the trace corrector (I - Q*Q)/o, vec(I) and
        # 1/(1 + ‖b‖): all that project_and_residual needs besides J.
        i, o = self.in_dim, self.out_dim
        Q_h = linalg.dagger(self.basis)
        corrector = (np.eye(i * i) - Q_h @ self.basis) / o
        rhs = np.sqrt(i + np.linalg.norm(self.images) ** 2)
        return Q_h, self.sources @ Q_h, corrector, np.eye(i).reshape(-1), 1.0 / (1.0 + rhs)

    def project_and_residual(self, J: np.ndarray) -> tuple[np.ndarray, float]:
        """``project(J)`` and ``residual(J)`` of a Hermitian J from one realignment.

        J is taken as Hermitian, as the engine's iterates are up to rounding,
        and is not re-symmetrized. The result is, because the pair step's
        rounding breaks Hermiticity in proportion to the fitted images, which
        can be large when the sources are nearly dependent.
        The sources lie in span Q, so the pair residual is (sources·Q*)(Q·Jm)
        - images and reuses Q·Jm. Because (I - Q*Q) Q* = 0, the trace
        correction after the pair step is -(I - Q*Q)/o applied to the trace
        defect vec(tr_out J - I) of the input, which the residual needs anyway.
        """
        i, o = self.in_dim, self.out_dim
        Q_h, sources_q, corrector, eye, inv_scale = self._fused
        # A fresh copy: Jm is updated in place below.
        Jm = J.reshape(i, o, i, o).transpose(0, 2, 1, 3).copy().reshape(i * i, o * o)
        QJm = self.basis @ Jm
        diag = Jm[:, :: o + 1]  # columns (a, a): a view into Jm
        trace = diag.sum(axis=1) - eye
        pairs = sources_q @ QJm - self.images
        # Each unordered off-diagonal entry of tr_out J - I counts once.
        trace_diag = trace[:: i + 1]
        sq = np.vdot(pairs, pairs).real + (
            np.vdot(trace, trace).real + np.vdot(trace_diag, trace_diag).real
        ) / 2
        Jm += Q_h @ (self.fitted - QJm)
        diag -= (corrector @ trace)[:, None]
        X = Jm.reshape(i, i, o, o).transpose(0, 2, 1, 3).reshape(i * o, i * o)
        X += linalg.dagger(X)
        X *= 0.5
        return X, float(np.sqrt(sq) * inv_scale)

    def kraus_newton(self, K: np.ndarray) -> np.ndarray | None:
        """Polish J = K K* onto the affine set by Gauss–Newton steps on K; None if no gain.

        The columns of K are the Kraus operators F_j in Choi layout, and the
        residual is the weighted pair equations Σ_j F_j M_in F_j* - M_out (the
        ``sources`` and ``images`` rows) together with Σ_j F_j* F_j - I. This
        low-rank factorization of the feasibility problem (Burer & Monteiro,
        Math. Program. 95, 2003) is only tried while the r·in·out complex
        unknowns do not outnumber the complex equations; at higher rank the
        engine's PSD-affine-point stop covers the interior.

        Each step solves the real normal equations of the linearized residual
        for the least-squares step. A relative shift of 1e-12 on their
        diagonal keeps them solvable along the r² directions that only mix
        the Kraus operators unitarily, which leave K K* fixed. At most
        ``NEWTON_STEPS`` steps run; a step that does not lower the residual
        norm is dropped and ends the polish, and one that does not halve it
        ends the polish after it is taken. The result is only a candidate: the
        engine accepts it through the same test as any iterate.
        """
        i, o = self.in_dim, self.out_dim
        r = K.shape[1]
        if r == 0 or r * i * o > self.images.size + i * i:
            return None
        M = self.sources.reshape(-1, i, i)
        N = self.images.reshape(-1, o, o)
        eye_i, eye_o = np.eye(i), np.eye(o)

        def residual(K: np.ndarray) -> tuple:
            Kr = K.reshape(i, o, r)  # Kr[k, a, j] = F_j[a, k]
            K2 = Kr.reshape(i, o * r)
            U = np.einsum("skl,lbj->skbj", M, Kr.conj())
            res = np.concatenate([
                (np.einsum("kaj,skbj->sab", Kr, U) - N).reshape(-1),
                (K2 @ linalg.dagger(K2) - eye_i).reshape(-1),
            ])
            return K, Kr, U, res, float(np.linalg.norm(res))

        start = current = residual(K)
        for _ in range(NEWTON_STEPS):
            K, Kr, U, res, norm = current
            # d res = G dK + H conj(dK) over the unknowns Kr[k, a, j]; with
            # dK = x + i y that is (G + H) x + i (G - H) y, whose real normal
            # equations are Re(C* C) and Re(C* res) for C = [G + H, i (G - H)].
            V = np.einsum("skl,kaj->slaj", M, Kr)
            G = np.concatenate([
                np.einsum("ac,skbj->sabkcj", eye_o, U).reshape(-1, K.size),
                np.einsum("km,lcj->klmcj", eye_i, Kr.conj()).reshape(-1, K.size),
            ])
            H = np.concatenate([
                np.einsum("bc,slaj->sablcj", eye_o, V).reshape(-1, K.size),
                np.einsum("lm,kcj->klmcj", eye_i, Kr).reshape(-1, K.size),
            ])
            C = np.concatenate([G + H, 1j * (G - H)], axis=1)
            C_h = linalg.dagger(C)
            normal = (C_h @ C).real
            normal.flat[:: len(normal) + 1] += 1e-12 * np.trace(normal) / len(normal)
            delta = np.linalg.solve(normal, -(C_h @ res).real)
            trial = residual(K + (delta[: K.size] + 1j * delta[K.size :]).reshape(K.shape))
            if not trial[-1] < norm:
                break
            current = trial
            if not trial[-1] < norm / 2:
                break
        if current is start:
            return None
        K = current[0]
        return K @ linalg.dagger(K)

    def residual(self, J: np.ndarray) -> float:
        """Weighted violation by the Hermitian part of J, relative to 1 + ‖right-hand sides‖."""
        J = (J + linalg.dagger(J)) / 2
        pairs = self.sources @ self._realign(J) - self.images
        i, o = self.in_dim, self.out_dim
        trace = np.trace(J.reshape(i, o, i, o), axis1=1, axis2=3) - np.eye(i)
        # Each unordered off-diagonal entry of tr_out J - I counts once.
        sq = np.linalg.norm(pairs) ** 2 + (
            np.linalg.norm(trace) ** 2 + np.linalg.norm(np.diag(trace)) ** 2
        ) / 2
        rhs_sq = i + np.linalg.norm(self.images) ** 2
        return float(np.sqrt(sq) / (1.0 + np.sqrt(rhs_sq)))


@dataclass(frozen=True)
class ChoiMatrix:
    """J = Σ_kl E_kl^in ⊗ Φ(E_kl); row index (k, a) = k·out_dim + a."""

    matrix: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        d = self.in_dim * self.out_dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"Choi matrix must be {d}x{d}, got {self.matrix.shape}")
        herm = float(np.max(np.abs(self.matrix - linalg.dagger(self.matrix))))
        if herm > 1e-10:
            raise ValueError(f"Choi matrix is not Hermitian (defect {herm:.3g})")

    def apply(self, A: np.ndarray) -> np.ndarray:
        """Φ(A)_ab = Σ_kl A_kl J[(k,a),(l,b)]."""
        J4 = self.matrix.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        return np.einsum("kl,kalb->ab", A, J4)

    def trace_out_output(self) -> np.ndarray:
        J4 = self.matrix.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim)
        return np.einsum("kala->kl", J4)


@dataclass(frozen=True)
class KrausSet:
    operators: list[np.ndarray]

    @property
    def r(self) -> int:
        return len(self.operators)

    @property
    def in_dim(self) -> int:
        return self.operators[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        acc = sum(linalg.dagger(F) @ F for F in self.operators)
        return float(np.max(np.abs(acc - np.eye(self.in_dim))))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return sum(F @ X @ linalg.dagger(F) for F in self.operators)


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: str
    stage: str
    residual_affine: float | None = None
    residual_psd: float | None = None
    iterations: int = 0
    certificate: KrausSet | None = None
    filter_witness: FilterWitness | None = None
    choi: ChoiMatrix | None = field(default=None, repr=False)
    detail: str = ""


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """J = Σ_j vec'(F_j) vec'(F_j)* under the (input slow, output fast) convention."""
    d = kraus.in_dim * kraus.out_dim
    J = np.zeros((d, d), dtype=complex)
    for F in kraus.operators:
        w = F.T.reshape(-1)
        J += np.outer(w, w.conj())
    return ChoiMatrix(matrix=J, in_dim=kraus.in_dim, out_dim=kraus.out_dim)


def build_constraints(
    blocks: BlockFamily,
    direction: str,
    pairs: str = "all",
    dep_tol: float = 1e-10,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> AffineSystem:
    """Affine system for Φ(M_in^{uv}) = M_out^{uv} plus trace preservation.

    Constraint pairs run over a maximal linearly independent subset of the
    source blocks; each dependent source block must obey the same linear
    relation on the target side, otherwise the relation itself is a violated
    combination witness (the zero input matrix must map to zero).
    pairs="diagonal" restricts to u = v over that subset.
    """
    if pairs not in ("all", "diagonal"):
        raise ValueError(f"pairs must be 'all' or 'diagonal', got {pairs!r}")
    fam_in, fam_out = oriented_families(blocks, direction)
    n = len(fam_in)
    in_dim = fam_in[0].shape[0]
    out_dim = fam_out[0].shape[0]

    stacked = np.column_stack([m.reshape(-1) for m in fam_in])
    keep = linalg.independent_columns(stacked, dep_tol)
    dropped = [i for i in range(n) if i not in keep]

    witness = None
    detail = ""
    if dropped:
        basis = stacked[:, keep]
        for d in dropped:
            coef, *_ = np.linalg.lstsq(basis, stacked[:, d], rcond=None)
            delta = fam_out[d] - sum(
                coef[m] * fam_out[keep[m]] for m in range(len(keep))
            )
            lam = np.zeros((n, n), dtype=complex)
            w = np.zeros(n, dtype=complex)
            w[d] = 1.0
            for m, idx in enumerate(keep):
                w[idx] = -coef[m]
            lam += np.outer(w, w.conj())
            d_in = linalg.trace_norm(combination(fam_in, lam))
            d_out = linalg.trace_norm(combination(fam_out, lam))
            if d_in < d_out - slack_tol:
                witness = FilterWitness(
                    coefficients=lam,
                    d_in=d_in,
                    d_out=d_out,
                    violated=True,
                    label=f"dependency combination for block {d}",
                )
                detail = (
                    f"source block {d} depends linearly on blocks {keep} but the "
                    f"target side differs (|Δ| = {np.max(np.abs(delta)):.3g})"
                )
                break

    pair_list = (
        [(u, v) for u in keep for v in keep] if pairs == "all" else [(u, u) for u in keep]
    )
    weights = np.array([1.0 if u == v else np.sqrt(0.5) for u, v in pair_list])

    def stack(fam: list[np.ndarray]) -> np.ndarray:
        rows = [(fam[u] @ linalg.dagger(fam[v])).reshape(-1) for u, v in pair_list]
        return weights[:, None] * np.array(rows)

    sources, images = stack(fam_in), stack(fam_out)
    reduced = linalg.reduce_rows(sources, images)
    # Each unordered pair is one complex equation per output entry; off-diagonal
    # pairs appear twice in pair_list.
    unordered = (len(pair_list) + len(keep)) // 2
    return AffineSystem(
        direction=direction,
        in_dim=in_dim,
        out_dim=out_dim,
        sources=sources,
        images=images,
        basis=reduced.Q,
        fitted=reduced.c,
        raw_rows=in_dim * (in_dim + 1) + 2 * unordered * out_dim * out_dim,
        dependency_witness=witness,
        dependency_detail=detail,
    )


def solve_feasibility(
    system: AffineSystem,
    config: SolveConfig = SolveConfig(),
    initial: np.ndarray | None = None,
) -> FeasibilityOutcome:
    """Douglas–Rachford splitting between the affine set and the PSD cone.

    The run stops at the first certifiable point: a cone iterate X within
    ``feas_tol`` of the affine set whose projection P_aff(X) is PSD, a PSD
    P_aff(X) on a consistent affine set, or a K K* polished by
    ``AffineSystem.kraus_newton`` (tried at iterations 32, 64, 128, ...) that
    passes the first test. Feasible outcomes carry the Kraus certificate
    extracted from that affine point, which satisfies the affine constraints,
    trace preservation included, exactly, so the certificate's completeness
    defect comes only from the near-zero eigenvalues that extraction drops.
    The ``detail`` names the stop. The solver never returns RuledOut on its
    own; a dependency witness recorded on the system is the only way this
    stage rules out.
    """
    if system.dependency_witness is not None:
        return FeasibilityOutcome(
            status="RuledOut",
            stage="sdp",
            filter_witness=system.dependency_witness,
            detail=system.dependency_detail,
        )
    dim = system.in_dim * system.out_dim
    start = initial if initial is not None else np.eye(dim, dtype=complex) / system.out_dim
    result = linalg.alternating_projections(
        system.project_and_residual,
        start=start,
        max_iter=config.max_iter,
        feas_tol=config.feas_tol,
        psd_tol=config.psd_tol,
        stall_window=config.stall_window,
        stall_tol=config.stall_tol,
        finish=system.kraus_newton,
    )
    def wrap(X: np.ndarray) -> ChoiMatrix:
        return ChoiMatrix(
            matrix=(X + linalg.dagger(X)) / 2,
            in_dim=system.in_dim,
            out_dim=system.out_dim,
        )

    detail = _STOP_DETAIL[result.stop].format(result.iterations)
    if not result.converged:
        return FeasibilityOutcome(
            status="Inconclusive",
            stage="sdp",
            residual_affine=result.residual_affine,
            residual_psd=result.residual_psd,
            iterations=result.iterations,
            choi=wrap(result.point),
            detail=detail,
        )
    J = wrap(result.affine_point)
    kraus = extract_kraus(J, config.rank_tol)
    return FeasibilityOutcome(
        status="Feasible",
        stage="sdp",
        residual_affine=result.residual_affine,
        residual_psd=result.residual_psd,
        iterations=result.iterations,
        certificate=kraus,
        choi=J,
        detail=detail,
    )


def extract_kraus(J: ChoiMatrix, rank_tol: float = 1e-10) -> KrausSet:
    """Kraus operators from the eigendecomposition of a (near-)PSD Choi matrix."""
    w, V = linalg.hermitian_eig(J.matrix)
    top = max(float(w[0]), 0.0)
    if w[-1] < -max(1e-7, 10 * rank_tol * max(top, 1.0)):
        raise ValueError(f"Choi matrix is materially non-PSD (min eig {w[-1]:.3g})")
    ops = []
    for lam, vec in zip(w, V.T):
        if lam > rank_tol * max(top, 1e-300):
            ops.append(np.sqrt(lam) * vec.reshape(J.in_dim, J.out_dim).T)
    if not ops:
        ops.append(np.zeros((J.out_dim, J.in_dim), dtype=complex))
    return KrausSet(operators=ops)


def verify_channel(
    kraus: KrausSet, state: TripartiteState, direction: str
) -> float:
    """Frobenius distance between (I ⊗ Φ)(source reduction) and the target one."""
    blocks = extract_blocks(state)
    fam_in, fam_out = oriented_families(blocks, direction)
    if kraus.in_dim != fam_in[0].shape[0] or kraus.out_dim != fam_out[0].shape[0]:
        raise ValueError(
            f"channel maps {kraus.in_dim}->{kraus.out_dim} but blocks need "
            f"{fam_in[0].shape[0]}->{fam_out[0].shape[0]}"
        )
    n = len(fam_in)
    err = 0.0
    for u in range(n):
        for v in range(n):
            got = kraus.apply(fam_in[u] @ linalg.dagger(fam_in[v]))
            want = fam_out[u] @ linalg.dagger(fam_out[v])
            err += float(np.linalg.norm(got - want) ** 2)
    return float(np.sqrt(err))


def decide(
    state: TripartiteState, direction: str, config: SolveConfig = SolveConfig()
) -> FeasibilityOutcome:
    """Full pipeline: filters, rank-one fast path, then Choi feasibility.

    The state is normalized first so verdicts are scale invariant. Returns the
    first conclusive outcome; Feasible always carries a Kraus set that
    re-verifies on the normalized state within verify_tol.
    """
    state = state.unit()
    blocks = extract_blocks(state, config.rank_tol)

    report = pair_filter(blocks, direction, config.slack_tol)
    if report.violated:
        return FeasibilityOutcome(
            status="RuledOut",
            stage="filter",
            filter_witness=report.witnesses[0],
            detail=f"pair filter: {len(report.witnesses)} violating witnesses",
        )
    if config.witnesses > 0:
        report = random_witness_filter(
            blocks, direction, config.witnesses, config.seed, config.slack_tol
        )
        if report.violated:
            return FeasibilityOutcome(
                status="RuledOut",
                stage="filter",
                filter_witness=report.witnesses[0],
                detail=f"random filter: {len(report.witnesses)} violating witnesses",
            )

    dec = rank_one.detect_rank_one(blocks, config.rank_tol)
    if dec is not None:
        outcome = _decide_rank_one(blocks, dec, direction, config, state)
        if outcome is not None:
            return outcome

    system = build_constraints(blocks, direction, slack_tol=config.slack_tol)
    outcome = solve_feasibility(system, config)
    if outcome.status != "Feasible":
        return outcome
    ok, note = _check_certificate(outcome.certificate, state, direction, config)
    if ok:
        return replace(outcome, detail=f"{outcome.detail}; {note}")
    return replace(
        outcome,
        status="Inconclusive",
        certificate=None,
        detail=f"solver converged but certificate failed verification ({note})",
    )


def _check_certificate(
    kraus: KrausSet, state: TripartiteState, direction: str, config: SolveConfig
) -> tuple[bool, str]:
    """Re-verify a Kraus certificate on the state; the note states the evidence."""
    residual = verify_channel(kraus, state, direction)
    defect = kraus.completeness_defect()
    if residual <= config.verify_tol and defect <= linalg.COMPLETENESS_TOL:
        return True, f"verified {residual:.3g}"
    return False, f"residual {residual:.3g}, completeness defect {defect:.3g}"


def _decide_rank_one(
    blocks: BlockFamily,
    dec: rank_one.RankOneDecomposition,
    direction: str,
    config: SolveConfig,
    state: TripartiteState,
) -> FeasibilityOutcome | None:
    """Resolve via the rank-one correlation conditions; None defers to the SDP stage."""
    oriented = dec if direction == "EtoB" else dec.swapped()
    verdict, cert, reason = rank_one.check_condition_e(oriented)
    if verdict == "Yes":
        kraus = KrausSet(rank_one.kraus_from_correlation(oriented, cert))
        ok, note = _check_certificate(kraus, state, direction, config)
        if ok:
            return FeasibilityOutcome(
                status="Feasible",
                stage="rank_one",
                certificate=kraus,
                choi=choi_from_kraus(kraus),
                detail=f"condition (e): {reason}; {note}",
            )
        return None
    if verdict == "No":
        witness = _rank_one_witness(blocks, direction, reason, config.slack_tol)
        if witness is not None:
            return FeasibilityOutcome(
                status="RuledOut",
                stage="rank_one",
                filter_witness=witness,
                detail=f"condition (e) fails: {reason}",
            )
        return None
    return None


def _rank_one_witness(
    blocks: BlockFamily, direction: str, reason: str, slack_tol: float
) -> FilterWitness | None:
    """Violated pair witness matching a condition-(e) refutation, if one exists."""
    m = re.search(r"\((\d+),(\d+)\)", reason)
    if m is None:
        return None
    i, j = int(m.group(1)), int(m.group(2))
    fam_in, fam_out = oriented_families(blocks, direction)
    n = len(fam_in)
    for lam, label in (
        (_diag_diff(n, i, j), f"pair ({i},{i}) - ({j},{j})"),
        (_cross_diff(n, i, j), f"pair ({i},{j}) - ({j},{i})"),
    ):
        d_in = linalg.trace_norm(combination(fam_in, lam)) / 2
        d_out = linalg.trace_norm(combination(fam_out, lam)) / 2
        if d_in < d_out - slack_tol:
            return FilterWitness(
                coefficients=lam, d_in=d_in, d_out=d_out, violated=True, label=label
            )
    return None


def _diag_diff(n: int, i: int, j: int) -> np.ndarray:
    lam = np.zeros((n, n), dtype=complex)
    lam[i, i] = 1.0
    lam[j, j] = -1.0
    return lam


def _cross_diff(n: int, i: int, j: int) -> np.ndarray:
    lam = np.zeros((n, n), dtype=complex)
    lam[i, j] = 1.0
    lam[j, i] = -1.0
    return lam
