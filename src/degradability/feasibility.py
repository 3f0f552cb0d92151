"""Choi-matrix feasibility engine for the block transformability condition.

The existence of a channel Φ with Φ(R_uR_v*) = S_uS_v* for all u, v is encoded
as an affine system on the Hermitian Choi matrix J = Σ_kl E_kl ⊗ Φ(E_kl)
(input index slow, output fast) intersected with the PSD cone, and searched by
Douglas–Rachford splitting between the two sets, with a Kraus-form
Gauss–Newton finish for low-rank solutions. Kraus certificates are taken from
the affine projection of the point the run stops on, which satisfies the
affine constraints, trace preservation included, exactly. The solver never
claims infeasibility; only trace-norm witnesses rule out, and ``filters``
builds every one of them and holds the rule that calls one violated, the
witness behind a rank-one No included.

Every stage reads the block products R_uR_v* and S_uS_v* from the Gram stacks
that ``states.extract_blocks`` forms: the filters, the pair equations of
``build_constraints`` and the certificate check ``verify_channel``. Each stage
answers E→B for the family it receives; ``decide`` is the only function that
reads a direction, and for B→E it hands every stage ``blocks.swapped()``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg, rank_one
from .filters import FilterWitness, pair_filter, random_witness_filter, refutation_filter
from .states import BlockFamily, TripartiteState, extract_blocks

DIRECTIONS = ("EtoB", "BtoE")

# Most Gauss–Newton steps one Kraus-form finish takes (see AffineSystem.kraus_newton).
NEWTON_STEPS = 12
# Largest Frobenius error (I ⊗ Φ) may leave on the unit-norm state's blocks for
# a Feasible verdict; the completeness bound is linalg.COMPLETENESS_TOL.
VERIFY_TOL = 1e-7


@dataclass(frozen=True)
class SolveConfig:
    """Budgets of one decision: projection iterations, random witnesses and their seed."""

    max_iter: int = 20000
    witnesses: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.witnesses < 0:
            raise ValueError("witnesses must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    residual floor equal to ``inconsistency``, and the engine ends its run
    at iteration 0.
    ``raw_rows`` counts the real equations the constraints amount to.

    ``project`` and ``residual`` state the two maps on their own;
    ``project_and_residual`` is the engine's fused form of both.
    ``kraus_newton`` is the engine's finish: it polishes a low-rank factor
    J = K K* onto the set by Gauss–Newton steps on K.
    """

    in_dim: int
    out_dim: int
    sources: np.ndarray = field(repr=False)
    images: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    raw_rows: int

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
    detail: str = ""


def choi_from_kraus(kraus: KrausSet) -> np.ndarray:
    """J = Σ_j vec'(F_j) vec'(F_j)*, row index (k, a) = k·out_dim + a (input slow)."""
    d = kraus.in_dim * kraus.out_dim
    J = np.zeros((d, d), dtype=complex)
    for F in kraus.operators:
        w = F.T.reshape(-1)
        J += np.outer(w, w.conj())
    return J


def build_constraints(blocks: BlockFamily, pairs: str = "all") -> AffineSystem:
    """Affine system for Φ(M_in^{uv}) = M_out^{uv} plus trace preservation.

    Constraint pairs run over a maximal linearly independent subset of the
    source blocks. Every S_i is R_i transposed, so a linear relation among
    the source blocks holds among the target blocks too, and the pairs of a
    dependent block add no constraint. pairs="diagonal" restricts to u = v
    over that subset.
    """
    if pairs not in ("all", "diagonal"):
        raise ValueError(f"pairs must be 'all' or 'diagonal', got {pairs!r}")
    in_dim = blocks.G_R.shape[-1]
    out_dim = blocks.G_S.shape[-1]
    keep = np.array(linalg.independent_columns(blocks.R.reshape(blocks.count, -1).T))

    if pairs == "all":
        us, vs = np.repeat(keep, keep.size), np.tile(keep, keep.size)
    else:
        us = vs = keep
    weights = np.where(us == vs, 1.0, np.sqrt(0.5))[:, None]
    sources = weights * blocks.G_R[us, vs].reshape(us.size, -1)
    images = weights * blocks.G_S[us, vs].reshape(us.size, -1)
    basis, fitted = linalg.reduce_rows(sources, images)
    # Each unordered pair is one complex equation per output entry; off-diagonal
    # pairs appear twice among the ordered pairs (us, vs).
    unordered = (us.size + keep.size) // 2
    return AffineSystem(
        in_dim=in_dim,
        out_dim=out_dim,
        sources=sources,
        images=images,
        basis=basis,
        fitted=fitted,
        raw_rows=in_dim * (in_dim + 1) + 2 * unordered * out_dim * out_dim,
    )


def solve_feasibility(
    system: AffineSystem,
    config: SolveConfig = SolveConfig(),
    initial: np.ndarray | None = None,
) -> FeasibilityOutcome:
    """Douglas–Rachford splitting between the affine set and the PSD cone.

    A linearly inconsistent system, one whose residual floor is above
    ``linalg.FEAS_TOL``, ends Inconclusive at iteration 0 with the floor as
    ``residual_affine``. On a consistent system the run stops at the first
    certifiable point: a PSD affine projection P_aff(X) of a cone iterate X
    or of a K K* polished by ``AffineSystem.kraus_newton`` (tried at
    iterations 32, 64, 128, ...). Feasible outcomes carry the Kraus certificate
    extracted from that affine point, which satisfies the affine constraints,
    trace preservation included, exactly, so the certificate's completeness
    defect comes only from the near-zero eigenvalues that extraction drops.
    The ``detail`` names the stop. This stage never returns RuledOut.
    """
    dim = system.in_dim * system.out_dim
    start = initial if initial is not None else np.eye(dim, dtype=complex) / system.out_dim
    result = linalg.alternating_projections(
        system.project_and_residual,
        start=start,
        max_iter=config.max_iter,
        finish=system.kraus_newton,
    )
    return FeasibilityOutcome(
        status="Feasible" if result.converged else "Inconclusive",
        stage="sdp",
        residual_affine=result.residual_affine,
        residual_psd=result.residual_psd,
        iterations=result.iterations,
        certificate=(
            extract_kraus(result.affine_point, system.in_dim, system.out_dim)
            if result.converged
            else None
        ),
        detail=linalg.STOP_DETAIL[result.stop].format(result.iterations),
    )


def extract_kraus(J: np.ndarray, in_dim: int, out_dim: int) -> KrausSet:
    """Kraus operators of a (near-)PSD Choi matrix J laid out as by ``choi_from_kraus``.

    J must be (in_dim·out_dim)-square; ``linalg.hermitian_eig`` rejects a
    non-Hermitian J, and a materially negative eigenvalue is rejected after it.
    """
    d = in_dim * out_dim
    if J.shape != (d, d):
        raise ValueError(f"Choi matrix must be {d}x{d}, got {J.shape}")
    w, V = linalg.hermitian_eig(J)
    top = max(float(w[0]), 0.0)
    rank_tol = linalg.DEFAULT_RANK_TOL
    if w[-1] < -max(VERIFY_TOL, 10 * rank_tol * max(top, 1.0)):
        raise ValueError(f"Choi matrix is materially non-PSD (min eig {w[-1]:.3g})")
    ops = []
    for lam, vec in zip(w, V.T):
        if lam > rank_tol * max(top, 1e-300):
            ops.append(np.sqrt(lam) * vec.reshape(in_dim, out_dim).T)
    if not ops:
        ops.append(np.zeros((out_dim, in_dim), dtype=complex))
    return KrausSet(operators=ops)


def verify_channel(kraus: KrausSet, blocks: BlockFamily) -> float:
    """Frobenius distance between (I ⊗ Φ)(source reduction) and the target one.

    The source reduction is the Gram stack G_R, so (I ⊗ Φ) of it is
    Σ_s F_s G_R[u, v] F_s* over all (u, v) at once, compared with G_S.
    """
    need_in, need_out = blocks.G_R.shape[-1], blocks.G_S.shape[-1]
    if kraus.in_dim != need_in or kraus.out_dim != need_out:
        raise ValueError(
            f"channel maps {kraus.in_dim}->{kraus.out_dim} but blocks need "
            f"{need_in}->{need_out}"
        )
    F = np.stack(kraus.operators)[:, None, None]
    got = (F @ blocks.G_R @ F.conj().swapaxes(-1, -2)).sum(axis=0)
    return float(np.linalg.norm(got - blocks.G_S))


def decide(
    state: TripartiteState, direction: str, config: SolveConfig = SolveConfig()
) -> FeasibilityOutcome:
    """Full pipeline: rank-one fast path, filters, then Choi feasibility.

    ``direction`` is ``"EtoB"`` or ``"BtoE"``, and this is the only function
    that reads it: for B→E it swaps the block family and its rank-one
    decomposition once, and every stage below answers E→B on what it gets.
    The swap follows rank-one detection, which reads the R stack, so both
    directions see the same factors u_i, d_i, v_i.

    The state is normalized first so verdicts are scale invariant. When every
    R_i has rank one, condition (e) runs first: it settles Yes exactly with a
    verified Kraus set, and a No at entry (i, j) with the stronger violated
    one of that entry's two pair witnesses (``filters.refutation_filter``,
    stage ``rank_one``). Any other rank-one result goes on to the later
    stages, and the final detail starts with ``condition (e) deferred:`` and
    the reason. Every family that is not rank one goes straight to the pair
    filter, the random filter and then the Choi feasibility stage. Returns
    the first conclusive outcome. A filter's RuledOut carries the filter's
    strongest violated witness and counts the violators in its detail.
    Feasible always carries a Kraus set that re-verifies on the normalized
    state within ``VERIFY_TOL``.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    blocks = extract_blocks(state.unit())
    dec = rank_one.detect_rank_one(blocks)
    if direction == "BtoE":
        blocks = blocks.swapped()
        dec = None if dec is None else dec.swapped()
    if dec is None:
        return _decide_general(blocks, config)
    result = _decide_rank_one(blocks, dec)
    if isinstance(result, FeasibilityOutcome):
        return result
    outcome = _decide_general(blocks, config)
    return replace(outcome, detail=f"condition (e) deferred: {result}; {outcome.detail}")


def _decide_general(blocks: BlockFamily, config: SolveConfig) -> FeasibilityOutcome:
    """The pair filter, the random filter, then the Choi feasibility stage."""
    name, report = "pair", pair_filter(blocks)
    if not report.violated and config.witnesses > 0:
        name = "random"
        report = random_witness_filter(blocks, config.witnesses, config.seed)
    if report.violated:
        return FeasibilityOutcome(
            status="RuledOut",
            stage="filter",
            filter_witness=report.witness,
            detail=f"{name} filter: {report.violations} violating witnesses",
        )

    outcome = solve_feasibility(build_constraints(blocks), config)
    if outcome.status != "Feasible":
        return outcome
    ok, note = _check_certificate(outcome.certificate, blocks)
    if ok:
        return replace(outcome, detail=f"{outcome.detail}; {note}")
    return replace(
        outcome,
        status="Inconclusive",
        certificate=None,
        detail=f"solver converged but certificate failed verification ({note})",
    )


def _check_certificate(kraus: KrausSet, blocks: BlockFamily) -> tuple[bool, str]:
    """Re-verify a Kraus certificate on the blocks; the note states the evidence."""
    residual = verify_channel(kraus, blocks)
    defect = kraus.completeness_defect()
    if residual <= VERIFY_TOL and defect <= linalg.COMPLETENESS_TOL:
        return True, f"verified {residual:.3g}"
    return False, f"residual {residual:.3g}, completeness defect {defect:.3g}"


def _decide_rank_one(
    blocks: BlockFamily, dec: rank_one.RankOneDecomposition
) -> FeasibilityOutcome | str:
    """Resolve via condition (e); a string defers to the later stages and says why."""
    verdict, cert, reason = rank_one.check_condition_e(dec)
    if verdict == "Yes":
        kraus = KrausSet(rank_one.kraus_from_correlation(dec, cert))
        ok, note = _check_certificate(kraus, blocks)
        if ok:
            return FeasibilityOutcome(
                status="Feasible",
                stage="rank_one",
                certificate=kraus,
                detail=f"condition (e): {reason}; {note}",
            )
        return f"{reason}, but the certificate failed verification ({note})"
    if isinstance(cert, rank_one.RankOneRefutation):
        report = refutation_filter(blocks, cert.i, cert.j)
        if report.violated:
            return FeasibilityOutcome(
                status="RuledOut",
                stage="rank_one",
                filter_witness=report.witness,
                detail=f"condition (e) fails: {reason}",
            )
        return f"{reason}, but neither pair witness of entry ({cert.i},{cert.j}) is violated"
    if verdict == "No":
        return f"{reason}, and no single entry refutes it"
    return reason
