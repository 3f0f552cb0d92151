"""Independent re-check of verdicts, using numpy and the JSON report format only.

Nothing here calls the package's verification code: a Feasible certificate is
round-tripped through ``jsonio`` and replayed on slices computed from the raw
amplitudes, and a RuledOut witness has its trace norms recomputed from them.
"""
from __future__ import annotations

import numpy as np

from degradability import jsonio

# The package's own contract for a Feasible verdict (SolveConfig.verify_tol and
# the completeness bound in decide), applied to the unit-norm state.
VERIFY_TOL = 1e-7
COMPLETENESS_TOL = 1e-8
# A RuledOut witness must show d_out > d_in by more than rounding.
WITNESS_MARGIN = 1e-10


def families(tensor: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm slices as stacks (input family, output family) for a direction."""
    T = tensor / np.linalg.norm(tensor)
    S = T
    R = np.transpose(T, (0, 2, 1))
    if direction == "EtoB":
        return R, S
    if direction == "BtoE":
        return S, R
    raise ValueError(f"unknown direction {direction!r}")


def map_residual(kraus: list[np.ndarray], tensor: np.ndarray, direction: str
                 ) -> tuple[float, float]:
    """Frobenius error of sum_s F_s M_uv F_s* against the target blocks, over all
    (u, v), and the max-abs completeness defect of sum_s F_s* F_s."""
    fam_in, fam_out = families(tensor, direction)
    F = np.stack(kraus)
    if F.shape[2] != fam_in.shape[1] or F.shape[1] != fam_out.shape[1]:
        return np.inf, np.inf
    M_in = np.einsum("uik,vjk->uvij", fam_in, fam_in.conj())
    M_out = np.einsum("uik,vjk->uvij", fam_out, fam_out.conj())
    got = np.einsum("sai,uvij,sbj->uvab", F, M_in, F.conj())
    completeness = np.einsum("sai,saj->ij", F.conj(), F)
    return (float(np.linalg.norm(got - M_out)),
            float(np.max(np.abs(completeness - np.eye(F.shape[2])))))


def witness_norms(coefficients: np.ndarray, tensor: np.ndarray, direction: str
                  ) -> tuple[float, float]:
    """Trace norms of sum_uv lambda_uv X_u X_v* on the input and output side."""
    fam_in, fam_out = families(tensor, direction)

    def norm(fam: np.ndarray) -> float:
        M = np.einsum("uv,uik,vjk->ij", coefficients, fam, fam.conj())
        return float(np.linalg.svd(M, compute_uv=False).sum())

    return norm(fam_in), norm(fam_out)


def check_outcome(outcome, tensor: np.ndarray, direction: str,
                  oracle: str | None) -> list[str]:
    """Problems with one verdict; an empty list means it re-checks."""
    obj = jsonio.loads(jsonio.dumps(jsonio.outcome_to_obj(outcome)))
    status = obj["status"]
    problems = []
    if status == "Feasible":
        if oracle == "no":
            problems.append("Feasible where the oracle says no channel exists")
        if obj["certificate"] is None:
            problems.append("Feasible without a certificate")
        else:
            kraus = jsonio.kraus_from_obj(obj["certificate"]).operators
            residual, defect = map_residual(kraus, tensor, direction)
            if not (residual <= VERIFY_TOL and defect <= COMPLETENESS_TOL):
                problems.append(f"certificate fails re-check (residual {residual:.3g}, "
                                f"completeness {defect:.3g})")
    elif status == "RuledOut":
        if oracle == "yes":
            problems.append("RuledOut where the oracle says a channel exists")
        if obj["filter_witness"] is None:
            problems.append("RuledOut without a witness")
        else:
            lam = jsonio.pairs_to_complex_matrix(obj["filter_witness"]["coefficients"],
                                                 "coefficients")
            d_in, d_out = witness_norms(lam, tensor, direction)
            if not d_in < d_out - WITNESS_MARGIN:
                problems.append(f"witness fails re-check (d_in {d_in:.6g}, "
                                f"d_out {d_out:.6g})")
    elif status != "Inconclusive":
        problems.append(f"unknown status {status!r}")
    return problems
