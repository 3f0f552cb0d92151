"""Trace-norm necessary-condition filters for block transformability.

Any channel taking the family {R_u R_v*} to {S_u S_v*} also takes every linear
combination M_in = sum λ_uv R_u R_v* to M_out = sum λ_uv S_u S_v*, and trace-norm
contractivity forces ||M_out||_1 <= ||M_in||_1. A witness with d_in < d_out
therefore rules the channel out. Passing all witnesses certifies nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .states import BlockFamily

DIRECTIONS = ("EtoB", "BtoE")
DEFAULT_SLACK_TOL = 1e-8


@dataclass(frozen=True)
class FilterWitness:
    """One tested combination: coefficients λ with the two trace distances."""

    coefficients: np.ndarray
    d_in: float
    d_out: float
    violated: bool
    label: str = ""

    @property
    def margin(self) -> float:
        return self.d_out - self.d_in


@dataclass(frozen=True)
class FilterReport:
    direction: str
    verdict: str
    witnesses: list[FilterWitness] = field(default_factory=list)
    evaluated: int = 0

    @property
    def violated(self) -> bool:
        return self.verdict == "RuledOut"


def oriented_families(
    blocks: BlockFamily, direction: str
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Input and output block lists for a direction: EtoB maps R to S, BtoE the reverse."""
    if direction == "EtoB":
        return blocks.R, blocks.S
    if direction == "BtoE":
        return blocks.S, blocks.R
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def combination(mats: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """M = sum_{u,v} λ_uv mats[u] mats[v]^*."""
    stacked = np.stack(mats)
    return np.einsum("uv,udk,vek->de", lam, stacked, stacked.conj())


def _finish(
    direction: str, violations: list[FilterWitness], evaluated: int
) -> FilterReport:
    violations.sort(key=lambda w: (-w.margin, w.label))
    verdict = "RuledOut" if violations else "Passed"
    return FilterReport(
        direction=direction, verdict=verdict, witnesses=violations, evaluated=evaluated
    )


def pair_filter(
    blocks: BlockFamily, direction: str, slack_tol: float = DEFAULT_SLACK_TOL
) -> FilterReport:
    """Scan all two-atom difference witnesses over ordered and Hermitian index pairs."""
    fam_in, fam_out = oriented_families(blocks, direction)
    n = blocks.count

    atoms: list[tuple[np.ndarray, str]] = []
    for i in range(n):
        for j in range(n):
            lam = np.zeros((n, n), dtype=complex)
            lam[i, j] = 1.0
            atoms.append((lam, f"({i},{j})"))
    for i in range(n):
        for j in range(i + 1, n):
            lam = np.zeros((n, n), dtype=complex)
            lam[i, j] = lam[j, i] = 1.0
            atoms.append((lam, f"({i},{j})+({j},{i})"))

    mats_in = [combination(fam_in, lam) for lam, _ in atoms]
    mats_out = [combination(fam_out, lam) for lam, _ in atoms]

    violations: list[FilterWitness] = []
    evaluated = 0
    for a in range(len(atoms)):
        for b in range(a + 1, len(atoms)):
            evaluated += 1
            d_in = linalg.trace_norm(mats_in[a] - mats_in[b]) / 2
            d_out = linalg.trace_norm(mats_out[a] - mats_out[b]) / 2
            if d_in < d_out - slack_tol:
                violations.append(
                    FilterWitness(
                        coefficients=atoms[a][0] - atoms[b][0],
                        d_in=d_in,
                        d_out=d_out,
                        violated=True,
                        label=f"pair {atoms[a][1]} - {atoms[b][1]}",
                    )
                )
    return _finish(direction, violations, evaluated)


def random_witness_filter(
    blocks: BlockFamily,
    direction: str,
    count: int,
    seed: int,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> FilterReport:
    """Sample Hermitian combination witnesses from seeded standard-normal vectors.

    Rank-one coefficients c c* alone are useless here: both sides are then PSD
    with identical traces, so their trace norms agree. Each draw instead takes
    two vectors (c, c~) and cycles through the Hermitian combinations
    cc* - c~c~*, cc~* + c~c*, and i(cc~* - c~c*).
    """
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    fam_in, fam_out = oriented_families(blocks, direction)
    n = blocks.count
    gen = np.random.default_rng(seed)

    violations: list[FilterWitness] = []
    for k in range(count):
        c = _crandn(gen, n)
        ct = _crandn(gen, n)
        mode = k % 3
        if mode == 0:
            lam = np.outer(c, c.conj()) - np.outer(ct, ct.conj())
            label = f"random #{k} cc*-c~c~*"
        elif mode == 1:
            lam = np.outer(c, ct.conj()) + np.outer(ct, c.conj())
            label = f"random #{k} cc~*+c~c*"
        else:
            lam = 1j * (np.outer(c, ct.conj()) - np.outer(ct, c.conj()))
            label = f"random #{k} i(cc~*-c~c*)"
        d_in = linalg.trace_norm(combination(fam_in, lam))
        d_out = linalg.trace_norm(combination(fam_out, lam))
        if d_in < d_out - slack_tol:
            violations.append(
                FilterWitness(
                    coefficients=lam, d_in=d_in, d_out=d_out, violated=True, label=label
                )
            )
    return _finish(direction, violations, count)


def contractivity_check(
    kraus: list[np.ndarray],
    sigma: np.ndarray,
    completeness_tol: float = linalg.COMPLETENESS_TOL,
) -> tuple[float, float]:
    """Trace norms of sigma before and after the channel; after may not exceed before."""
    if not kraus:
        raise ValueError("empty Kraus set")
    d_in = kraus[0].shape[1]
    comp = sum(linalg.dagger(F) @ F for F in kraus)
    if np.max(np.abs(comp - np.eye(d_in))) > completeness_tol:
        raise ValueError(
            f"Kraus set is not trace-preserving: |sum F*F - I| = "
            f"{np.max(np.abs(comp - np.eye(d_in))):.3g}"
        )
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (d_in, d_in):
        raise ValueError(f"sigma must be {d_in}x{d_in}, got {sigma.shape}")
    after = sum(F @ sigma @ linalg.dagger(F) for F in kraus)
    return linalg.trace_norm(sigma), linalg.trace_norm(after)


def _crandn(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)
