"""Channel-level degradability via the maximally entangled lift.

A square channel with Kraus operators F_j is lifted to the tripartite pure
state Σ_i |i⟩_A ⊗ Σ_j F_j|i⟩_B ⊗ |j⟩_E, the channel applied to half of the
unnormalized maximally entangled state Σ|ii⟩, and the lift (A, B, E) is fed to
the state-level decision pipeline. A feasible E→B certificate transfers to
every input preparation (K_A ⊗ I)|ψ_M⟩ with the same channel; an E→B
ruling-out extends to all invertible preparations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .feasibility import (
    FeasibilityOutcome,
    KrausSet,
    SolveConfig,
    decide,
)
from .filters import pair_filter
from .states import TripartiteState, extract_blocks

DEFAULT_COND_TOL = 1e6


@dataclass(frozen=True)
class QuantumChannel:
    """Square CPTP map given by Kraus operators."""

    kraus: KrausSet

    def __post_init__(self) -> None:
        if not self.kraus.operators:
            raise ValueError("channel needs at least one Kraus operator")
        if self.kraus.in_dim != self.kraus.out_dim:
            raise ValueError(
                f"channel must be square, got {self.kraus.in_dim} -> {self.kraus.out_dim}"
            )
        if not all(np.all(np.isfinite(F)) for F in self.kraus.operators):
            raise ValueError("Kraus set contains non-finite entries")
        defect = self.kraus.completeness_defect()
        if not defect <= linalg.COMPLETENESS_TOL:
            raise ValueError(f"Kraus set is not trace preserving (defect {defect:.3g})")

    @property
    def dim(self) -> int:
        return self.kraus.in_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.kraus.apply(rho)


@dataclass(frozen=True)
class InputPreparation:
    """Local filter K applied on subsystem A before the channel acts."""

    K: np.ndarray

    def __post_init__(self) -> None:
        if self.K.ndim != 2 or self.K.shape[0] != self.K.shape[1]:
            raise ValueError(f"preparation must be square, got shape {self.K.shape}")
        if not np.all(np.isfinite(self.K)):
            raise ValueError("preparation contains non-finite entries")

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.K))

    def invertible(self) -> bool:
        return bool(np.isfinite(self.condition_number()) and self.condition_number() <= DEFAULT_COND_TOL)


def lift_max_entangled(channel: QuantumChannel) -> TripartiteState:
    """Tripartite pure state Σ_ij |i⟩ ⊗ F_j|i⟩ ⊗ |j⟩, dims (n, n, r), norm² = n."""
    F_stack = np.stack(channel.kraus.operators)
    T = np.transpose(F_stack, (2, 1, 0))
    n = channel.dim
    return TripartiteState((n, n, F_stack.shape[0]), T.ravel())


def lift_prepared(channel: QuantumChannel, prep: InputPreparation) -> TripartiteState:
    """Lift of the filtered input (K_A ⊗ I) Σ_i |ii⟩: amplitudes Σ_i K_ai F_j[b, i]."""
    if prep.K.shape[0] != channel.dim:
        raise ValueError(
            f"preparation dimension {prep.K.shape[0]} does not match channel {channel.dim}"
        )
    F_stack = np.stack(channel.kraus.operators)
    T = np.einsum("ai,jbi->abj", prep.K, F_stack)
    n = channel.dim
    return TripartiteState((n, n, F_stack.shape[0]), T.ravel())


@dataclass(frozen=True)
class ChannelAssessment:
    label: str
    e_to_b: FeasibilityOutcome
    b_to_e: FeasibilityOutcome


def channel_degradability_test(
    channel: QuantumChannel, config: SolveConfig = SolveConfig()
) -> ChannelAssessment:
    """Decide both directions on the maximally entangled lift.

    E→B Feasible certifies anti-degradability for every input preparation
    (the same certificate works); B→E Feasible certifies degradability; E→B
    RuledOut extends to every invertible preparation.
    """
    lift = lift_max_entangled(channel)
    e_to_b = decide(lift, "EtoB", config)
    b_to_e = decide(lift, "BtoE", config)
    if e_to_b.status == "Feasible":
        label = "anti_degradable_certified"
    elif b_to_e.status == "Feasible":
        label = "degradable_certified"
    elif e_to_b.status == "RuledOut":
        label = "ruled_out_for_filtered_inputs"
    else:
        label = "inconclusive"
    return ChannelAssessment(label=label, e_to_b=e_to_b, b_to_e=b_to_e)


def depolarizing(eps: float) -> QuantumChannel:
    """Qubit depolarizing channel with Pauli branches ordered (I, Z, Y, X)."""
    if not 0.0 <= eps <= 0.75:
        raise ValueError(f"epsilon must be in [0, 3/4], got {eps}")
    I2 = np.eye(2, dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    Y = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w0, w1 = np.sqrt(1 - eps), np.sqrt(eps / 3)
    return QuantumChannel(KrausSet([w0 * I2, w1 * Z, w1 * Y, w1 * X]))


@dataclass(frozen=True)
class ScanRow:
    epsilon: float
    d_R: float
    d_S: float
    verdict: str
    qber: float


@dataclass(frozen=True)
class ScanResult:
    rows: list[ScanRow]
    threshold: float | None
    bracket: tuple[float, float] | None


def epsilon_scan(
    lo: float,
    hi: float,
    step: float,
    config: SolveConfig = SolveConfig(),
    full_decide: bool = False,
) -> ScanResult:
    """Sweep the depolarizing parameter and bracket the filter threshold.

    Each grid point reports the diagonal-witness trace distances d_R, d_S of
    the lifted state, the filter verdict (or the full decide status when
    full_decide is set), and the QBER 2ε/3. The threshold is the midpoint
    between the last RuledOut ε and the first non-RuledOut ε.
    """
    if not (0.0 <= lo < hi <= 0.75):
        raise ValueError(f"scan range must satisfy 0 <= lo < hi <= 3/4, got [{lo}, {hi}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    # The stop absorbs the rounding of a last point that lands on hi; the
    # minimum keeps a rounded point from passing it.
    grid = np.minimum(np.round(np.arange(lo, hi + 1e-9 * step, step), 12), hi)
    diag = np.diag([1.0, -1.0]).astype(complex)
    rows = []
    for eps in grid:
        channel = depolarizing(float(eps))
        lift = lift_max_entangled(channel)
        blocks = extract_blocks(lift)
        d_R = linalg.trace_norm(np.tensordot(diag, blocks.G_R, axes=2)) / 2
        d_S = linalg.trace_norm(np.tensordot(diag, blocks.G_S, axes=2)) / 2
        if full_decide:
            verdict = decide(lift, "EtoB", config).status
        else:
            verdict = pair_filter(blocks).verdict
        rows.append(
            ScanRow(
                epsilon=float(eps),
                d_R=float(d_R),
                d_S=float(d_S),
                verdict=verdict,
                qber=float(2 * eps / 3),
            )
        )
    bracket = None
    threshold = None
    for prev, cur in zip(rows, rows[1:]):
        if prev.verdict == "RuledOut" and cur.verdict != "RuledOut":
            bracket = (prev.epsilon, cur.epsilon)
            threshold = (prev.epsilon + cur.epsilon) / 2
            break
    return ScanResult(rows=rows, threshold=threshold, bracket=bracket)
