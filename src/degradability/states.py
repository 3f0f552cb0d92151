"""Tripartite pure states, their reduced densities and block matrices.

A state lives in C^n (x) C^p (x) C^q with amplitudes stored lexicographically
in ``(i, j, k)``. The slice at fixed first index, ``S_i = x[i, :, :]``, and its
plain transpose ``R_i = S_i^t`` tile the reduced densities:
``tr_2(xx*) = (R_u R_v*)_{u,v}`` and ``tr_3(xx*) = (S_u S_v*)_{u,v}``.
``extract_blocks`` forms these two Gram stacks once, and every later stage
reads its block products from them.

Every stage answers one question about the family it is given: does a
channel take each ``R_u R_v*`` to ``S_u S_v*`` (E→B)? Exchanging B and E
only exchanges the two families, so ``BlockFamily.swapped()`` turns that
question into B→E; ``feasibility.decide`` is the one place that does so.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg


@dataclass(frozen=True)
class TripartiteState:
    dims: tuple[int, int, int]
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        n, p, q = self.dims
        if min(n, p, q) < 1:
            raise ValueError(f"state dims must be positive, got {self.dims}")
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != n * p * q:
            raise ValueError(
                f"expected {n * p * q} amplitudes for dims {self.dims}, got {amps.size}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes contain non-finite entries")
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized and abs(self.norm_squared() - 1.0) > 1e-10:
            raise ValueError(
                f"state flagged normalized but |x|^2 = {self.norm_squared():.12g}"
            )

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to an (n, p, q) array."""
        return self.amplitudes.reshape(self.dims)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def unit(self) -> TripartiteState:
        """Rescaled copy with unit norm."""
        nrm = np.sqrt(self.norm_squared())
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return TripartiteState(self.dims, self.amplitudes / nrm, normalized=True)

    def scaled(self, t: complex) -> TripartiteState:
        return TripartiteState(self.dims, t * self.amplitudes, normalized=False)


@dataclass(frozen=True)
class BlockFamily:
    """The slices ``S_i`` (n, p, q), their transposes ``R_i`` (n, q, p) and their Gram stacks.

    ``G_R[u, v] = R_u R_v*`` is (n, n, q, q) and ``G_S[u, v] = S_u S_v*`` is
    (n, n, p, p); laid out as block matrices they are tr_2 and tr_3 of the state.
    """

    S: np.ndarray
    R: np.ndarray
    G_R: np.ndarray = field(repr=False)
    G_S: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.S)

    def swapped(self) -> BlockFamily:
        """The family of the state with B and E exchanged: S, R and their Grams trade places."""
        return BlockFamily(S=self.R, R=self.S, G_R=self.G_S, G_S=self.G_R)


@dataclass(frozen=True)
class ReducedDensities:
    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray


def extract_blocks(state: TripartiteState) -> BlockFamily:
    """Slice the amplitude tensor into ``S_i`` in M_{p,q} and ``R_i = S_i^t``.

    Each Gram stack is one batched matmul over all (u, v).
    """
    S = state.tensor().copy()
    R = S.transpose(0, 2, 1).copy()
    G_R, G_S = (A[:, None] @ A.conj().transpose(0, 2, 1)[None] for A in (R, S))
    return BlockFamily(S=S, R=R, G_R=G_R, G_S=G_S)


def reduced_densities(state: TripartiteState) -> ReducedDensities:
    rho = state.density()
    return ReducedDensities(
        X1=linalg.partial_trace(rho, state.dims, 1),
        X2=linalg.partial_trace(rho, state.dims, 2),
        X3=linalg.partial_trace(rho, state.dims, 3),
    )


def build_fixture(name: str, **params: float) -> TripartiteState:
    """Named reference states: ``ghz``, ``example2(a, b)``, ``sec4(alpha, a)``, ``bell_lift``."""
    if name == "ghz":
        _expect_params(name, params, set())
        x = np.zeros(8, dtype=complex)
        x[0] = x[7] = 1 / np.sqrt(2)
        return TripartiteState((2, 2, 2), x, normalized=True)

    if name == "example2":
        _expect_params(name, params, {"a", "b"})
        a, b = float(params["a"]), float(params["b"])
        if a < 0 or b < 0:
            raise ValueError("example2: a and b must be nonnegative")
        if abs(2 * (a * a + b * b) - 1.0) > 1e-10:
            raise ValueError(
                f"example2 requires 2(a^2 + b^2) = 1, got {2 * (a * a + b * b):.12g}"
            )
        x = np.array([a, 0, b, 0, 0, a, 0, -b], dtype=complex)
        return TripartiteState((2, 2, 2), x, normalized=True)

    if name == "sec4":
        _expect_params(name, params, {"alpha", "a"})
        alpha, a = float(params["alpha"]), float(params["a"])
        if not (0.0 < alpha < 1.0 and 0.0 < a < 1.0):
            raise ValueError("sec4: alpha and a must lie strictly inside (0, 1)")
        beta = np.sqrt(1 - alpha * alpha)
        b = np.sqrt(1 - a * a)
        plus_b = np.array([alpha, beta])
        minus_b = np.array([alpha, -beta])
        plus_e = np.array([a, b])
        minus_e = np.array([a, -b])
        q_plus = np.array([alpha, 1j * beta])
        q_minus = np.array([alpha, -1j * beta])
        T = np.zeros((3, 2, 2), dtype=complex)
        T[0] = np.outer(plus_b, plus_e) + np.outer(minus_b, minus_e)
        T[1] = np.outer(q_plus, plus_e)
        T[2] = np.outer(q_minus, minus_e)
        return TripartiteState((3, 2, 2), T.ravel(), normalized=False)

    if name == "bell_lift":
        _expect_params(name, params, set())
        x = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
        return TripartiteState((2, 2, 1), x, normalized=False)

    raise ValueError(f"unknown fixture {name!r}")


def _expect_params(name: str, params: dict[str, float], expected: set[str]) -> None:
    if set(params) != expected:
        raise ValueError(
            f"fixture {name!r} takes parameters {sorted(expected)}, got {sorted(params)}"
        )
