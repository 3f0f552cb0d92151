"""Seeded case generators for the three benchmark workloads.

Every generator draws from ``numpy.random.default_rng([seed, round])`` only, so
the same seed gives byte-identical inputs. A workload is an endless sequence of
rounds; each round has a fixed composition (dims, directions, fixtures, channel
grid points), so the seed moves the random draws but not the mix of work.

Oracles are known apart from the solver: "yes" means a channel exists (the
verdict must not be RuledOut), "no" means none exists (the verdict must not be
Feasible). A direction missing from ``oracle`` has no known answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

# Planted E->B shapes (n, p, e2): E = E' (x) E'' with dim E' = p, dim E'' = e2,
# so the E->B Choi matrix is (p * e2) x p, i.e. of size p * p * e2: 4 to 18.
# A round draws two states per shape. Then the slowest cases (budget-exhausted
# SDP runs at Choi 16 and 18) make up about 8 % of a round, so p95 falls
# inside that group rather than on its edge.
PLANTED_SHAPES = ((2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1), (2, 2, 3), (2, 4, 1),
                  (2, 3, 2), (3, 2, 2))
SURVEY_DIMS = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3),
               (3, 3, 3), (4, 3, 3))
WIDE_SLICES = (5, 6, 7, 8)

# Channel families with analytic answers, parameter grids on both sides of the
# threshold. Each entry: family -> (grid, oracle(param) -> {direction: answer}).
# Amplitude damping: degradable iff g <= 1/2, anti-degradable iff g >= 1/2.
# Dephasing: always degradable, anti-degradable only at p = 1/2 (not on grid).
# Qubit depolarizing (Pauli weight eps): anti-degradable iff eps >= 1/4, never
# degradable for eps > 0.
CHANNEL_GRID = {
    "amplitude_damping": (0.2, 0.35, 0.45, 0.55, 0.65, 0.8),
    "dephasing": (0.1, 0.25, 0.4),
    "depolarizing": (0.1, 0.2, 0.23, 0.27, 0.3, 0.4),
}


@dataclass(frozen=True)
class Case:
    """One decision: a state with a direction, or a channel (both directions).

    ``array`` holds the state amplitudes in (i, j, k) order for a state case
    and the stacked Kraus operators (r, out, in) for a channel case. ``truth``
    is a ground-truth Kraus set for the E->B direction where one is known.
    """

    label: str
    kind: str
    array: np.ndarray
    dims: tuple[int, int, int] = (0, 0, 0)
    direction: str = ""
    oracle: dict[str, str] = field(default_factory=dict)
    truth: tuple[np.ndarray, ...] | None = None

    def amplitudes(self) -> np.ndarray:
        """State tensor (n, p, q) of the case; a channel enters via its lift."""
        if self.kind == "state":
            return self.array.reshape(self.dims)
        return lift_tensor(self.array)


def lift_tensor(kraus: np.ndarray) -> np.ndarray:
    """Maximally entangled lift (I (x) V) sum_i |ii>: T[i, b, j] = F_j[b, i]."""
    return np.transpose(kraus, (2, 1, 0))


def crandn(gen: np.random.Generator, *shape: int) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def planted_state(gen: np.random.Generator, n: int, p: int, e2: int) -> Case:
    """E->B degradable by construction.

    chi on A (x) B (x) E' (x) E'' is symmetric under B <-> E', so rho_AB equals
    rho_AE'; "trace out E'', then identity E' -> B" is a channel E -> B with
    Kraus operators F_k = I_p (x) <k|, k < e2.
    """
    Z = crandn(gen, n, p, p, e2)
    chi = (Z + Z.transpose(0, 2, 1, 3)) / 2
    truth = tuple(np.kron(np.eye(p), np.eye(e2)[k]).astype(complex) for k in range(e2))
    return Case(
        label=f"planted n={n} p={p} e2={e2} choi={p * p * e2}",
        kind="state",
        array=chi.reshape(-1),
        dims=(n, p, p * e2),
        direction="EtoB",
        oracle={"EtoB": "yes"},
        truth=truth,
    )


def fixture_cases() -> list[Case]:
    """The paper fixtures with the answers the paper and its tests establish."""
    from degradability import build_fixture

    specs = (
        ("example2 a=b", build_fixture("example2", a=0.5, b=0.5),
         {"EtoB": "yes", "BtoE": "yes"}),
        ("example2 a^2=0.36", build_fixture("example2", a=0.6, b=np.sqrt(0.14)),
         {"BtoE": "no"}),
        ("sec4", build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65)),
         {"EtoB": "no"}),
        ("ghz", build_fixture("ghz"), {"EtoB": "yes", "BtoE": "yes"}),
        # E is one-dimensional: nothing on E rebuilds the entangled rho_AB, and
        # tracing B out always rebuilds rho_AE = rho_A.
        ("bell_lift", build_fixture("bell_lift"), {"EtoB": "no", "BtoE": "yes"}),
    )
    return [
        Case(label=f"{label} {d}", kind="state", array=state.amplitudes.copy(),
             dims=state.dims, direction=d, oracle=oracle)
        for label, state, oracle in specs
        for d in ("EtoB", "BtoE")
    ]


def channel_kraus(family: str, t: float) -> np.ndarray:
    if family == "amplitude_damping":
        return np.array([[[1, 0], [0, np.sqrt(1 - t)]], [[0, np.sqrt(t)], [0, 0]]],
                        dtype=complex)
    if family == "dephasing":
        return np.array([np.sqrt(1 - t) * np.eye(2), np.sqrt(t) * np.diag([1, -1])],
                        dtype=complex)
    if family == "depolarizing":
        paulis = (np.eye(2), np.diag([1, -1]), np.array([[0, -1], [1, 0]]),
                  np.array([[0, 1], [1, 0]]))
        weights = (np.sqrt(1 - t),) + (np.sqrt(t / 3),) * 3
        return np.array([w * P for w, P in zip(weights, paulis)], dtype=complex)
    raise ValueError(f"unknown channel family {family!r}")


def channel_oracle(family: str, t: float) -> dict[str, str]:
    """E->B 'yes' is anti-degradable, B->E 'yes' is degradable."""
    if family == "amplitude_damping":
        return {"EtoB": "yes" if t > 0.5 else "no", "BtoE": "yes" if t < 0.5 else "no"}
    if family == "dephasing":
        return {"EtoB": "no", "BtoE": "yes"}
    if family == "depolarizing":
        return {"EtoB": "yes" if t > 0.25 else "no", "BtoE": "no"}
    raise ValueError(f"unknown channel family {family!r}")


def channel_cases() -> list[Case]:
    return [
        Case(label=f"{family} {t}", kind="channel", array=channel_kraus(family, t),
             oracle=channel_oracle(family, t))
        for family, grid in CHANNEL_GRID.items()
        for t in grid
    ]


def generic_state(gen: np.random.Generator, dims: tuple[int, int, int]) -> np.ndarray:
    return crandn(gen, int(np.prod(dims)))


def schur_state(gen: np.random.Generator, n: int, p: int, q: int) -> Case:
    """Rank-one slices S_i = d_i v_i u_i^t with u-Gram = (v-Gram) o C, C PSD.

    C is the Gram of unit vectors g_i in C^2, so condition (e) holds with every
    entry forced and the E->B answer is yes (needs q >= n).
    """
    v = [unit(crandn(gen, p)) for _ in range(n)]
    g = [unit(crandn(gen, 2)) for _ in range(n)]
    C = np.array([[np.vdot(g[i], g[j]) for j in range(n)] for i in range(n)])
    G_v = np.array([[np.vdot(v[i], v[j]) for j in range(n)] for i in range(n)])
    w, W = np.linalg.eigh(G_v * C)
    M = np.sqrt(np.clip(w, 0, None))[:, None] * W.conj().T
    d = gen.uniform(0.5, 1.5, n)
    T = np.zeros((n, p, q), dtype=complex)
    for i in range(n):
        u = np.concatenate([M[:, i], np.zeros(q - n)])
        T[i] = d[i] * np.outer(v[i], u)
    return Case(label=f"schur n={n} p={p} q={q}", kind="state", array=T.reshape(-1),
                dims=(n, p, q), direction="EtoB", oracle={"EtoB": "yes"})


def planted_round(seed: int, r: int) -> list[Case]:
    gen = np.random.default_rng([seed, r])
    cases = [planted_state(gen, *shape) for shape in PLANTED_SHAPES for _ in range(2)]
    return cases + fixture_cases() + channel_cases()


def survey_round(seed: int, r: int) -> list[Case]:
    gen = np.random.default_rng([seed, r])
    cases = []
    for dims in SURVEY_DIMS:
        x = generic_state(gen, dims)
        for d in ("EtoB", "BtoE"):
            cases.append(Case(label=f"survey {dims} {d}", kind="state", array=x,
                              dims=dims, direction=d))
    return cases


def wide_round(seed: int, r: int) -> list[Case]:
    gen = np.random.default_rng([seed, r])
    cases = []
    for n in WIDE_SLICES:
        cases.append(schur_state(gen, n, 2 + n % 2, n))
        dims = (n, 3, 3)
        cases.append(Case(label=f"generic {dims} EtoB", kind="state",
                          array=generic_state(gen, dims), dims=dims, direction="EtoB"))
    return cases


ROUNDS = {"planted": planted_round, "survey": survey_round, "wide": wide_round}


def rounds(workload: str, seed: int, limit: int | None = None):
    """The workload's rounds 0, 1, ... as case lists (endless if limit is None)."""
    make = ROUNDS[workload]
    for r in islice(count(), limit):
        yield make(seed, r)
