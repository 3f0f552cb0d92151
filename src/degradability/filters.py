"""Trace-norm necessary-condition filters for block transformability.

Any channel taking the family {R_u R_v*} to {S_u S_v*} also takes every linear
combination M_in = sum λ_uv R_u R_v* to M_out = sum λ_uv S_u S_v*, and trace-norm
contractivity forces ||M_out||_1 <= ||M_in||_1. A witness with d_in < d_out
therefore rules the channel out. Passing all witnesses certifies nothing.

Every filter asks E→B of the family it receives: the inputs are R and G_R,
the outputs S and G_S. For B→E, pass ``blocks.swapped()``.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import BlockFamily

DEFAULT_SLACK_TOL = 1e-8
# Pair witnesses per batched SVD; bounds the difference stacks at large n.
PAIR_CHUNK = 4096


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
    """Witnesses ``evaluated``, the number of ``violations`` and the strongest one.

    A witness is violated when d_in < d_out - ``DEFAULT_SLACK_TOL``. ``witness``
    has the largest margin d_out - d_in, ties going to the smaller label, or is None.
    """

    evaluated: int
    violations: int
    witness: FilterWitness | None = None

    @property
    def violated(self) -> bool:
        return self.witness is not None

    @property
    def verdict(self) -> str:
        return "RuledOut" if self.violated else "Passed"


def combination(mats: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """M = sum_{u,v} λ_uv mats[u] mats[v]^*, formed from the raw blocks for one λ."""
    stacked = np.stack(mats)
    return np.einsum("uv,udk,vek->de", lam, stacked, stacked.conj())


def _strongest(
    d_in: np.ndarray,
    d_out: np.ndarray,
    label: Callable[[int], str],
    coefficients: Callable[[int], np.ndarray],
) -> FilterReport:
    """The report on witnesses k named ``label(k)``; only the strongest violator is built."""
    hits = np.flatnonzero(d_in < d_out - DEFAULT_SLACK_TOL)
    witness = None
    if hits.size:
        margins = d_out[hits] - d_in[hits]
        k = min(hits[margins == margins.max()].tolist(), key=label)
        witness = FilterWitness(
            coefficients(k), float(d_in[k]), float(d_out[k]), violated=True, label=label(k)
        )
    return FilterReport(evaluated=d_in.size, violations=hits.size, witness=witness)


class _PairIndex(NamedTuple):
    """The canonical pair witnesses of an n-block family, shared by every call.

    ``first`` and ``second`` index atoms a < b of each kept witness, ``labels``
    name them and ``atom_coefficients`` holds every atom's λ. Arrays are read-only.
    """

    first: np.ndarray
    second: np.ndarray
    labels: tuple[str, ...]
    atom_coefficients: np.ndarray

    def coefficients(self, k: int) -> np.ndarray:
        """λ of witness k: atom ``first[k]`` minus atom ``second[k]``."""
        return self.atom_coefficients[self.first[k]] - self.atom_coefficients[self.second[k]]


@functools.lru_cache(maxsize=16)
def _pair_index(n: int) -> _PairIndex:
    rows, cols = np.triu_indices(n, 1)
    atom_labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    atom_labels += [f"({i},{j})+({j},{i})" for i, j in zip(rows, cols)]
    m = len(atom_labels)
    atom_coefficients = np.zeros((m, n, n), dtype=complex)
    ordered = np.arange(n * n)
    atom_coefficients[ordered, ordered // n, ordered % n] = 1.0
    herm = np.arange(n * n, m)
    atom_coefficients[herm, rows, cols] = atom_coefficients[herm, cols, rows] = 1.0

    # τ swaps ordered atom (i,j) for (j,i) and fixes the Hermitian atoms.
    tau = np.arange(m)
    tau[ordered] = (ordered % n) * n + ordered // n
    a, b = np.triu_indices(m, 1)
    lo, hi = np.minimum(tau[a], tau[b]), np.maximum(tau[a], tau[b])
    keep = (a < lo) | ((a == lo) & (b <= hi))
    a, b = a[keep], b[keep]
    labels = tuple(f"pair {atom_labels[x]} - {atom_labels[y]}" for x, y in zip(a, b))
    for arr in (a, b, atom_coefficients):
        arr.setflags(write=False)
    return _PairIndex(a, b, labels, atom_coefficients)


def _pair_norms(
    blocks: BlockFamily, witnesses: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Trace distances d_in, d_out of the pair witnesses, in ``_pair_index(n)`` order.

    ``witnesses`` picks positions in that order; the default takes every witness.
    """
    n = blocks.count
    index = _pair_index(n)
    pick = slice(None) if witnesses is None else witnesses
    first, second = index.first[pick], index.second[pick]
    rows, cols = np.triu_indices(n, 1)

    def atoms(G: np.ndarray) -> np.ndarray:
        ordered_atoms = G.reshape(n * n, *G.shape[2:])
        return np.concatenate([ordered_atoms, G[rows, cols] + G[cols, rows]])

    mats_in, mats_out = atoms(blocks.G_R), atoms(blocks.G_S)
    count = first.size
    d_in, d_out = np.empty(count), np.empty(count)
    for start in range(0, count, PAIR_CHUNK):
        chunk = slice(start, start + PAIR_CHUNK)
        a, b = first[chunk], second[chunk]
        d_in[chunk] = linalg.trace_norms(mats_in[a] - mats_in[b]) / 2
        d_out[chunk] = linalg.trace_norms(mats_out[a] - mats_out[b]) / 2
    return d_in, d_out


def pair_filter(blocks: BlockFamily) -> FilterReport:
    """Scan the two-atom difference witnesses over ordered and Hermitian index pairs.

    The atoms are the n² ordered products R_i R_j* followed by the Hermitian
    sums R_i R_j* + R_j R_i* for i < j, all read off one Gram stack. Witness
    (a, b) with a < b is atom a minus atom b. Its conjugate twin swaps every
    ordered atom (i,j) for (j,i) and keeps the Hermitian atoms; the twin's
    matrix is the adjoint of the witness's on both sides, so it has the same
    trace norms and verdict. Only the member with the lexicographically
    smaller (a, b) is evaluated, and ``evaluated`` counts those: 7 at n = 2,
    42 at n = 3, 2 422 at n = 8. Trace norms come from one batched SVD per
    side over each chunk of ``PAIR_CHUNK`` witnesses, so the temporaries stay
    bounded at large n. The report carries the strongest violated witness.
    """
    index = _pair_index(blocks.count)
    return _strongest(*_pair_norms(blocks), index.labels.__getitem__, index.coefficients)


def refutation_filter(blocks: BlockFamily, i: int, j: int) -> FilterReport:
    """The pair filter cut down to the two witnesses of entry (i, j), in either order.

    For i < j these are (i,i) - (j,j) and (i,j) - (j,i), the pair witnesses
    through which trace-norm contractivity refutes a condition-(e) failure at
    that entry of a rank-one family. The report carries the stronger violator.
    """
    i, j = min(i, j), max(i, j)
    n = blocks.count
    index = _pair_index(n)
    atoms = ((i * (n + 1), j * (n + 1)), (i * n + j, j * n + i))  # ordered atom (i,j) is i·n + j
    at = np.array([np.flatnonzero((index.first == a) & (index.second == b))[0] for a, b in atoms])
    return _strongest(
        *_pair_norms(blocks, at),
        lambda k: index.labels[at[k]],
        lambda k: index.coefficients(at[k]),
    )


_RANDOM_FORMS = ("cc*-c~c~*", "cc~*+c~c*", "i(cc~*-c~c*)")


def _random_witnesses(
    blocks: BlockFamily, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (count, n, n) stack of drawn λ with the trace norms d_in, d_out of each."""
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    n = blocks.count
    draws = np.random.default_rng(seed).standard_normal((count, 4, n))
    c = draws[:, 0] + 1j * draws[:, 1]
    ct = draws[:, 2] + 1j * draws[:, 3]

    def outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x[:, :, None] * y.conj()[:, None, :]

    lam = np.empty((count, n, n), dtype=complex)
    c0, ct0 = c[0::3], ct[0::3]
    c1, ct1 = c[1::3], ct[1::3]
    c2, ct2 = c[2::3], ct[2::3]
    lam[0::3] = outer(c0, c0) - outer(ct0, ct0)
    lam[1::3] = outer(c1, ct1) + outer(ct1, c1)
    lam[2::3] = 1j * (outer(c2, ct2) - outer(ct2, c2))

    d_in = linalg.trace_norms(np.tensordot(lam, blocks.G_R, axes=2))
    d_out = linalg.trace_norms(np.tensordot(lam, blocks.G_S, axes=2))
    return lam, d_in, d_out


def random_witness_filter(blocks: BlockFamily, count: int, seed: int) -> FilterReport:
    """Sample Hermitian combination witnesses from seeded standard-normal vectors.

    Rank-one coefficients c c* alone are useless here: both sides are then PSD
    with identical traces, so their trace norms agree. Each draw instead takes
    two vectors (c, c~) and cycles through the Hermitian combinations
    cc* - c~c~*, cc~* + c~c*, and i(cc~* - c~c*). Witness k draws Re c, Im c,
    Re c~, Im c~ in that order from ``default_rng(seed)``. All ``count``
    combinations are formed at once from the Gram stacks and their trace
    norms taken in one batched SVD per side. It reports the strongest violator.
    """
    lam, d_in, d_out = _random_witnesses(blocks, count, seed)
    return _strongest(
        d_in,
        d_out,
        lambda k: f"random #{k} {_RANDOM_FORMS[k % 3]}",
        lambda k: lam[k].copy(),
    )


def contractivity_check(kraus: list[np.ndarray], sigma: np.ndarray) -> tuple[float, float]:
    """Trace norms of sigma before and after the channel; after may not exceed before."""
    if not kraus:
        raise ValueError("empty Kraus set")
    if not all(np.all(np.isfinite(F)) for F in kraus):
        raise ValueError("Kraus set contains non-finite entries")
    d_in = kraus[0].shape[1]
    comp = sum(linalg.dagger(F) @ F for F in kraus)
    defect = np.max(np.abs(comp - np.eye(d_in)))
    if not defect <= linalg.COMPLETENESS_TOL:
        raise ValueError(f"Kraus set is not trace-preserving: |sum F*F - I| = {defect:.3g}")
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (d_in, d_in):
        raise ValueError(f"sigma must be {d_in}x{d_in}, got {sigma.shape}")
    after = sum(F @ sigma @ linalg.dagger(F) for F in kraus)
    return linalg.trace_norm(sigma), linalg.trace_norm(after)
