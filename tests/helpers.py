"""Shared oracles and random generators for the test suite."""
from __future__ import annotations

import functools

import numpy as np


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def crandn(gen: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex standard normal array."""
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(crandn(gen, d, d))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_isometry(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random isometry with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    Q, R = np.linalg.qr(crandn(gen, rows, cols))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_kraus(gen: np.random.Generator, out_dim: int, in_dim: int, r: int) -> list[np.ndarray]:
    """Random CPTP Kraus set: row blocks of a Haar-ish isometry from C^in to C^r x C^out."""
    V = random_isometry(gen, out_dim * r, in_dim)
    return [V[j * out_dim : (j + 1) * out_dim, :] for j in range(r)]


def unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def random_state_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    x = crandn(gen, dim)
    return x / np.linalg.norm(x)


def apply_kraus(kraus: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    return sum(F @ X @ F.conj().T for F in kraus)


def choi_apply(J: np.ndarray, in_dim: int, out_dim: int, A: np.ndarray) -> np.ndarray:
    """Φ(A)_ab = Σ_kl A_kl J[(k,a),(l,b)] for a Choi matrix J (input index slow)."""
    J4 = J.reshape(in_dim, out_dim, in_dim, out_dim)
    return np.einsum("kl,kalb->ab", A, J4)


def choi_trace_out(J: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """tr_out J of a Choi matrix J; the identity for a trace-preserving map."""
    J4 = J.reshape(in_dim, out_dim, in_dim, out_dim)
    return np.einsum("kala->kl", J4)


def partial_trace_oracle(rho: np.ndarray, dims: tuple[int, int, int], subsystem: int) -> np.ndarray:
    """Reference partial trace via 6-axis reshape and einsum (independent of the package)."""
    n, p, q = dims
    T = rho.reshape(n, p, q, n, p, q)
    if subsystem == 1:
        return np.einsum("ijkilm->jklm", T).reshape(p * q, p * q)
    if subsystem == 2:
        return np.einsum("ijkljm->iklm", T).reshape(n * q, n * q)
    if subsystem == 3:
        return np.einsum("ijklmk->ijlm", T).reshape(n * p, n * p)
    raise ValueError(subsystem)


def block_map_error(
    blocks, kraus: list[np.ndarray], direction: str
) -> tuple[float, float]:
    """Worst-pair error of sum_s F M_in F* = M_out and the completeness defect."""
    fam_in = blocks.R if direction == "EtoB" else blocks.S
    fam_out = blocks.S if direction == "EtoB" else blocks.R
    worst = 0.0
    for i in range(len(fam_in)):
        for j in range(len(fam_in)):
            target = fam_out[i] @ fam_out[j].conj().T
            got = apply_kraus(kraus, fam_in[i] @ fam_in[j].conj().T)
            worst = max(worst, float(np.max(np.abs(got - target))))
    comp = sum(F.conj().T @ F for F in kraus)
    defect = float(np.max(np.abs(comp - np.eye(comp.shape[0]))))
    return worst, defect


def random_product_state(gen, n: int, p: int, q: int):
    """State whose slices are rank one by construction: S_i = s_i t_i^t."""
    T = np.zeros((n, p, q), dtype=complex)
    s_norms, t_norms = [], []
    for i in range(n):
        s = crandn(gen, p)
        t = crandn(gen, q)
        s_norms.append(np.linalg.norm(s))
        t_norms.append(np.linalg.norm(t))
        T[i] = np.outer(s, t)
    return T.ravel(), s_norms, t_norms


def schur_yes_decomposition(gen, n: int, p: int, q: int):
    """Rank-one instance built to satisfy condition (e): G_u = G_v ∘ C with C a Gram matrix."""
    from degradability import rank_one

    assert q >= n
    v = [unit(crandn(gen, p)) for _ in range(n)]
    g = [unit(crandn(gen, 2)) for _ in range(n)]
    C = np.array([[np.vdot(g[i], g[j]) for j in range(n)] for i in range(n)])
    G_v = np.array([[np.vdot(v[i], v[j]) for j in range(n)] for i in range(n)])
    w, W = np.linalg.eigh(G_v * C)
    M = np.sqrt(np.clip(w, 0, None))[:, None] * W.conj().T
    u = [np.concatenate([M[:, i], np.zeros(q - n)]) for i in range(n)]
    d = [float(x) for x in gen.uniform(0.5, 1.5, n)]
    return rank_one.RankOneDecomposition(u=u, d=d, v=v)


def state_from_decomposition(dec):
    """State with slices d_i v_i u_i^t."""
    from degradability import states

    n = dec.count
    p, q = dec.v[0].shape[0], dec.u[0].shape[0]
    T = np.zeros((n, p, q), dtype=complex)
    for i in range(n):
        T[i] = dec.d[i] * np.outer(dec.v[i], dec.u[i])
    return states.TripartiteState((n, p, q), T.ravel())


def swap_b_and_e(state):
    """The state with B and E exchanged: amplitudes x[i, k, j] in C^n ⊗ C^q ⊗ C^p."""
    from degradability import states

    n, p, q = state.dims
    return states.TripartiteState((n, q, p), state.tensor().transpose(0, 2, 1).ravel())


def _dims_id(dims) -> str:
    return "x".join(map(str, dims))


def swap_cases():
    """(id, state) pairs for B <-> E checks: the four fixtures and 20 seeded states.

    The seeded states are 10 generic ones, 5 with rank-one slices and 5 that
    satisfy condition (e), over several dims.
    """
    from degradability import states

    cases = [
        ("ghz", states.build_fixture("ghz")),
        ("example2", states.build_fixture("example2", a=0.6, b=np.sqrt(0.14))),
        ("sec4", states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))),
        ("bell_lift", states.build_fixture("bell_lift")),
    ]
    gen = rng(2026)
    for k, dims in enumerate([(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3), (3, 3, 2)] * 2):
        x = random_state_vector(gen, int(np.prod(dims)))
        cases.append((f"generic-{k}-{_dims_id(dims)}", states.TripartiteState(dims, x)))
    for dims in [(2, 2, 2), (3, 2, 3), (2, 3, 2), (4, 2, 2), (3, 3, 3)]:
        x, _, _ = random_product_state(gen, *dims)
        cases.append((f"product-{_dims_id(dims)}", states.TripartiteState(dims, x)))
    for dims in [(2, 2, 2), (3, 2, 3), (4, 2, 4), (3, 3, 3), (5, 3, 5)]:
        state = state_from_decomposition(schur_yes_decomposition(gen, *dims))
        cases.append((f"schur-{_dims_id(dims)}", state))
    return cases


def depolarizing_lift_state(eps: float):
    """Closed-form amplitudes of the lifted depolarizing channel, norm^2 = 2."""
    from degradability import states

    a = np.sqrt(1 - eps)
    b = np.sqrt(eps / 3)
    S0 = np.array([[a, b, 0, 0], [0, 0, b, b]], dtype=complex)
    S1 = np.array([[0, 0, -b, b], [a, -b, 0, 0]], dtype=complex)
    return states.TripartiteState((2, 2, 4), np.stack([S0, S1]).ravel())


def planted_state(seed: int, n: int, p: int, e2: int):
    """chi on A (x) B (x) E' (x) E'' symmetric under B <-> E', so E -> B is feasible."""
    from degradability import states

    Z = crandn(np.random.default_rng(seed), n, p, p, e2)
    chi = (Z + Z.transpose(0, 2, 1, 3)) / 2
    return states.TripartiteState((n, p, p * e2), chi.reshape(-1))


def brute_force_feasibility(
    blocks, direction: str, max_iter: int = 200000
) -> tuple[bool, float]:
    """Independent dense feasibility oracle over the full unreduced system.

    Encodes the Choi matrix as a real vector of interleaved real and imaginary
    parts (no Hermitian basis), generates one complex constraint per block pair
    and per trace-preservation entry plus explicit Hermiticity rows, projects
    with a pseudoinverse, and alternates with eigenvalue clipping.
    """
    fam_in = blocks.R if direction == "EtoB" else blocks.S
    fam_out = blocks.S if direction == "EtoB" else blocks.R
    n = len(fam_in)
    din, dout = fam_in[0].shape[0], fam_out[0].shape[0]
    d = din * dout

    def to_real(J):
        return np.concatenate([J.real.ravel(), J.imag.ravel()])

    def to_complex(x):
        return x[: d * d].reshape(d, d) + 1j * x[d * d :].reshape(d, d)

    rows, rhs = [], []

    def add(G, z):
        # Re tr(G^† J) and Im tr(G^† J) as rows over (Re J, Im J).
        rows.append(np.concatenate([G.real.ravel(), G.imag.ravel()]))
        rhs.append(z.real)
        rows.append(np.concatenate([-G.imag.ravel(), G.real.ravel()]))
        rhs.append(z.imag)

    for u in range(n):
        for v in range(n):
            M_in = fam_in[u] @ fam_in[v].conj().T
            M_out = fam_out[u] @ fam_out[v].conj().T
            for a_ in range(dout):
                for b_ in range(dout):
                    E = np.zeros((dout, dout), dtype=complex)
                    E[a_, b_] = 1.0
                    add(np.kron(M_in.conj(), E), complex(M_out[a_, b_]))
    for k in range(din):
        for lv in range(din):
            E = np.zeros((din, din), dtype=complex)
            E[k, lv] = 1.0
            add(np.kron(E, np.eye(dout)), complex(float(k == lv)))
    # Hermiticity: J[r,c] - conj(J[c,r]) = 0 for r < c, plus Im J[r,r] = 0.
    for r in range(d):
        for c in range(r, d):
            row_re = np.zeros(2 * d * d)
            row_im = np.zeros(2 * d * d)
            if r == c:
                row_im[d * d + r * d + c] = 1.0
                rows.append(row_im)
                rhs.append(0.0)
            else:
                row_re[r * d + c] = 1.0
                row_re[c * d + r] = -1.0
                row_im[d * d + r * d + c] = 1.0
                row_im[d * d + c * d + r] = 1.0
                rows.append(row_re)
                rhs.append(0.0)
                rows.append(row_im)
                rhs.append(0.0)

    A = np.vstack(rows)
    b = np.asarray(rhs)
    pinv = np.linalg.pinv(A, rcond=1e-12)
    scale = 1.0 + float(np.linalg.norm(b))

    x = to_real(np.eye(d, dtype=complex) / dout)
    best = np.inf
    last_check = np.inf
    for it in range(max_iter):
        x = x - pinv @ (A @ x - b)
        J = to_complex(x)
        J = (J + J.conj().T) / 2
        w, V = np.linalg.eigh(J)
        J = (V * np.clip(w, 0.0, None)) @ V.conj().T
        x = to_real(J)
        res = float(np.linalg.norm(A @ x - b)) / scale
        best = min(best, res)
        if res <= 1e-7:
            return True, res
        if it % 2000 == 1999:
            if last_check - best < 1e-13:
                break
            last_check = best
    return False, best


def both_directions(blocks):
    """(direction, family) pairs: every stage asks E→B, so B→E runs on the swapped family."""
    return (("EtoB", blocks), ("BtoE", blocks.swapped()))


def by_strength(witnesses):
    """Witnesses in (−margin, label) order, the strongest first."""
    return sorted(witnesses, key=lambda w: (-w.margin, w.label))


def pair_filter_oracle(blocks, direction: str, slack_tol: float = 1e-8):
    """Reference pair filter: one witness at a time, two trace norms per pair.

    Returns the violated witnesses of every (a, b), conjugate twins included,
    strongest first; a slack of -inf returns every witness.
    """
    from degradability import filters, linalg

    fam_in = blocks.R if direction == "EtoB" else blocks.S
    fam_out = blocks.S if direction == "EtoB" else blocks.R
    n = blocks.count
    atoms = []
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
    mats_in = [filters.combination(fam_in, lam) for lam, _ in atoms]
    mats_out = [filters.combination(fam_out, lam) for lam, _ in atoms]
    violations = []
    for a in range(len(atoms)):
        for b in range(a + 1, len(atoms)):
            d_in = linalg.trace_norm(mats_in[a] - mats_in[b]) / 2
            d_out = linalg.trace_norm(mats_out[a] - mats_out[b]) / 2
            if d_in < d_out - slack_tol:
                violations.append(
                    filters.FilterWitness(
                        coefficients=atoms[a][0] - atoms[b][0],
                        d_in=d_in,
                        d_out=d_out,
                        violated=True,
                        label=f"pair {atoms[a][1]} - {atoms[b][1]}",
                    )
                )
    return by_strength(violations)


@functools.cache
def _pair_atom_positions(n: int) -> dict[str, int]:
    """Atom label -> position in the pair filter's atom order."""
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    labels += [f"({i},{j})+({j},{i})" for i in range(n) for j in range(i + 1, n)]
    return {label: k for k, label in enumerate(labels)}


def conjugate_twin_label(label: str, n: int) -> str:
    """Label of the pair witness that swaps every ordered atom (i,j) for (j,i)."""
    pos = _pair_atom_positions(n)

    def tau(atom: str) -> str:
        if "+" in atom:
            return atom
        i, j = atom[1:-1].split(",")
        return f"({j},{i})"

    x, y = label.removeprefix("pair ").split(" - ")
    tx, ty = sorted((tau(x), tau(y)), key=pos.__getitem__)
    return f"pair {tx} - {ty}"


def is_canonical_twin(label: str, n: int) -> bool:
    """True for the member of a twin pair with the lexicographically smaller (a, b)."""
    pos = _pair_atom_positions(n)

    def key(pair_label: str) -> tuple[int, int]:
        x, y = pair_label.removeprefix("pair ").split(" - ")
        return pos[x], pos[y]

    return key(label) <= key(conjugate_twin_label(label, n))


def restrict_to_canonical_twins(witnesses, n: int):
    """Pair witnesses of the full loop cut down to the canonical member of each twin pair."""
    return [w for w in witnesses if is_canonical_twin(w.label, n)]


def random_witness_coefficients_oracle(n: int, count: int, seed: int):
    """Reference λ sequence of the random filter, with labels, drawn one witness at a time."""
    gen = np.random.default_rng(seed)
    out = []
    for k in range(count):
        c = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        ct = gen.standard_normal(n) + 1j * gen.standard_normal(n)
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
        out.append((lam, label))
    return out


def random_witness_filter_oracle(
    blocks, direction: str, count: int, seed: int, slack_tol: float = 1e-8
):
    """Reference random filter: two trace norms per witness, in draw order.

    Returns the violated witnesses, strongest first; a slack of -inf returns
    every witness.
    """
    from degradability import filters, linalg

    fam_in = blocks.R if direction == "EtoB" else blocks.S
    fam_out = blocks.S if direction == "EtoB" else blocks.R
    violations = []
    for lam, label in random_witness_coefficients_oracle(blocks.count, count, seed):
        d_in = linalg.trace_norm(filters.combination(fam_in, lam))
        d_out = linalg.trace_norm(filters.combination(fam_out, lam))
        if d_in < d_out - slack_tol:
            violations.append(
                filters.FilterWitness(
                    coefficients=lam, d_in=d_in, d_out=d_out, violated=True, label=label
                )
            )
    return by_strength(violations)


def douglas_rachford_oracle(
    project,
    residual,
    start: np.ndarray,
    *,
    max_iter: int = 20000,
    feas_tol: float = 1e-8,
    psd_tol: float = 1e-9,
    stall_window: int = 500,
    stall_tol: float = 1e-12,
):
    """Reference Douglas–Rachford loop with two affine projections per step.

    An affine set whose residual floor, that of P_aff(start), is above
    ``feas_tol`` ends the loop at iteration 0. Otherwise X = P_psd(Z) by
    eigenvalue clipping, then Z += P_aff(2X - Z) - X, with the engine's single
    stop test and window stall rule: stop when P_aff(X) is PSD to ``psd_tol``,
    tested when X has residual at most ``feas_tol`` or at the iterations the
    engine's schedule tests it.
    Returns (iterations, converged, stalled, P_aff(X)), with P_aff(start) as
    the last entry at iteration 0.
    """
    from degradability.linalg import PSD_CHECK_DENSE, PSD_CHECK_EVERY

    def min_eig(M):
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0])

    Z = np.asarray(start, dtype=complex)
    if residual(project(Z)) > feas_tol:
        return 0, False, False, project(Z)
    converged = stalled = False
    window_best = prev_window_best = np.inf
    for it in range(1, max_iter + 1):
        w, V = np.linalg.eigh((Z + Z.conj().T) / 2)
        X = (V * np.maximum(w, 0.0)) @ V.conj().T
        res = residual(X)
        Y = project(X)
        due = res <= feas_tol or it <= PSD_CHECK_DENSE or it % PSD_CHECK_EVERY == 0
        converged = due and min_eig(Y) >= -psd_tol
        if converged:
            break
        window_best = min(window_best, res)
        if it % stall_window == 0:
            if np.isfinite(prev_window_best):
                improvement = (prev_window_best - window_best) / max(prev_window_best, 1e-300)
                stalled = improvement < stall_tol
                if stalled:
                    break
            prev_window_best = window_best
            window_best = np.inf
        Z = Z + project(2 * X - Z) - X
    return it, converged, stalled, project(X)


def verify_channel_oracle(kraus, state, direction: str) -> float:
    """Reference ``verify_channel``: Φ applied to each block product R_u R_v* in turn."""
    S = state.tensor()
    R = S.transpose(0, 2, 1)
    fam_in, fam_out = (R, S) if direction == "EtoB" else (S, R)
    err = 0.0
    for u in range(len(fam_in)):
        for v in range(len(fam_in)):
            got = kraus.apply(fam_in[u] @ fam_in[v].conj().T)
            want = fam_out[u] @ fam_out[v].conj().T
            err += float(np.linalg.norm(got - want) ** 2)
    return float(np.sqrt(err))
