"""Acceptance suite: one test per criterion, pinned tolerances, timed budgets.

Each test prints a single summary line on success; pytest -v adds the
PASSED/FAILED verdict per criterion.
"""
from __future__ import annotations

import time

import numpy as np

from degradability import feasibility as fz
from degradability import linalg, rank_one, states
from degradability.channels import (
    InputPreparation,
    QuantumChannel,
    channel_degradability_test,
    depolarizing,
    epsilon_scan,
    lift_prepared,
)
from degradability.feasibility import KrausSet, SolveConfig, decide, verify_channel
from degradability.filters import contractivity_check
from helpers import (
    apply_kraus,
    crandn,
    random_kraus,
    rng,
    schur_yes_decomposition,
    state_from_decomposition,
)

SEC4_STALL_BASELINE = 0.0606096


def report(criterion: int, elapsed: float, budget: float, message: str) -> None:
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s < {budget:.0f}s) {message}")


def test_criterion_1_example2_golden() -> None:
    started = time.perf_counter()
    a = b = 0.5
    state = states.build_fixture("example2", a=a, b=b)
    dens = states.reduced_densities(state)

    X2_expected = np.array(
        [
            [a * a + b * b, 0, 0, a * a - b * b],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [a * a - b * b, 0, 0, a * a + b * b],
        ],
        dtype=complex,
    )
    X3_expected = np.array(
        [
            [a * a, a * b, 0, 0],
            [a * b, b * b, 0, 0],
            [0, 0, a * a, -a * b],
            [0, 0, -a * b, b * b],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(dens.X2 - X2_expected)) <= 1e-12
    assert np.max(np.abs(dens.X3 - X3_expected)) <= 1e-12

    F1 = np.array([[a, a], [b, -b]], dtype=complex)
    F2 = np.array([[a, -a], [b, b]], dtype=complex)
    completeness = F1.conj().T @ F1 + F2.conj().T @ F2
    assert np.max(np.abs(completeness - np.eye(2))) <= 1e-12
    TX2 = sum(
        np.kron(np.eye(2), F) @ dens.X2 @ np.kron(np.eye(2), F).conj().T for F in (F1, F2)
    )
    assert np.max(np.abs(TX2 - X3_expected)) <= 1e-12

    outcome = decide(state, "EtoB")
    assert outcome.status == "Feasible"
    assert outcome.certificate is not None
    residual = verify_channel(outcome.certificate, states.extract_blocks(state.unit()))
    assert residual <= 1e-7

    report(
        1,
        time.perf_counter() - started,
        1.0,
        f"X2/X3 entrywise <= 1e-12, reference Kraus exact, decide EtoB Feasible "
        f"(stage {outcome.stage}, verify {residual:.2e})",
    )


def test_criterion_2_two_way_condition() -> None:
    started = time.perf_counter()

    a = b = 0.5
    sym = states.build_fixture("example2", a=a, b=b)
    X2 = states.reduced_densities(sym).X2
    X3 = states.reduced_densities(sym).X3
    G = (a * a + b * b) ** -0.5 * np.array([[a, b], [a, -b]], dtype=complex)
    IG = np.kron(np.eye(2), G)
    assert np.max(np.abs(IG @ X3 @ IG.conj().T - X2)) <= 1e-12

    a2 = 0.36
    a_bad, b_bad = np.sqrt(a2), np.sqrt(0.5 - a2)
    asym = states.build_fixture("example2", a=a_bad, b=b_bad)
    pipeline = decide(asym, "BtoE")
    assert pipeline.status in ("RuledOut", "Inconclusive")
    swapped = states.extract_blocks(asym.unit()).swapped()
    raw = fz.solve_feasibility(fz.build_constraints(swapped))
    raw_verified = (
        raw.status == "Feasible"
        and verify_channel(raw.certificate, swapped) <= 1e-7
    )
    assert not raw_verified

    report(
        2,
        time.perf_counter() - started,
        5.0,
        f"a=b: L(X3)=X2 <= 1e-12; a^2=0.36: pipeline {pipeline.status}, "
        f"raw solver {raw.status}",
    )


def test_criterion_3_depolarizing_threshold() -> None:
    started = time.perf_counter()
    result = epsilon_scan(0.05, 0.45, 0.01)

    assert result.bracket is not None
    lo_b, hi_b = result.bracket
    assert hi_b - lo_b <= 0.01 + 1e-12
    assert lo_b < 0.25 <= hi_b

    flip = next(i for i, row in enumerate(result.rows) if row.verdict != "RuledOut")
    for row in (result.rows[flip - 1], result.rows[flip]):
        assert abs(row.qber - 1 / 6) <= 0.007

    for row in result.rows:
        alpha, beta = np.sqrt(1 - row.epsilon), np.sqrt(row.epsilon / 3)
        assert abs(row.d_R - 2 * beta * (alpha + beta)) <= 1e-10
        assert abs(row.d_S - (alpha + beta) * (alpha - beta)) <= 1e-10
        assert abs(row.qber - 2 * row.epsilon / 3) <= 1e-15

    report(
        3,
        time.perf_counter() - started,
        10.0,
        f"bracket ({lo_b}, {hi_b}] width {hi_b - lo_b:.3g}, midpoint {result.threshold}, "
        f"QBER flips at {result.rows[flip].qber:.4f} vs 1/6",
    )


def test_criterion_4_contractivity_properties() -> None:
    started = time.perf_counter()

    gen = rng(2024)
    violations = 0
    for _ in range(1000):
        d_in = int(gen.integers(2, 5))
        d_out = int(gen.integers(2, 5))
        r = int(gen.integers(1, 4)) + -(-d_in // d_out)
        kraus = random_kraus(gen, d_out, d_in, r)
        sigma = crandn(gen, d_in, d_in)
        before, after = contractivity_check(kraus, sigma)
        if after > before + 1e-9:
            violations += 1
    assert violations == 0

    for _ in range(200):
        d_in = int(gen.integers(2, 4))
        d_out = int(gen.integers(2, 4))
        r = int(gen.integers(1, 4)) + -(-d_in // d_out)
        kraus = random_kraus(gen, d_out, d_in, r)
        sigma = crandn(gen, d_in, d_in)
        out = apply_kraus(kraus, sigma)
        lhs = linalg.trace_norm(np.kron(np.eye(r), out))
        pad = np.zeros((d_in + r * d_out, d_in + r * d_out), dtype=complex)
        pad[:d_in, :d_in] = sigma
        assert lhs <= r * linalg.trace_norm(pad) + 1e-9

    report(
        4,
        time.perf_counter() - started,
        30.0,
        "0 violations over 1000 contractivity pairs + 200 block-embedding bounds",
    )


def test_criterion_5_counterexample_regression() -> None:
    started = time.perf_counter()
    alpha, a = np.sqrt(0.8), np.sqrt(0.65)
    blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))

    diag = fz.solve_feasibility(fz.build_constraints(blocks, pairs="diagonal"))
    assert diag.status == "Feasible"
    assert diag.residual_affine <= 1e-7

    system = fz.build_constraints(blocks)
    config = SolveConfig(max_iter=20000)
    run1 = fz.solve_feasibility(system, config)
    assert run1.status != "Feasible"
    assert run1.iterations <= 20000

    dim = system.in_dim * system.out_dim
    gen = rng(11)
    Z = crandn(gen, dim, dim)
    start = linalg.project_psd(np.eye(dim, dtype=complex) / system.out_dim + 0.05 * (Z + Z.conj().T) / 2)
    run2 = fz.solve_feasibility(system, config, initial=start)
    assert run2.status != "Feasible"

    for run in (run1, run2):
        assert 0.5 * SEC4_STALL_BASELINE <= run.residual_affine <= 1.5 * SEC4_STALL_BASELINE
    assert 0.5 * run1.residual_affine <= run2.residual_affine <= 1.5 * run1.residual_affine

    report(
        5,
        time.perf_counter() - started,
        60.0,
        f"diagonal Feasible ({diag.residual_affine:.2e}); full stalls at "
        f"{run1.residual_affine:.6f} / {run2.residual_affine:.6f} vs baseline {SEC4_STALL_BASELINE}",
    )


def _random_rank_one_state(gen: np.random.Generator) -> states.TripartiteState:
    n, p, q = (int(gen.integers(2, 4)) for _ in range(3))
    T = np.zeros((n, p, q), dtype=complex)
    for i in range(n):
        T[i] = np.outer(crandn(gen, p), crandn(gen, q))
    return states.TripartiteState((n, p, q), T.ravel())


def test_criterion_6_rank_one_sdp_oracle_agreement() -> None:
    started = time.perf_counter()
    config = SolveConfig(max_iter=60000)
    counts = {"Yes": 0, "No": 0}
    for case in range(50):
        gen = rng(5000 + case)
        if case % 2 == 0:
            state = _random_rank_one_state(gen)
        else:
            n = int(gen.integers(2, 4))
            p = int(gen.integers(2, 4))
            q = int(gen.integers(n, 4))
            state = state_from_decomposition(schur_yes_decomposition(gen, n, p, q))
        state = state.unit()
        blocks = states.extract_blocks(state)
        dec = rank_one.detect_rank_one(blocks)
        assert dec is not None
        verdict, _, _ = rank_one.check_condition_e(dec)
        counts[verdict] += 1

        out = fz.solve_feasibility(fz.build_constraints(blocks), config)
        verified = (
            out.status == "Feasible"
            and verify_channel(out.certificate, blocks) <= 1e-7
            and out.certificate.completeness_defect() <= 1e-8
        )
        assert verified == (verdict == "Yes"), (
            f"case {case}: condition (e) said {verdict}, SDP verified={verified} "
            f"(status {out.status}, residual {out.residual_affine})"
        )
    assert counts["Yes"] >= 10 and counts["No"] >= 10

    report(
        6,
        time.perf_counter() - started,
        120.0,
        f"50/50 agreement, split {counts}",
    )


def test_criterion_7_channel_certificates_and_rulings() -> None:
    started = time.perf_counter()

    g = 0.5
    K0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    K1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    damping = QuantumChannel(KrausSet([K0, K1]))
    assessment = channel_degradability_test(damping)
    assert assessment.e_to_b.status == "Feasible"
    cert = assessment.e_to_b.certificate

    gen = rng(77)
    preps = [np.diag([1.0, 0.0]).astype(complex), np.ones((2, 2), dtype=complex)]
    preps += [crandn(gen, 2, 2) for _ in range(18)]
    worst = 0.0
    for K in preps:
        lifted = lift_prepared(damping, InputPreparation(K))
        worst = max(worst, verify_channel(cert, states.extract_blocks(lifted)))
    assert worst <= 1e-7

    noisy = depolarizing(0.1)
    assert channel_degradability_test(noisy).label == "ruled_out_for_filtered_inputs"
    for _ in range(20):
        W = crandn(gen, 2, 2)
        prep = InputPreparation(W)
        assert prep.invertible()
        out = decide(lift_prepared(noisy, prep), "EtoB")
        assert out.status != "Feasible"

    report(
        7,
        time.perf_counter() - started,
        120.0,
        f"certificate transfers to 20 preparations (worst {worst:.2e}); "
        f"depolarizing 0.1 never Feasible across 20 invertible preparations",
    )
