"""Tests for the Choi-matrix feasibility engine and the decide pipeline."""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import feasibility as fz
from degradability import filters, linalg, rank_one, states
from degradability.channels import QuantumChannel, lift_max_entangled
from degradability.filters import pair_filter, random_witness_filter

from helpers import (
    both_directions,
    brute_force_feasibility,
    choi_apply,
    choi_trace_out,
    crandn,
    depolarizing_lift_state,
    douglas_rachford_oracle,
    pair_filter_oracle,
    planted_state,
    random_kraus,
    random_state_vector,
    random_witness_filter_oracle,
    restrict_to_canonical_twins,
    rng,
    schur_yes_decomposition,
    state_from_decomposition,
    swap_b_and_e,
    swap_cases,
    unit,
    verify_channel_oracle,
)

SEC4_STALL_BASELINE = 0.0606096
# Relative least-squares residual of the full sec4 E->B system (unnormalized fixture).
SEC4_LINEAR_FLOOR = 0.06060962906665683


def example2_reference_kraus(a: float, b: float) -> fz.KrausSet:
    """The two displayed operators, normalized so that F1*F1 + F2*F2 = I."""
    s = np.sqrt(2 * (a * a + b * b))
    F1 = np.array([[a, a], [b, -b]], dtype=complex) / s
    F2 = np.array([[a, -a], [b, b]], dtype=complex) / s
    return fz.KrausSet([F1, F2])


def symmetric_slice_state(seed: int, n: int = 2, d: int = 2) -> states.TripartiteState:
    """State with symmetric slices, hence R_i = S_i and the identity is feasible."""
    gen = rng(seed)
    S = [(lambda M: (M + M.T) / 2)(crandn(gen, d, d)) for _ in range(n)]
    return states.TripartiteState((n, d, d), np.stack(S).ravel())


def perturbed_start(system: fz.AffineSystem) -> np.ndarray:
    """The solver's default start I/out_dim, moved by a seeded Hermitian kick into the PSD cone."""
    dim = system.in_dim * system.out_dim
    Z = crandn(np.random.default_rng(11), dim, dim)
    start = np.eye(dim, dtype=complex) / system.out_dim + 0.05 * (Z + Z.conj().T) / 2
    return linalg.project_psd(start)


class TestSolveConfig:
    def test_gates_are_constants_and_config_holds_only_budgets(self):
        assert (linalg.FEAS_TOL, linalg.PSD_TOL) == (1e-8, 1e-9)
        assert (linalg.STALL_WINDOW, linalg.STALL_TOL) == (500, 1e-12)
        assert (linalg.DEFAULT_RANK_TOL, linalg.DEFAULT_HERM_TOL) == (1e-10, 1e-9)
        assert linalg.COMPLETENESS_TOL == 1e-8
        assert fz.VERIFY_TOL == 1e-7
        assert filters.DEFAULT_SLACK_TOL == 1e-8
        assert (rank_one.DEFAULT_DIV_TOL, rank_one.DEFAULT_MATCH_TOL) == (1e-10, 1e-8)
        assert [f.name for f in fields(fz.SolveConfig)] == ["max_iter", "witnesses", "seed"]
        cfg = fz.SolveConfig()
        assert (cfg.max_iter, cfg.witnesses, cfg.seed) == (20000, 200, 0)

    def test_rejects_bad_iteration_budgets(self):
        with pytest.raises(ValueError, match="max_iter"):
            fz.SolveConfig(max_iter=0)
        with pytest.raises(ValueError, match="witnesses"):
            fz.SolveConfig(witnesses=-1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            fz.SolveConfig(seed=-1)


class TestChoiMatrix:
    def test_identity_channel_choi_acts_as_identity(self):
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(3, dtype=complex)]))
        M = crandn(rng(0), 3, 3)
        assert np.allclose(choi_apply(J, 3, 3, M), M, atol=1e-12)
        assert np.allclose(choi_trace_out(J, 3, 3), np.eye(3), atol=1e-12)

    def test_kraus_channel_choi_matches_direct_application(self):
        gen = rng(1)
        ks = fz.KrausSet(random_kraus(gen, 2, 3, 2))
        J = fz.choi_from_kraus(ks)
        M = crandn(gen, 3, 3)
        assert np.allclose(choi_apply(J, 3, 2, M), ks.apply(M), atol=1e-12)
        assert np.allclose(choi_trace_out(J, 3, 2), np.eye(3), atol=1e-8)


class TestBuildConstraints:
    def test_ghz_system_satisfied_by_identity_choi(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        system = fz.build_constraints(blocks)
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(2, dtype=complex)]))
        assert system.residual(J) <= 1e-12
        assert np.linalg.norm(system.project(J) - J) <= 1e-12

    def test_example2_system_satisfied_by_reference_choi(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        system = fz.build_constraints(states.extract_blocks(ex))
        J = fz.choi_from_kraus(example2_reference_kraus(0.5, 0.5))
        assert system.residual(J) <= 1e-12
        assert np.linalg.norm(system.project(J) - J) <= 1e-12

    def test_reduced_rows_are_orthonormal(self):
        blocks = states.extract_blocks(symmetric_slice_state(3))
        system = fz.build_constraints(blocks)
        Q = system.basis
        assert np.allclose(Q @ Q.conj().T, np.eye(Q.shape[0]), atol=1e-10)
        # The rows span every weighted source pair.
        S = system.sources
        assert np.allclose(S @ Q.conj().T @ Q, S, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 2, 3), (4, 3, 2)]),
        st.sampled_from(["EtoB", "BtoE"]),
        st.sampled_from([1.0, 1.5]),
    )
    def test_projector_is_hermitian_idempotent_and_orthogonal(
        self, seed, dims, direction, target_scale
    ):
        # A target scale other than 1 breaks tr M_out^{uv} = tr M_in^{uv}, so
        # trace preservation then competes with the pair constraints.
        gen = rng(seed)
        n, p, q = dims
        state = states.TripartiteState(dims, random_state_vector(gen, n * p * q))
        blocks = states.extract_blocks(state)
        blocks = replace(
            blocks, S=target_scale * blocks.S, G_S=target_scale**2 * blocks.G_S
        )
        system = fz.build_constraints(blocks if direction == "EtoB" else blocks.swapped())
        dim = system.in_dim * system.out_dim

        def herm() -> np.ndarray:
            Z = crandn(gen, dim, dim)
            return (Z + Z.conj().T) / 2

        X, Y = herm(), herm()
        PX, PY = system.project(X), system.project(Y)
        assert np.array_equal(PX, PX.conj().T)
        # The image lies in the set: Φ(Q_i) = C_i, and tr_out J = I off span Q.
        i, o = system.in_dim, system.out_dim
        Q = system.basis
        images = [choi_apply(PX, i, o, row.reshape(i, -1)).reshape(-1) for row in Q]
        assert np.allclose(images, system.fitted, atol=1e-10)
        g = (choi_trace_out(PX, i, o) - np.eye(i)).reshape(-1)
        assert np.allclose(g - Q.conj().T @ (Q @ g), 0, atol=1e-10)
        assert np.allclose(system.project(PX), PX, atol=1e-10)
        inner = np.vdot(X - PX, PY - PX).real
        assert abs(inner) <= 1e-10 * (1 + np.linalg.norm(X) * np.linalg.norm(Y))
        # The engine's fused map gives the same projection and residual.
        for J in (X, Y, PX):
            P, r = system.project_and_residual(J)
            assert np.max(np.abs(P - system.project(J))) <= 1e-13
            assert abs(r - system.residual(J)) <= 1e-13
        zero = np.zeros((dim, dim), dtype=complex)
        assert system.residual(system.project(zero)) == system.inconsistency

    def test_rejects_unknown_pairs_mode(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        with pytest.raises(ValueError, match="pairs"):
            fz.build_constraints(blocks, pairs="upper")

    def test_diagonal_mode_generates_fewer_rows(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        full = fz.build_constraints(blocks, pairs="all")
        diag = fz.build_constraints(blocks, pairs="diagonal")
        assert diag.raw_rows < full.raw_rows

    def test_pair_rows_match_per_pair_products(self):
        # Reference: the weighted rows R_u R_v* and S_u S_v* formed pair by pair.
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        for direction, family in both_directions(blocks):
            fam_in, fam_out = (blocks.R, blocks.S) if direction == "EtoB" else (blocks.S, blocks.R)
            for pairs, pair_list in (
                ("all", [(u, v) for u in range(3) for v in range(3)]),
                ("diagonal", [(u, u) for u in range(3)]),
            ):
                system = fz.build_constraints(family, pairs=pairs)
                for fam, rows in ((fam_in, system.sources), (fam_out, system.images)):
                    want = np.array([
                        (1.0 if u == v else np.sqrt(0.5)) * (fam[u] @ fam[v].conj().T).ravel()
                        for u, v in pair_list
                    ])
                    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-15)

    def test_dependent_source_blocks_are_reduced_consistently(self):
        # S2 = S0 + S1 forces R2 = R0 + R1; only two blocks generate pairs.
        gen = rng(5)
        S0, S1 = crandn(gen, 2, 2), crandn(gen, 2, 2)
        x = np.stack([S0, S1, S0 + S1]).ravel()
        st3 = states.TripartiteState((3, 2, 2), x)
        system = fz.build_constraints(states.extract_blocks(st3))
        assert system.raw_rows == 6 + 3 * 4 * 2
        assert system.inconsistency <= 1e-10


class TestSolveFeasibility:
    def test_ghz_converges_fast(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        out = fz.solve_feasibility(fz.build_constraints(blocks))
        assert out.status == "Feasible"
        assert out.iterations <= 500
        assert out.residual_affine <= 1e-9
        assert out.residual_psd <= 1e-9
        assert out.certificate.completeness_defect() <= 1e-8

    def test_example2_symmetric_feasible_with_verified_kraus(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        blocks = states.extract_blocks(ex)
        out = fz.solve_feasibility(fz.build_constraints(blocks))
        assert out.status == "Feasible"
        assert fz.verify_channel(out.certificate, blocks) <= 1e-7

    def test_sec4_diagonal_only_feasible(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        out = fz.solve_feasibility(fz.build_constraints(blocks, pairs="diagonal"))
        assert out.status == "Feasible"
        assert out.residual_affine <= 1e-8
        assert out.certificate.completeness_defect() <= 1e-8

    def test_sec4_full_system_stalls_at_recorded_floor(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        system = fz.build_constraints(blocks)
        assert system.inconsistency == pytest.approx(SEC4_LINEAR_FLOOR, rel=1e-9)
        out = fz.solve_feasibility(system)
        assert out.status == "Inconclusive"
        assert "stalled" in out.detail
        assert out.residual_affine == pytest.approx(SEC4_LINEAR_FLOOR, rel=1e-9)
        assert 0.5 * SEC4_STALL_BASELINE <= out.residual_affine <= 1.5 * SEC4_STALL_BASELINE

    def test_sec4_full_system_floor_is_start_independent(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        system = fz.build_constraints(blocks)
        out = fz.solve_feasibility(system, initial=perturbed_start(system))
        assert out.status == "Inconclusive"
        assert out.residual_affine == pytest.approx(SEC4_STALL_BASELINE, rel=0.5)

    def test_planted_states_feasible_within_small_budget(self):
        # chi on A (x) B (x) E' (x) E'' is symmetric under B <-> E', so tracing
        # out E'' and relabelling E' as B is a channel E -> B: every case is
        # feasible, and a 1000-iteration budget should certify nearly all.
        config = fz.SolveConfig(max_iter=1000)
        verified = 0
        for n, p, e2 in ((2, 4, 1), (2, 3, 2)):  # Choi 16 and 18
            for seed in range(10):
                blocks = states.extract_blocks(planted_state(seed, n, p, e2))
                system = fz.build_constraints(blocks)
                out = fz.solve_feasibility(system, config)
                # The engine run behind the outcome: a certificate comes from
                # its affine point, which satisfies the constraints exactly.
                dim = system.in_dim * system.out_dim
                run = linalg.alternating_projections(
                    system.project_and_residual,
                    start=np.eye(dim, dtype=complex) / system.out_dim,
                    max_iter=config.max_iter,
                    finish=system.kraus_newton,
                )
                assert run.converged == (out.status == "Feasible")
                if out.status == "Feasible":
                    assert system.residual(run.affine_point) <= 1e-12
                    verified += fz._check_certificate(out.certificate, blocks)[0]
        assert verified >= 19

    @pytest.mark.parametrize("seed", [4, 20, 79, 154])
    def test_choi18_plateaus_now_certify(self, seed):
        # At 1000 iterations the window stall rule used to end these planted
        # Choi-18 runs on a plateau; they now stop on a PSD affine point or a
        # Kraus-form finish well before it applies.
        config = fz.SolveConfig(max_iter=1000)
        blocks = states.extract_blocks(planted_state(seed, 2, 3, 2))
        out = fz.solve_feasibility(fz.build_constraints(blocks), config)
        assert out.status == "Feasible"
        assert out.iterations < linalg.STALL_WINDOW
        ok, note = fz._check_certificate(out.certificate, blocks)
        assert ok, note

    @pytest.mark.parametrize(
        "case, stop, detail",
        [
            ("choi16", "kraus_newton", "Kraus-form Gauss-Newton finish at iteration 32"),
            ("choi18", "affine_psd", "affine point PSD after 4 iterations"),
            ("bell_lift", "converged", "converged in 1 iterations"),
            ("sec4", "stalled", "projections stalled after 1000 iterations"),
            ("sec4 budget", "budget", "projections iteration budget exhausted after 200 iterations"),
        ],
    )
    def test_detail_reads_the_stop_reason(self, case, stop, detail):
        config = fz.SolveConfig(max_iter=200 if case == "sec4 budget" else 1000)
        if case.startswith("sec4"):
            system = TestOneProjectionEngine.sec4_system()
        elif case == "bell_lift":
            blocks = states.extract_blocks(states.build_fixture("bell_lift"))
            system = fz.build_constraints(blocks.swapped())
        else:
            n, p, e2 = (2, 4, 1) if case == "choi16" else (2, 3, 2)
            seed = 3 if case == "choi16" else 0
            system = fz.build_constraints(states.extract_blocks(planted_state(seed, n, p, e2)))
        dim = system.in_dim * system.out_dim
        result = linalg.alternating_projections(
            system.project_and_residual,
            start=np.eye(dim, dtype=complex) / system.out_dim,
            max_iter=config.max_iter,
            finish=system.kraus_newton,
        )
        assert result.stop == stop
        assert result.converged == (stop in linalg.CERTIFYING_STOPS)
        assert result.stalled == (stop == "stalled")
        out = fz.solve_feasibility(system, config)
        assert out.detail == detail
        assert out.status == ("Feasible" if result.converged else "Inconclusive")

    def test_solver_never_rules_out_without_witness(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        out = fz.solve_feasibility(fz.build_constraints(blocks))
        assert out.status != "RuledOut"


class TestOneProjectionEngine:
    """The engine against a loop that evaluates P_aff(2X - Z) directly."""

    @staticmethod
    def sec4_system() -> fz.AffineSystem:
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        return fz.build_constraints(blocks)

    @pytest.mark.parametrize(
        "case", ["choi16", "choi18", "example2", "sec4", "sec4 perturbed start"]
    )
    def test_matches_two_projection_loop(self, case):
        if case.startswith("sec4"):
            system = self.sec4_system()
        elif case == "example2":
            ex = states.build_fixture("example2", a=0.5, b=0.5)
            system = fz.build_constraints(states.extract_blocks(ex))
        else:
            n, p, e2 = (2, 4, 1) if case == "choi16" else (2, 3, 2)
            blocks = states.extract_blocks(planted_state(0, n, p, e2))
            system = fz.build_constraints(blocks)
        if case == "sec4 perturbed start":
            start = perturbed_start(system)
        else:
            dim = system.in_dim * system.out_dim
            start = np.eye(dim, dtype=complex) / system.out_dim
        calls = 0

        def counted(J: np.ndarray) -> tuple[np.ndarray, float]:
            nonlocal calls
            calls += 1
            return system.project_and_residual(J)

        result = linalg.alternating_projections(counted, start=start)
        iterations, converged, stalled, affine_point, floor_needed = douglas_rachford_oracle(
            system.project, system.residual, start
        )
        assert (result.iterations, result.converged, result.stalled) == (
            iterations, converged, stalled
        )
        assert np.max(np.abs(result.affine_point - affine_point)) <= 1e-9
        # One evaluation per iteration plus the start's, and the floor at most once.
        assert calls == result.iterations + 1 + floor_needed
        assert result.converged == (not case.startswith("sec4"))

    def test_bent_finish_is_never_accepted(self):
        # A finish that scales its polished K K* by 1.01 breaks trace
        # preservation by 1 %; the engine must reject every such candidate and
        # end exactly as it does without a finish.
        system = fz.build_constraints(states.extract_blocks(planted_state(3, 2, 4, 1)))
        dim = system.in_dim * system.out_dim
        start = np.eye(dim, dtype=complex) / system.out_dim
        offered = []

        def bent(K: np.ndarray) -> np.ndarray | None:
            J = system.kraus_newton(K)
            if J is not None:
                offered.append(system.residual(J))
                J = 1.01 * J
            return J

        result = linalg.alternating_projections(
            system.project_and_residual, start=start, max_iter=1000, finish=bent
        )
        plain = linalg.alternating_projections(
            system.project_and_residual, start=start, max_iter=1000
        )
        # The unbent candidate at iteration 32 would have certified.
        assert offered and offered[0] <= 1e-12
        assert result.stop != "kraus_newton"
        assert (result.iterations, result.stop) == (plain.iterations, plain.stop)
        assert np.array_equal(result.affine_point, plain.affine_point)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_sec4_floor_unchanged_with_finish(self, perturbed):
        system = self.sec4_system()
        dim = system.in_dim * system.out_dim
        start = perturbed_start(system) if perturbed else np.eye(dim, dtype=complex) / system.out_dim
        calls = 0

        def finish(K: np.ndarray) -> np.ndarray | None:
            nonlocal calls
            calls += 1
            return system.kraus_newton(K)

        with_finish = linalg.alternating_projections(
            system.project_and_residual, start=start, finish=finish
        )
        without = linalg.alternating_projections(system.project_and_residual, start=start)
        assert calls > 0
        assert with_finish.stop == without.stop == "stalled"
        assert with_finish.iterations == without.iterations
        assert with_finish.residual_affine == without.residual_affine
        if not perturbed:
            assert with_finish.residual_affine == pytest.approx(SEC4_LINEAR_FLOOR, rel=1e-9)
        assert (
            0.5 * SEC4_STALL_BASELINE <= with_finish.residual_affine <= 1.5 * SEC4_STALL_BASELINE
        )


class TestKrausNewton:
    def test_polishes_a_perturbed_identity_onto_the_affine_set(self):
        # Every slice of a planted (2,4,1) state is symmetric, so the identity
        # channel, a rank-one Choi matrix, solves the system exactly.
        system = fz.build_constraints(states.extract_blocks(planted_state(0, 2, 4, 1)))
        K = np.eye(4, dtype=complex).reshape(-1, 1)
        assert system.residual(K @ K.conj().T) <= 1e-15
        bent = K + 1e-2 * crandn(rng(1), 16, 1)
        assert system.residual(bent @ bent.conj().T) > 1e-2
        J = system.kraus_newton(bent)
        assert system.residual(J) <= 1e-14
        assert linalg.min_eig(system.project(J)) >= -1e-12

    def test_declines_when_unknowns_outnumber_equations(self):
        system = fz.build_constraints(states.extract_blocks(planted_state(0, 2, 4, 1)))
        assert system.kraus_newton(np.eye(16, dtype=complex)) is None
        assert system.kraus_newton(np.zeros((16, 0), dtype=complex)) is None


class TestExtractKraus:
    def test_identity_choi_recovers_identity(self):
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(3, dtype=complex)]))
        ks = fz.extract_kraus(J, 3, 3)
        assert ks.r == 1
        F = ks.operators[0]
        assert abs(abs(F[0, 0]) - 1.0) <= 1e-12
        assert np.allclose(F / F[0, 0], np.eye(3), atol=1e-12)

    def test_example2_choi_round_trip(self):
        J = fz.choi_from_kraus(example2_reference_kraus(0.5, 0.5))
        ks = fz.extract_kraus(J, 2, 2)
        J2 = fz.choi_from_kraus(ks)
        assert np.max(np.abs(J - J2)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_cptp_choi_extraction(self, seed):
        gen = rng(seed)
        out_dim = int(gen.integers(1, 4))
        in_dim = int(gen.integers(1, 4))
        r = int(gen.integers(1, 4)) + -(-in_dim // out_dim)
        ks = fz.KrausSet(random_kraus(gen, out_dim, in_dim, r))
        J = fz.choi_from_kraus(ks)
        extracted = fz.extract_kraus(J, in_dim, out_dim)
        assert extracted.completeness_defect() <= 1e-8
        J2 = fz.choi_from_kraus(extracted)
        assert np.max(np.abs(J - J2)) <= 1e-9

    def test_materially_non_psd_rejected(self):
        M = np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="non-PSD"):
            fz.extract_kraus(M, 2, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            fz.extract_kraus(np.eye(5, dtype=complex), 2, 2)

    def test_rejects_non_hermitian(self):
        M = np.eye(4, dtype=complex)
        M[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            fz.extract_kraus(M, 2, 2)


class TestVerifyChannel:
    def test_identity_on_ghz_is_exact(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        ks = fz.KrausSet([np.eye(2, dtype=complex)])
        assert fz.verify_channel(ks, blocks) == 0.0
        assert fz.verify_channel(ks, blocks.swapped()) == 0.0

    def test_reference_kraus_on_example2(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        ks = example2_reference_kraus(0.5, 0.5)
        assert ks.completeness_defect() <= 1e-12
        assert fz.verify_channel(ks, states.extract_blocks(ex)) <= 1e-12

    def test_section3_map_works_only_for_equal_weights(self):
        # G = (a^2+b^2)^{-1/2} [[a, b], [a, -b]] sends X3 to X2 iff a = b.
        for a2, b2, good in ((0.25, 0.25, True), (0.4, 0.1, False)):
            a, b = np.sqrt(a2), np.sqrt(b2)
            ex = states.build_fixture("example2", a=a, b=b)
            G = np.array([[a, b], [a, -b]], dtype=complex) / np.sqrt(a2 + b2)
            residual = fz.verify_channel(fz.KrausSet([G]), states.extract_blocks(ex).swapped())
            if good:
                assert residual <= 1e-12
            else:
                assert residual > 1e-3

    def test_dimension_mismatch_rejected(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        ks = fz.KrausSet([np.eye(3, dtype=complex)])
        with pytest.raises(ValueError, match="channel maps"):
            fz.verify_channel(ks, blocks)

    def test_batched_form_matches_pair_loop(self):
        gen = rng(23)
        for dims in [(1, 2, 2), (2, 2, 3), (3, 3, 2), (4, 2, 2), (5, 3, 3)]:
            n, p, q = dims
            state = states.TripartiteState(dims, random_state_vector(gen, n * p * q))
            for direction, family in both_directions(states.extract_blocks(state)):
                d_in, d_out = (q, p) if direction == "EtoB" else (p, q)
                for r in (2, 3):
                    ks = fz.KrausSet(random_kraus(gen, d_out, d_in, r))
                    want = verify_channel_oracle(ks, state, direction)
                    got = fz.verify_channel(ks, family)
                    assert abs(got - want) <= 1e-13 * want, (dims, direction, r)


class TestDecide:
    @pytest.mark.parametrize("direction", ["EtoE", "both", "etob"])
    def test_rejects_unknown_direction(self, direction):
        ghz = states.build_fixture("ghz")
        with pytest.raises(ValueError, match=r"direction must be one of \('EtoB', 'BtoE'\)"):
            fz.decide(ghz, direction)

    @pytest.mark.parametrize("state", [pytest.param(s, id=k) for k, s in swap_cases()])
    def test_each_direction_is_the_other_on_the_transposed_state(self, state):
        swapped = swap_b_and_e(state)
        for direction, other in (("BtoE", "EtoB"), ("EtoB", "BtoE")):
            got, want = fz.decide(state, direction), fz.decide(swapped, other)
            assert (got.status, got.stage) == (want.status, want.stage)
            label = got.filter_witness and got.filter_witness.label
            assert label == (want.filter_witness and want.filter_witness.label)

    def test_example2_symmetric_feasible_both_directions(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        for direction, family in both_directions(states.extract_blocks(ex)):
            out = fz.decide(ex, direction)
            assert out.status == "Feasible"
            assert fz.verify_channel(out.certificate, family) <= 1e-7
            assert out.certificate.completeness_defect() <= 1e-8

    def test_btoe_rank_one_certificate_uses_the_factors_of_the_r_stack(self):
        # B->E swaps the decomposition detected on the R stack; detecting on
        # the S stack would change the phases of u_i, v_i and the certificate.
        state = states.build_fixture("example2", a=0.5, b=0.5)
        out = fz.decide(state, "BtoE")
        assert (out.status, out.stage) == ("Feasible", "rank_one")
        dec = rank_one.detect_rank_one(states.extract_blocks(state.unit())).swapped()
        _, cert, _ = rank_one.check_condition_e(dec)
        want = rank_one.kraus_from_correlation(dec, cert)
        assert len(out.certificate.operators) == len(want)
        for got, expected in zip(out.certificate.operators, want):
            assert got.tobytes() == expected.tobytes()

    def test_example2_asymmetric_split_verdict(self):
        a, b = np.sqrt(0.4), np.sqrt(0.1)
        ex = states.build_fixture("example2", a=a, b=b)
        forward = fz.decide(ex, "EtoB")
        assert forward.status == "Feasible"
        assert forward.stage == "rank_one"
        backward = fz.decide(ex, "BtoE")
        assert backward.status == "RuledOut"
        assert backward.stage == "rank_one"
        assert backward.filter_witness is not None
        assert backward.filter_witness.violated

    def test_ghz_feasible_with_exact_certificate(self):
        ghz = states.build_fixture("ghz")
        out = fz.decide(ghz, "BtoE")
        assert out.status == "Feasible"
        swapped = states.extract_blocks(ghz.unit()).swapped()
        assert fz.verify_channel(out.certificate, swapped) <= 1e-12

    def test_sec4_ruled_out_at_filter_stage(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        st4 = states.build_fixture("sec4", alpha=alpha, a=a)
        out = fz.decide(st4, "EtoB")
        assert out.status == "RuledOut"
        assert out.stage == "filter"
        assert out.filter_witness.violated

    def test_full_rank_states_reach_sdp_stage(self):
        for seed in (3, 4, 5):
            st2 = symmetric_slice_state(seed)
            out = fz.decide(st2, "EtoB")
            assert out.status == "Feasible"
            assert out.stage == "sdp"
            assert fz.verify_channel(out.certificate, states.extract_blocks(st2.unit())) <= 1e-7

    def test_scale_invariance_of_verdicts(self):
        cases = [
            states.build_fixture("example2", a=np.sqrt(0.4), b=np.sqrt(0.1)),
            states.build_fixture("example2", a=0.5, b=0.5),
            symmetric_slice_state(4),
        ]
        for base in cases:
            reference = fz.decide(base, "BtoE").status
            for t in (2.0, 0.05, 0.5j, 1000.0):
                scaled = base.scaled(t)
                assert fz.decide(scaled, "BtoE").status == reference

    def test_feasible_never_coexists_with_filter_violation(self):
        for seed in range(8):
            gen = rng(seed)
            st2 = states.TripartiteState((2, 2, 2), crandn(gen, 8))
            out = fz.decide(st2, "EtoB")
            blocks = states.extract_blocks(st2.unit())
            pair = pair_filter(blocks)
            rand = random_witness_filter(blocks, 50, seed=seed)
            if out.status == "Feasible":
                assert not pair.violated and not rand.violated
            if pair.violated or rand.violated:
                assert out.status == "RuledOut"

    def test_agrees_with_brute_force_oracle(self):
        # Independent dense projection oracle over the unreduced system.
        for seed in (0, 1, 2, 3, 6):
            gen = rng(seed)
            st2 = states.TripartiteState((2, 2, 2), crandn(gen, 8))
            out = fz.decide(st2, "EtoB")
            blocks = states.extract_blocks(st2.unit())
            feasible, residual = brute_force_feasibility(blocks, "EtoB")
            if out.status == "Feasible":
                assert feasible, f"seed {seed}: decide Feasible but oracle {residual}"
            if out.status == "RuledOut":
                assert not feasible, f"seed {seed}: decide RuledOut but oracle found a map"

    def test_ruled_out_always_carries_witness(self):
        verdicts = []
        for seed in range(10):
            gen = rng(seed)
            st2 = states.TripartiteState((2, 2, 3), crandn(gen, 12))
            out = fz.decide(st2, "BtoE")
            verdicts.append(out.status)
            if out.status == "RuledOut":
                assert out.filter_witness is not None
                assert out.filter_witness.violated
            if out.status == "Feasible":
                assert out.certificate is not None
        assert "RuledOut" in verdicts


class TestFilterRuleOut:
    """A filter RuledOut reports the filter's strongest violator and its violator count."""

    @pytest.mark.parametrize(
        "state, direction, filter_name, count, label",
        [
            (states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65)), "EtoB",
             "pair", 4, "pair (0,1)+(1,0) - (1,2)+(2,1)"),
            (depolarizing_lift_state(0.1), "BtoE", "random", 39, "random #29 i(cc~*-c~c*)"),
        ],
        ids=["sec4-EtoB-pair", "depolarizing-0.1-BtoE-random"],
    )
    def test_detail_and_witness_follow_the_oracle(
        self, state, direction, filter_name, count, label
    ):
        config = fz.SolveConfig()
        out = fz.decide(state, direction, config)
        assert (out.status, out.stage) == ("RuledOut", "filter")
        blocks = states.extract_blocks(state.unit())
        pair = restrict_to_canonical_twins(pair_filter_oracle(blocks, direction), blocks.count)
        if filter_name == "pair":
            violators = pair
        else:
            assert pair == []
            violators = random_witness_filter_oracle(
                blocks, direction, config.witnesses, config.seed
            )
        assert out.detail == f"{filter_name} filter: {len(violators)} violating witnesses"
        witness, head = out.filter_witness, violators[0]
        assert witness.label == head.label
        assert np.array_equal(witness.coefficients, head.coefficients)
        assert witness.d_in == pytest.approx(head.d_in, rel=1e-12)
        assert witness.d_out == pytest.approx(head.d_out, rel=1e-12)
        # Pin the values too, so that a change in the oracles cannot hide one in the filters.
        assert (len(violators), head.label) == (count, label)


def dephasing_lift(t: float) -> states.TripartiteState:
    kraus = [np.sqrt(1 - t) * np.eye(2), np.sqrt(t) * np.diag([1.0, -1.0])]
    return lift_max_entangled(QuantumChannel(fz.KrausSet([F.astype(complex) for F in kraus])))


def witness_distances_from_amplitudes(
    state: states.TripartiteState, direction: str, lam: np.ndarray
) -> tuple[float, float]:
    """Trace distances of a witness, rebuilt from the normalized amplitude tensor."""
    T = state.tensor() / np.sqrt(state.norm_squared())
    S = [T[i] for i in range(T.shape[0])]
    R = [T[i].T for i in range(T.shape[0])]
    fam_in, fam_out = (R, S) if direction == "EtoB" else (S, R)

    def distance(fam: list[np.ndarray]) -> float:
        M = sum(
            lam[u, v] * fam[u] @ fam[v].conj().T
            for u in range(len(fam))
            for v in range(len(fam))
        )
        return float(np.linalg.svd(M, compute_uv=False).sum()) / 2

    return distance(fam_in), distance(fam_out)


class TestRankOneFirst:
    """Rank-one families are settled by condition (e) before the filters run."""

    def test_schur_yes_never_reaches_the_filters(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a filter ran on a rank-one Yes family")

        monkeypatch.setattr(fz, "pair_filter", refuse)
        monkeypatch.setattr(fz, "random_witness_filter", refuse)
        state = state_from_decomposition(schur_yes_decomposition(rng(8), 8, 2, 8))
        out = fz.decide(state, "EtoB")
        assert (out.status, out.stage) == ("Feasible", "rank_one")
        assert fz.verify_channel(out.certificate, states.extract_blocks(state.unit())) <= 1e-7
        assert out.certificate.completeness_defect() <= linalg.COMPLETENESS_TOL

    def test_generic_family_still_reaches_the_pair_filter(self, monkeypatch):
        calls = []
        original = fz.pair_filter

        def spy(blocks, *args):
            calls.append(blocks.count)
            return original(blocks, *args)

        monkeypatch.setattr(fz, "pair_filter", spy)
        state = states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72))
        out = fz.decide(state, "EtoB")
        assert calls == [8]
        assert (out.status, out.stage) == ("RuledOut", "filter")

    def test_deferral_reason_reaches_the_detail(self, monkeypatch):
        # The condition-(e) family of test_completion_reason_names_the_stop:
        # with a one-iteration completion budget the rank-one stage defers.
        x = 0.9 / np.sqrt(2)
        state = state_from_decomposition(rank_one.RankOneDecomposition(
            u=[np.array([1.0, 0.0, 0.0]), np.array([x, x, np.sqrt(1 - 2 * x * x)]),
               np.array([0.0, 1.0, 0.0])],
            d=[1.0] * 3,
            v=[np.array([1.0, 0.0]), unit(np.array([1.0, 1.0])), np.array([0.0, 1.0])],
        ))
        assert fz.decide(state, "EtoB").stage == "rank_one"
        monkeypatch.setattr(rank_one, "COMPLETION_MAX_ITER", 1)
        out = fz.decide(state, "EtoB")
        assert (out.status, out.stage) == ("Feasible", "sdp")
        assert out.detail.startswith(
            "condition (e) deferred: PSD completion: projections iteration budget "
            "exhausted after 1 iterations (affine residual "
        )
        assert "; Kraus-form Gauss-Newton finish at iteration 32; verified " in out.detail

    def test_indefinite_forced_c_defers_with_its_reason(self):
        # The family of test_indefinite_fully_forced_c_is_no_without_a_pair:
        # condition (e) says No but names no entry, so the pair filter decides.
        G_v = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        C = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]], dtype=float)
        w, W = np.linalg.eigh(G_v * C)
        M = np.sqrt(np.clip(w, 0, None))[:, None] * W.T
        L = np.linalg.cholesky(G_v)
        state = state_from_decomposition(rank_one.RankOneDecomposition(
            u=[M[:, i].astype(complex) for i in range(3)],
            d=[1.0] * 3,
            v=[L[i].astype(complex) for i in range(3)],
        ))
        out = fz.decide(state, "EtoB")
        assert (out.status, out.stage) == ("RuledOut", "filter")
        assert out.detail == (
            "condition (e) deferred: fully forced C has min eigenvalue -1 < 0, and no "
            "single entry refutes it; pair filter: 10 violating witnesses"
        )

    @pytest.mark.parametrize(
        "state, direction, label, reason",
        [
            (states.build_fixture("example2", a=0.6, b=np.sqrt(0.14)), "BtoE",
             "pair (0,1) - (1,0)", "v-Gram vanishes"),
            # A tie between the entry's two witnesses goes to the smaller label.
            (states.build_fixture("bell_lift"), "EtoB", "pair (0,0) - (1,1)", "v-Gram vanishes"),
            (dephasing_lift(0.1), "EtoB", "pair (0,1) - (1,0)", "v-Gram vanishes"),
            (dephasing_lift(0.25), "EtoB", "pair (0,1) - (1,0)", "v-Gram vanishes"),
            (dephasing_lift(0.4), "EtoB", "pair (0,1) - (1,0)", "v-Gram vanishes"),
            (
                state_from_decomposition(rank_one.RankOneDecomposition(
                    u=[np.array([1.0, 0.0]), unit(np.array([1.0, 0.2]))],
                    d=[1.0, 1.0],
                    v=[np.array([1.0, 0.0]), unit(np.array([1.0, 3.0]))],
                )),
                "EtoB", "pair (0,1) - (1,0)", "forced |C(0,1)| = 3.10087 > 1",
            ),
        ],
        ids=["example2-0.36-BtoE", "bell_lift-EtoB", "dephasing-0.1-EtoB",
             "dephasing-0.25-EtoB", "dephasing-0.4-EtoB", "forced-entry-EtoB"],
    )
    def test_refuted_pair_gives_the_witness(self, state, direction, label, reason):
        out = fz.decide(state, direction)
        assert (out.status, out.stage) == ("RuledOut", "rank_one")
        assert reason in out.detail
        witness = out.filter_witness
        assert witness.violated
        assert witness.label == label
        if label == "pair (0,1) - (1,0)" and reason == "v-Gram vanishes":
            # R_0 R_1* is a multiple of the v-Gram entry, so the cross witness reads 0.
            assert witness.d_in == 0.0
        d_in, d_out = witness_distances_from_amplitudes(state, direction, witness.coefficients)
        assert d_in < d_out - filters.DEFAULT_SLACK_TOL
        assert d_in == pytest.approx(witness.d_in, rel=1e-9, abs=1e-12)
        assert d_out == pytest.approx(witness.d_out, rel=1e-9, abs=1e-12)
