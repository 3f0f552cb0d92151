"""Tests for the Choi-matrix feasibility engine and the decide pipeline."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import feasibility as fz
from degradability import linalg, states
from degradability.filters import pair_filter, random_witness_filter

from helpers import (
    brute_force_feasibility,
    crandn,
    douglas_rachford_oracle,
    planted_state,
    random_kraus,
    random_state_vector,
    rng,
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
    def test_defaults(self):
        cfg = fz.SolveConfig()
        assert cfg.max_iter == 20000
        assert cfg.feas_tol == 1e-8
        assert cfg.psd_tol == 1e-9
        assert cfg.stall_window == 500
        assert cfg.verify_tol == 1e-7

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError, match="feas_tol"):
            fz.SolveConfig(feas_tol=0.0)
        with pytest.raises(ValueError, match="verify_tol"):
            fz.SolveConfig(verify_tol=-1e-9)

    def test_rejects_bad_iteration_budgets(self):
        with pytest.raises(ValueError, match="max_iter"):
            fz.SolveConfig(max_iter=0)
        with pytest.raises(ValueError, match="witnesses"):
            fz.SolveConfig(witnesses=-1)


class TestChoiMatrix:
    def test_identity_channel_choi_acts_as_identity(self):
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(3, dtype=complex)]))
        M = crandn(rng(0), 3, 3)
        assert np.allclose(J.apply(M), M, atol=1e-12)
        assert np.allclose(J.trace_out_output(), np.eye(3), atol=1e-12)

    def test_kraus_channel_choi_matches_direct_application(self):
        gen = rng(1)
        ks = fz.KrausSet(random_kraus(gen, 2, 3, 2))
        J = fz.choi_from_kraus(ks)
        M = crandn(gen, 3, 3)
        assert np.allclose(J.apply(M), ks.apply(M), atol=1e-12)
        assert np.allclose(J.trace_out_output(), np.eye(3), atol=1e-8)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="must be"):
            fz.ChoiMatrix(matrix=np.eye(5, dtype=complex), in_dim=2, out_dim=2)

    def test_rejects_non_hermitian(self):
        M = np.eye(4, dtype=complex)
        M[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            fz.ChoiMatrix(matrix=M, in_dim=2, out_dim=2)


class TestBuildConstraints:
    def test_ghz_system_satisfied_by_identity_choi(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        system = fz.build_constraints(blocks, "EtoB")
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(2, dtype=complex)])).matrix
        assert system.residual(J) <= 1e-12
        assert np.linalg.norm(system.project(J) - J) <= 1e-12

    def test_example2_system_satisfied_by_reference_choi(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        system = fz.build_constraints(states.extract_blocks(ex), "EtoB")
        J = fz.choi_from_kraus(example2_reference_kraus(0.5, 0.5)).matrix
        assert system.residual(J) <= 1e-12
        assert np.linalg.norm(system.project(J) - J) <= 1e-12

    def test_reduced_rows_are_orthonormal(self):
        blocks = states.extract_blocks(symmetric_slice_state(3))
        system = fz.build_constraints(blocks, "EtoB")
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
        blocks = states.BlockFamily(
            S=[target_scale * M for M in blocks.S], R=blocks.R, svd_factors=blocks.svd_factors
        )
        system = fz.build_constraints(blocks, direction)
        dim = system.in_dim * system.out_dim

        def herm() -> np.ndarray:
            Z = crandn(gen, dim, dim)
            return (Z + Z.conj().T) / 2

        X, Y = herm(), herm()
        PX, PY = system.project(X), system.project(Y)
        assert np.array_equal(PX, PX.conj().T)
        # The image lies in the set: Φ(Q_i) = C_i, and tr_out J = I off span Q.
        J = fz.ChoiMatrix(PX, system.in_dim, system.out_dim)
        Q = system.basis
        images = [J.apply(row.reshape(system.in_dim, -1)).reshape(-1) for row in Q]
        assert np.allclose(images, system.fitted, atol=1e-10)
        g = (J.trace_out_output() - np.eye(system.in_dim)).reshape(-1)
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
            fz.build_constraints(blocks, "EtoB", pairs="upper")

    def test_diagonal_mode_generates_fewer_rows(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        full = fz.build_constraints(blocks, "EtoB", pairs="all")
        diag = fz.build_constraints(blocks, "EtoB", pairs="diagonal")
        assert diag.raw_rows < full.raw_rows

    def test_dependent_source_blocks_are_reduced_consistently(self):
        # S2 = S0 + S1 forces R2 = R0 + R1; only two blocks generate pairs.
        gen = rng(5)
        S0, S1 = crandn(gen, 2, 2), crandn(gen, 2, 2)
        x = np.stack([S0, S1, S0 + S1]).ravel()
        st3 = states.TripartiteState((3, 2, 2), x)
        system = fz.build_constraints(states.extract_blocks(st3), "EtoB")
        assert system.dependency_witness is None
        assert system.raw_rows == 6 + 3 * 4 * 2
        assert system.inconsistency <= 1e-10

    def test_forged_dependency_mismatch_yields_witness_and_ruled_out(self):
        # R2 = R0 + R1 on the source side while the forged target family
        # carries an unrelated third block; no linear map can fix that.
        gen = rng(7)
        R = [crandn(gen, 2, 2) for _ in range(2)]
        R.append(R[0] + R[1])
        S = [M.T.copy() for M in R[:2]]
        S.append(crandn(gen, 2, 2))
        forged = states.BlockFamily(
            S=S, R=R, svd_factors=[linalg.svd(M) for M in R]
        )
        system = fz.build_constraints(forged, "EtoB")
        w = system.dependency_witness
        assert w is not None and w.violated
        assert "dependency" in w.label
        assert w.d_in <= 1e-10
        assert w.d_out > 0.1
        out = fz.solve_feasibility(system)
        assert out.status == "RuledOut"
        assert out.filter_witness is w


class TestSolveFeasibility:
    def test_ghz_converges_fast(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        out = fz.solve_feasibility(fz.build_constraints(blocks, "EtoB"))
        assert out.status == "Feasible"
        assert out.iterations <= 500
        assert out.residual_affine <= 1e-9
        assert out.residual_psd <= 1e-9
        assert out.certificate.completeness_defect() <= 1e-8

    def test_example2_symmetric_feasible_with_verified_kraus(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        out = fz.solve_feasibility(fz.build_constraints(states.extract_blocks(ex), "EtoB"))
        assert out.status == "Feasible"
        assert fz.verify_channel(out.certificate, ex, "EtoB") <= 1e-7

    def test_sec4_diagonal_only_feasible(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        out = fz.solve_feasibility(fz.build_constraints(blocks, "EtoB", pairs="diagonal"))
        assert out.status == "Feasible"
        assert out.residual_affine <= 1e-8
        assert out.certificate.completeness_defect() <= 1e-8

    def test_sec4_full_system_stalls_at_recorded_floor(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        system = fz.build_constraints(blocks, "EtoB")
        assert system.inconsistency == pytest.approx(SEC4_LINEAR_FLOOR, rel=1e-9)
        out = fz.solve_feasibility(system)
        assert out.status == "Inconclusive"
        assert "stalled" in out.detail
        assert out.residual_affine == pytest.approx(SEC4_LINEAR_FLOOR, rel=1e-9)
        assert 0.5 * SEC4_STALL_BASELINE <= out.residual_affine <= 1.5 * SEC4_STALL_BASELINE

    def test_sec4_full_system_floor_is_start_independent(self):
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        system = fz.build_constraints(blocks, "EtoB")
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
                state = planted_state(seed, n, p, e2)
                system = fz.build_constraints(states.extract_blocks(state), "EtoB")
                out = fz.solve_feasibility(system, config)
                if out.status == "Feasible":
                    # The certificate's Choi matrix is the exact affine point.
                    assert system.residual(out.choi.matrix) <= 1e-12
                    verified += fz._check_certificate(
                        out.certificate, state, "EtoB", config
                    )[0]
        assert verified >= 19

    @pytest.mark.parametrize("seed", [4, 20, 79, 154])
    def test_choi18_plateaus_now_certify(self, seed):
        # At 1000 iterations the window stall rule used to end these planted
        # Choi-18 runs on a plateau; they now stop on a PSD affine point or a
        # Kraus-form finish well before it applies.
        config = fz.SolveConfig(max_iter=1000)
        state = planted_state(seed, 2, 3, 2)
        out = fz.solve_feasibility(fz.build_constraints(states.extract_blocks(state), "EtoB"), config)
        assert out.status == "Feasible"
        assert out.iterations < config.stall_window
        ok, note = fz._check_certificate(out.certificate, state, "EtoB", config)
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
            system = fz.build_constraints(blocks, "BtoE")
        else:
            n, p, e2 = (2, 4, 1) if case == "choi16" else (2, 3, 2)
            seed = 3 if case == "choi16" else 0
            system = fz.build_constraints(states.extract_blocks(planted_state(seed, n, p, e2)), "EtoB")
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
        out = fz.solve_feasibility(fz.build_constraints(blocks, "EtoB"))
        assert out.status != "RuledOut"


class TestOneProjectionEngine:
    """The engine against a loop that evaluates P_aff(2X - Z) directly."""

    @staticmethod
    def sec4_system() -> fz.AffineSystem:
        alpha, a = np.sqrt(0.8), np.sqrt(0.65)
        blocks = states.extract_blocks(states.build_fixture("sec4", alpha=alpha, a=a))
        return fz.build_constraints(blocks, "EtoB")

    @pytest.mark.parametrize(
        "case", ["choi16", "choi18", "example2", "sec4", "sec4 perturbed start"]
    )
    def test_matches_two_projection_loop(self, case):
        if case.startswith("sec4"):
            system = self.sec4_system()
        elif case == "example2":
            ex = states.build_fixture("example2", a=0.5, b=0.5)
            system = fz.build_constraints(states.extract_blocks(ex), "EtoB")
        else:
            n, p, e2 = (2, 4, 1) if case == "choi16" else (2, 3, 2)
            blocks = states.extract_blocks(planted_state(0, n, p, e2))
            system = fz.build_constraints(blocks, "EtoB")
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
        system = fz.build_constraints(states.extract_blocks(planted_state(3, 2, 4, 1)), "EtoB")
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
        system = fz.build_constraints(states.extract_blocks(planted_state(0, 2, 4, 1)), "EtoB")
        K = np.eye(4, dtype=complex).reshape(-1, 1)
        assert system.residual(K @ K.conj().T) <= 1e-15
        bent = K + 1e-2 * crandn(rng(1), 16, 1)
        assert system.residual(bent @ bent.conj().T) > 1e-2
        J = system.kraus_newton(bent)
        assert system.residual(J) <= 1e-14
        assert linalg.min_eig(system.project(J)) >= -1e-12

    def test_declines_when_unknowns_outnumber_equations(self):
        system = fz.build_constraints(states.extract_blocks(planted_state(0, 2, 4, 1)), "EtoB")
        assert system.kraus_newton(np.eye(16, dtype=complex)) is None
        assert system.kraus_newton(np.zeros((16, 0), dtype=complex)) is None


class TestExtractKraus:
    def test_identity_choi_recovers_identity(self):
        J = fz.choi_from_kraus(fz.KrausSet([np.eye(3, dtype=complex)]))
        ks = fz.extract_kraus(J)
        assert ks.r == 1
        F = ks.operators[0]
        assert abs(abs(F[0, 0]) - 1.0) <= 1e-12
        assert np.allclose(F / F[0, 0], np.eye(3), atol=1e-12)

    def test_example2_choi_round_trip(self):
        J = fz.choi_from_kraus(example2_reference_kraus(0.5, 0.5))
        ks = fz.extract_kraus(J)
        J2 = fz.choi_from_kraus(ks)
        assert np.max(np.abs(J.matrix - J2.matrix)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_cptp_choi_extraction(self, seed):
        gen = rng(seed)
        out_dim = int(gen.integers(1, 4))
        in_dim = int(gen.integers(1, 4))
        r = int(gen.integers(1, 4)) + -(-in_dim // out_dim)
        ks = fz.KrausSet(random_kraus(gen, out_dim, in_dim, r))
        J = fz.choi_from_kraus(ks)
        extracted = fz.extract_kraus(J)
        assert extracted.completeness_defect() <= 1e-8
        J2 = fz.choi_from_kraus(extracted)
        assert np.max(np.abs(J.matrix - J2.matrix)) <= 1e-9

    def test_materially_non_psd_rejected(self):
        M = np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex)
        J = fz.ChoiMatrix(matrix=M, in_dim=2, out_dim=2)
        with pytest.raises(ValueError, match="non-PSD"):
            fz.extract_kraus(J)


class TestVerifyChannel:
    def test_identity_on_ghz_is_exact(self):
        ghz = states.build_fixture("ghz")
        ks = fz.KrausSet([np.eye(2, dtype=complex)])
        assert fz.verify_channel(ks, ghz, "EtoB") == 0.0
        assert fz.verify_channel(ks, ghz, "BtoE") == 0.0

    def test_reference_kraus_on_example2(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        ks = example2_reference_kraus(0.5, 0.5)
        assert ks.completeness_defect() <= 1e-12
        assert fz.verify_channel(ks, ex, "EtoB") <= 1e-12

    def test_section3_map_works_only_for_equal_weights(self):
        # G = (a^2+b^2)^{-1/2} [[a, b], [a, -b]] sends X3 to X2 iff a = b.
        for a2, b2, good in ((0.25, 0.25, True), (0.4, 0.1, False)):
            a, b = np.sqrt(a2), np.sqrt(b2)
            ex = states.build_fixture("example2", a=a, b=b)
            G = np.array([[a, b], [a, -b]], dtype=complex) / np.sqrt(a2 + b2)
            residual = fz.verify_channel(fz.KrausSet([G]), ex, "BtoE")
            if good:
                assert residual <= 1e-12
            else:
                assert residual > 1e-3

    def test_dimension_mismatch_rejected(self):
        ghz = states.build_fixture("ghz")
        ks = fz.KrausSet([np.eye(3, dtype=complex)])
        with pytest.raises(ValueError, match="channel maps"):
            fz.verify_channel(ks, ghz, "EtoB")


class TestDecide:
    def test_example2_symmetric_feasible_both_directions(self):
        ex = states.build_fixture("example2", a=0.5, b=0.5)
        for direction in ("EtoB", "BtoE"):
            out = fz.decide(ex, direction)
            assert out.status == "Feasible"
            assert fz.verify_channel(out.certificate, ex, direction) <= 1e-7
            assert out.certificate.completeness_defect() <= 1e-8

    def test_example2_asymmetric_split_verdict(self):
        a, b = np.sqrt(0.4), np.sqrt(0.1)
        ex = states.build_fixture("example2", a=a, b=b)
        forward = fz.decide(ex, "EtoB")
        assert forward.status == "Feasible"
        assert forward.stage == "rank_one"
        backward = fz.decide(ex, "BtoE")
        assert backward.status == "RuledOut"
        assert backward.stage == "filter"
        assert backward.filter_witness is not None
        assert backward.filter_witness.violated

    def test_ghz_feasible_with_exact_certificate(self):
        ghz = states.build_fixture("ghz")
        out = fz.decide(ghz, "BtoE")
        assert out.status == "Feasible"
        assert fz.verify_channel(out.certificate, ghz.unit(), "BtoE") <= 1e-12

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
            assert fz.verify_channel(out.certificate, st2.unit(), "EtoB") <= 1e-7

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
            pair = pair_filter(blocks, "EtoB")
            rand = random_witness_filter(blocks, "EtoB", 50, seed=seed)
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
