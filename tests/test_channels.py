"""Channel lift, depolarizing family and the epsilon scan."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from degradability.channels import (
    InputPreparation,
    QuantumChannel,
    channel_degradability_test,
    depolarizing,
    epsilon_scan,
    lift_max_entangled,
    lift_prepared,
)
from degradability.feasibility import (
    VERIFY_TOL,
    KrausSet,
    SolveConfig,
    _check_certificate,
    decide,
    verify_channel,
)
from degradability.filters import contractivity_check
from degradability.states import build_fixture, extract_blocks
from helpers import crandn, depolarizing_lift_state, random_kraus, rng


def identity_channel(n: int = 2) -> QuantumChannel:
    return QuantumChannel(KrausSet([np.eye(n, dtype=complex)]))


def amplitude_damping(gamma: float) -> QuantumChannel:
    K0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    K1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel(KrausSet([K0, K1]))


def random_square_channel(seed: int, n: int, r: int) -> QuantumChannel:
    return QuantumChannel(KrausSet(random_kraus(rng(seed), n, n, r)))


def random_density(gen: np.random.Generator, n: int) -> np.ndarray:
    M = crandn(gen, n, n)
    rho = M @ M.conj().T
    return rho / np.trace(rho).real


class TestQuantumChannel:
    def test_identity_applies_as_identity(self) -> None:
        ch = identity_channel(3)
        assert ch.dim == 3
        rho = random_density(rng(0), 3)
        assert np.allclose(ch.apply(rho), rho)

    def test_rejects_rectangular_kraus(self) -> None:
        F = np.zeros((3, 2), dtype=complex)
        F[:2, :] = np.eye(2)
        with pytest.raises(ValueError, match="square"):
            QuantumChannel(KrausSet([F]))

    def test_rejects_trace_increasing_kraus(self) -> None:
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumChannel(KrausSet([np.eye(2, dtype=complex)] * 2))

    def test_rejects_empty_kraus(self) -> None:
        with pytest.raises(ValueError, match="at least one"):
            QuantumChannel(KrausSet([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_kraus(self, bad: float) -> None:
        # NaN compares False against any bound, so the completeness test alone
        # would let it through. Both checks reject the entry before forming
        # sum F*F, so no floating-point warning is raised either.
        F = np.eye(2, dtype=complex)
        F[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Kraus set contains non-finite"):
                QuantumChannel(KrausSet([F]))
            with pytest.raises(ValueError, match="Kraus set contains non-finite"):
                contractivity_check([F], np.eye(2))

    def test_completeness_bound_is_shared(self) -> None:
        # Channel inputs, contractivity checks and decide's certificate check
        # accept and reject the same Kraus sets.
        ghz = extract_blocks(build_fixture("ghz"))
        for defect, accepted in ((5e-9, True), (2e-8, False)):
            kraus = KrausSet([np.sqrt(1 + defect) * np.eye(2, dtype=complex)])
            assert kraus.completeness_defect() == pytest.approx(defect, rel=1e-6)
            assert verify_channel(kraus, ghz) <= VERIFY_TOL
            ok, note = _check_certificate(kraus, ghz)
            assert ok is accepted, note
            if accepted:
                QuantumChannel(kraus)
                contractivity_check(kraus.operators, np.eye(2))
            else:
                with pytest.raises(ValueError, match="trace preserving"):
                    QuantumChannel(kraus)
                with pytest.raises(ValueError, match="trace-preserving"):
                    contractivity_check(kraus.operators, np.eye(2))


class TestDepolarizing:
    def test_branch_order_and_weights(self) -> None:
        eps = 0.12
        ch = depolarizing(eps)
        w0, w1 = np.sqrt(1 - eps), np.sqrt(eps / 3)
        ops = ch.kraus.operators
        assert len(ops) == 4
        assert np.array_equal(ops[0], w0 * np.eye(2))
        assert np.array_equal(ops[1], w1 * np.diag([1.0, -1.0]))
        assert np.array_equal(ops[2], w1 * np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.array_equal(ops[3], w1 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_noise_acts_as_identity(self) -> None:
        rho = random_density(rng(1), 2)
        assert np.allclose(depolarizing(0.0).apply(rho), rho, atol=1e-14)

    def test_max_noise_sends_everything_to_maximally_mixed(self) -> None:
        rho = random_density(rng(2), 2)
        assert np.allclose(depolarizing(0.75).apply(rho), np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("eps", [-0.01, 0.7501, 1.0])
    def test_rejects_out_of_range(self, eps: float) -> None:
        with pytest.raises(ValueError, match="3/4"):
            depolarizing(eps)


class TestLiftMaxEntangled:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.45])
    def test_depolarizing_lift_matches_displayed_state(self, eps: float) -> None:
        lift = lift_max_entangled(depolarizing(eps))
        ref = depolarizing_lift_state(eps)
        assert lift.dims == (2, 2, 4)
        assert np.array_equal(lift.amplitudes, ref.amplitudes)

    def test_identity_lift_is_unnormalized_max_entangled(self) -> None:
        lift = lift_max_entangled(identity_channel(3))
        assert lift.dims == (3, 3, 1)
        assert not lift.normalized
        expected = np.eye(3, dtype=complex).reshape(-1)
        assert np.array_equal(lift.amplitudes, expected)
        assert lift.norm_squared() == 3.0

    @pytest.mark.parametrize("seed,n,r", [(6, 2, 2), (7, 3, 3), (8, 4, 2)])
    def test_norm_squared_is_input_dimension(self, seed: int, n: int, r: int) -> None:
        lift = lift_max_entangled(random_square_channel(seed, n, r))
        assert lift.norm_squared() == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("seed,n,r", [(9, 2, 3), (10, 3, 2), (11, 4, 4)])
    def test_reduced_state_on_a_is_identity(self, seed: int, n: int, r: int) -> None:
        lift = lift_max_entangled(random_square_channel(seed, n, r))
        M = lift.tensor().reshape(n, -1)
        assert np.max(np.abs(M @ M.conj().T - np.eye(n))) <= 1e-10

    def test_prepared_with_identity_matches_plain_lift(self) -> None:
        ch = random_square_channel(12, 3, 2)
        plain = lift_max_entangled(ch)
        prepped = lift_prepared(ch, InputPreparation(np.eye(3, dtype=complex)))
        assert np.allclose(plain.amplitudes, prepped.amplitudes, atol=1e-15)

    def test_prepared_rejects_dimension_mismatch(self) -> None:
        with pytest.raises(ValueError, match="dimension"):
            lift_prepared(depolarizing(0.1), InputPreparation(np.eye(3, dtype=complex)))


class TestInputPreparation:
    def test_condition_number_and_invertibility(self) -> None:
        good = InputPreparation(crandn(rng(13), 3, 3))
        assert good.invertible()
        bad = InputPreparation(np.diag([1.0, 1e-8]).astype(complex))
        assert bad.condition_number() > 1e6
        assert not bad.invertible()
        singular = InputPreparation(np.diag([1.0, 0.0]).astype(complex))
        assert not singular.invertible()

    def test_rejects_non_square(self) -> None:
        with pytest.raises(ValueError, match="square"):
            InputPreparation(np.ones((2, 3)))

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            InputPreparation(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestChannelDegradabilityTest:
    def test_depolarizing_below_threshold_is_ruled_out(self) -> None:
        res = channel_degradability_test(depolarizing(0.1))
        assert res.label == "ruled_out_for_filtered_inputs"
        assert res.e_to_b.status == "RuledOut"
        assert res.e_to_b.filter_witness is not None
        assert res.e_to_b.filter_witness.violated

    def test_identity_channel_is_degradable(self) -> None:
        res = channel_degradability_test(identity_channel(2))
        assert res.label == "degradable_certified"
        assert res.b_to_e.status == "Feasible"
        assert res.b_to_e.certificate is not None
        assert res.e_to_b.status == "RuledOut"

    def test_self_complementary_channel_feasible_both_ways(self) -> None:
        res = channel_degradability_test(amplitude_damping(0.5))
        assert res.e_to_b.status == "Feasible"
        assert res.b_to_e.status == "Feasible"
        assert res.label == "anti_degradable_certified"

    def test_certificate_transfers_to_any_input_preparation(self) -> None:
        ch = amplitude_damping(0.5)
        cert = channel_degradability_test(ch).e_to_b.certificate
        gen = rng(14)
        preps = [
            np.diag([1.0, 0.0]).astype(complex),
            np.ones((2, 2), dtype=complex),
        ]
        preps += [crandn(gen, 2, 2) for _ in range(18)]
        for K in preps:
            lifted = lift_prepared(ch, InputPreparation(K))
            assert verify_channel(cert, extract_blocks(lifted)) <= 1e-7

    def test_ruling_out_extends_to_invertible_preparations(self) -> None:
        ch = depolarizing(0.1)
        gen = rng(15)
        config = SolveConfig(max_iter=3000)
        for _ in range(20):
            prep = InputPreparation(crandn(gen, 2, 2))
            assert prep.invertible()
            out = decide(lift_prepared(ch, prep), "EtoB", config)
            assert out.status != "Feasible"


class TestEpsilonScan:
    def test_fine_scan_brackets_quarter(self) -> None:
        res = epsilon_scan(0.05, 0.45, 0.01)
        assert len(res.rows) == 41
        assert res.bracket == (0.24, 0.25)
        assert res.threshold == pytest.approx(0.245)

    def test_coarse_scan_widens_bracket(self) -> None:
        res = epsilon_scan(0.0, 0.45, 0.1)
        assert res.bracket == (0.2, 0.3)
        assert res.threshold == pytest.approx(0.25)

    def test_rows_match_closed_forms(self) -> None:
        res = epsilon_scan(0.05, 0.45, 0.01)
        for row in res.rows:
            alpha, beta = np.sqrt(1 - row.epsilon), np.sqrt(row.epsilon / 3)
            assert row.d_R == pytest.approx(2 * beta * (alpha + beta), abs=1e-10)
            assert row.d_S == pytest.approx((alpha + beta) * (alpha - beta), abs=1e-10)
            assert row.qber == pytest.approx(2 * row.epsilon / 3, abs=1e-15)

    def test_verdicts_flip_once_at_threshold(self) -> None:
        res = epsilon_scan(0.05, 0.45, 0.01)
        verdicts = [row.verdict for row in res.rows]
        flip = verdicts.index("Passed")
        assert set(verdicts[:flip]) == {"RuledOut"}
        assert set(verdicts[flip:]) == {"Passed"}
        assert res.rows[flip].epsilon == 0.25

    def test_no_transition_gives_no_threshold(self) -> None:
        res = epsilon_scan(0.3, 0.45, 0.05)
        assert res.threshold is None
        assert res.bracket is None
        assert all(row.verdict == "Passed" for row in res.rows)

    def test_full_decide_grid(self) -> None:
        res = epsilon_scan(0.1, 0.45, 0.15, full_decide=True)
        verdicts = {row.epsilon: row.verdict for row in res.rows}
        assert verdicts[0.1] == "RuledOut"
        assert verdicts[0.4] == "Feasible"

    @pytest.mark.parametrize(
        "lo, hi, step, grid",
        [
            (0.1, 0.2, 0.06, [0.1, 0.16]),
            (0.7, 0.75, 0.03, [0.7, 0.73]),
            (0.2, 0.3, 0.05, [0.2, 0.25, 0.3]),
            (0.45, 0.75, 0.15000000001, [0.45, 0.60000000001, 0.75]),
        ],
    )
    def test_grid_stays_inside_the_range(self, lo, hi, step, grid) -> None:
        # A step that does not divide hi - lo stops short of hi instead of
        # passing it; a last point within rounding of hi is scanned at hi.
        assert [row.epsilon for row in epsilon_scan(lo, hi, step).rows] == grid

    @pytest.mark.parametrize("args", [(-0.1, 0.4, 0.1), (0.2, 0.1, 0.1), (0.0, 0.8, 0.1)])
    def test_rejects_bad_range(self, args: tuple[float, float, float]) -> None:
        with pytest.raises(ValueError, match="3/4"):
            epsilon_scan(*args)

    def test_rejects_bad_step(self) -> None:
        with pytest.raises(ValueError, match="step"):
            epsilon_scan(0.1, 0.4, 0.0)
