"""Tests for the trace-norm witness filters."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import filters, linalg, states

from helpers import (
    apply_kraus,
    conjugate_twin_label,
    crandn,
    depolarizing_lift_state,
    pair_filter_oracle,
    random_kraus,
    random_state_vector,
    random_witness_coefficients_oracle,
    random_witness_filter_oracle,
    restrict_to_canonical_twins,
    rng,
    schur_yes_decomposition,
    state_from_decomposition,
)


class TestPairFilter:
    def test_depolarizing_closed_forms(self):
        for eps in np.arange(0.05, 0.46, 0.05):
            a, b = np.sqrt(1 - eps), np.sqrt(eps / 3)
            blocks = states.extract_blocks(depolarizing_lift_state(eps))
            lam = np.diag([1.0, -1.0]).astype(complex)
            d_R = linalg.trace_norm(filters.combination(blocks.R, lam)) / 2
            d_S = linalg.trace_norm(filters.combination(blocks.S, lam)) / 2
            assert d_R == pytest.approx(2 * b * (a + b), abs=1e-10)
            assert d_S == pytest.approx((a + b) * (a - b), abs=1e-10)

    def test_depolarizing_verdict_flips_at_quarter(self):
        for eps, expected in [(0.1, "RuledOut"), (0.24, "RuledOut"),
                              (0.25, "Passed"), (0.3, "Passed")]:
            blocks = states.extract_blocks(depolarizing_lift_state(eps))
            assert filters.pair_filter(blocks, "EtoB").verdict == expected

    def test_depolarizing_witness_values_at_eps_01(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.1))
        report = filters.pair_filter(blocks, "EtoB")
        assert report.violated
        match = [w for w in report.witnesses if w.label == "pair (0,0) - (1,1)"]
        assert len(match) == 1
        assert match[0].d_in == pytest.approx(0.4131, abs=5e-5)
        assert match[0].d_out == pytest.approx(0.8667, abs=5e-5)

    def test_ghz_passes_both_directions(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        for direction in filters.DIRECTIONS:
            report = filters.pair_filter(blocks, direction)
            assert report.verdict == "Passed"
            assert report.witnesses == []
            assert report.evaluated == 7

    def test_example2_asymmetric_ruled_out_btoe_only(self):
        a, b = np.sqrt(0.35), np.sqrt(0.15)
        blocks = states.extract_blocks(states.build_fixture("example2", a=a, b=b))
        btoe = filters.pair_filter(blocks, "BtoE")
        assert btoe.verdict == "RuledOut"
        diag = [w for w in btoe.witnesses if w.label == "pair (0,0) - (1,1)"]
        assert len(diag) == 1
        assert diag[0].d_in == pytest.approx(2 * a * b)
        assert diag[0].d_out == pytest.approx(a * a + b * b)
        assert filters.pair_filter(blocks, "EtoB").verdict == "Passed"

    def test_example2_symmetric_passes(self):
        blocks = states.extract_blocks(states.build_fixture("example2", a=0.5, b=0.5))
        for direction in filters.DIRECTIONS:
            assert filters.pair_filter(blocks, direction).verdict == "Passed"

    def test_sec4_caught_by_pair_filter(self):
        blocks = states.extract_blocks(
            states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))
        )
        etob = filters.pair_filter(blocks, "EtoB")
        assert etob.verdict == "RuledOut"
        assert len(etob.witnesses) == 4
        assert filters.pair_filter(blocks, "BtoE").verdict == "RuledOut"

    def test_violations_sorted_by_margin(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.1))
        report = filters.pair_filter(blocks, "EtoB")
        margins = [w.margin for w in report.witnesses]
        assert margins == sorted(margins, reverse=True)

    def test_rejects_bad_direction(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        with pytest.raises(ValueError, match="direction"):
            filters.pair_filter(blocks, "EtoE")


class TestRandomWitnessFilter:
    def test_ghz_never_violates(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        for seed in (0, 1, 2):
            report = filters.random_witness_filter(blocks, "EtoB", 60, seed)
            assert report.verdict == "Passed"
            assert report.evaluated == 60

    def test_deterministic_given_seed(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.15))
        r1 = filters.random_witness_filter(blocks, "EtoB", 40, 11)
        r2 = filters.random_witness_filter(blocks, "EtoB", 40, 11)
        assert [w.label for w in r1.witnesses] == [w.label for w in r2.witnesses]
        assert [w.d_in for w in r1.witnesses] == [w.d_in for w in r2.witnesses]

    def test_depolarizing_eps_02_caught(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.2))
        report = filters.random_witness_filter(blocks, "EtoB", 100, 0)
        assert report.verdict == "RuledOut"
        lam = np.diag([1.0, -1.0]).astype(complex)
        d_in = linalg.trace_norm(filters.combination(blocks.R, lam))
        d_out = linalg.trace_norm(filters.combination(blocks.S, lam))
        assert d_in < d_out - filters.DEFAULT_SLACK_TOL

    def test_sec4_caught_with_500_witnesses_seed_7(self):
        blocks = states.extract_blocks(
            states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))
        )
        report = filters.random_witness_filter(blocks, "EtoB", 500, 7)
        assert report.verdict == "RuledOut"
        assert len(report.witnesses) == 23

    def test_rejects_zero_count(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        with pytest.raises(ValueError, match="count"):
            filters.random_witness_filter(blocks, "EtoB", 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rank_one_coefficients_are_always_vacuous(self, seed):
        gen = rng(seed)
        n, p, q = (int(gen.integers(1, 4)) for _ in range(3))
        x = random_state_vector(gen, n * p * q)
        blocks = states.extract_blocks(
            states.TripartiteState((n, p, q), x, normalized=True)
        )
        c = crandn(gen, n)
        lam = np.outer(c, c.conj())
        d_R = linalg.trace_norm(filters.combination(blocks.R, lam))
        d_S = linalg.trace_norm(filters.combination(blocks.S, lam))
        assert d_R == pytest.approx(d_S, abs=1e-9)


def assert_same_report(batched: filters.FilterReport, loop: filters.FilterReport) -> None:
    assert batched.direction == loop.direction
    assert batched.verdict == loop.verdict
    assert batched.evaluated == loop.evaluated
    assert [w.label for w in batched.witnesses] == [w.label for w in loop.witnesses]
    for b, w in zip(batched.witnesses, loop.witnesses):
        assert np.array_equal(b.coefficients, w.coefficients)
        assert b.d_in == pytest.approx(w.d_in, rel=1e-12, abs=1e-15)
        assert b.d_out == pytest.approx(w.d_out, rel=1e-12, abs=1e-15)


def assert_filters_match_loops(state: states.TripartiteState, seed: int) -> None:
    blocks = states.extract_blocks(state.unit())
    for direction in filters.DIRECTIONS:
        assert_same_report(
            filters.pair_filter(blocks, direction),
            restrict_to_canonical_twins(pair_filter_oracle(blocks, direction), blocks.count),
        )
        assert_same_report(
            filters.random_witness_filter(blocks, direction, 60, seed),
            random_witness_filter_oracle(blocks, direction, 60, seed),
        )


class TestBatchedFiltersMatchLoops:
    """The batched filters against one-witness-at-a-time loops.

    The pair filter evaluates one member of each conjugate twin pair, so it is
    compared with the full loop restricted to those members.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_generic_states(self, n, p, q, seed):
        gen = rng(seed)
        state = states.TripartiteState((n, p, q), random_state_vector(gen, n * p * q))
        assert_filters_match_loops(state, seed % 1000)

    def test_generic_8_3_3(self):
        state = states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72))
        assert filters.pair_filter(states.extract_blocks(state), "EtoB").violated
        assert_filters_match_loops(state, 0)

    def test_schur_8_2_8(self):
        # E -> B holds here, while every B -> E pair witness is violated.
        state = state_from_decomposition(schur_yes_decomposition(rng(8), 8, 2, 8))
        blocks = states.extract_blocks(state.unit())
        assert not filters.pair_filter(blocks, "EtoB").violated
        assert len(filters.pair_filter(blocks, "BtoE").witnesses) == 2422
        assert_filters_match_loops(state, 0)

    def test_chunking_leaves_the_report_unchanged(self, monkeypatch):
        state = states.TripartiteState((4, 2, 3), random_state_vector(rng(6), 24))
        blocks = states.extract_blocks(state.unit())
        monkeypatch.setattr(filters, "DEFAULT_SLACK_TOL", -np.inf)
        whole = filters.pair_filter(blocks, "EtoB")
        monkeypatch.setattr(filters, "PAIR_CHUNK", 7)
        chunked = filters.pair_filter(blocks, "EtoB")
        assert whole.evaluated == chunked.evaluated > 7
        assert [(w.label, w.d_in, w.d_out) for w in chunked.witnesses] == [
            (w.label, w.d_in, w.d_out) for w in whole.witnesses
        ]

    @pytest.mark.parametrize(
        "state",
        [
            states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72)),
            states.TripartiteState((3, 2, 4), random_state_vector(rng(5), 24)),
            state_from_decomposition(schur_yes_decomposition(rng(8), 8, 2, 8)),
        ],
        ids=["generic-8-3-3", "generic-3-2-4", "schur-8-2-8"],
    )
    def test_dropped_twins_match_their_kept_twin(self, state, monkeypatch):
        # A slack of -inf reports every pair witness of the full loop.
        monkeypatch.setattr(filters, "DEFAULT_SLACK_TOL", -np.inf)
        blocks = states.extract_blocks(state.unit())
        n = blocks.count
        for direction in filters.DIRECTIONS:
            full = pair_filter_oracle(blocks, direction, -np.inf)
            by_label = {w.label: w for w in full.witnesses}
            kept = {w.label for w in filters.pair_filter(blocks, direction).witnesses}
            assert kept == {w.label for w in restrict_to_canonical_twins(full, n).witnesses}
            dropped = [w for w in full.witnesses if w.label not in kept]
            assert len(dropped) + len(kept) == len(full.witnesses)
            for w in dropped:
                twin = by_label[conjugate_twin_label(w.label, n)]
                assert twin.label in kept
                assert w.d_in == pytest.approx(twin.d_in, rel=1e-12)
                assert w.d_out == pytest.approx(twin.d_out, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_coefficients_follow_the_draw_order(self, seed, monkeypatch):
        # A slack of -inf reports every witness, so each drawn λ is visible.
        monkeypatch.setattr(filters, "DEFAULT_SLACK_TOL", -np.inf)
        state = states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72))
        blocks = states.extract_blocks(state)
        report = filters.random_witness_filter(blocks, "EtoB", 200, seed)
        drawn = {w.label: w.coefficients for w in report.witnesses}
        expected = random_witness_coefficients_oracle(blocks.count, 200, seed)
        assert len(drawn) == len(expected) == 200
        for lam, label in expected:
            assert np.array_equal(drawn[label], lam)


class TestWitnessProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scale_covariance(self, seed):
        gen = rng(seed)
        x = random_state_vector(gen, 12)
        base = states.TripartiteState((3, 2, 2), x, normalized=True)
        scaled = base.scaled(1.7)
        lam = crandn(gen, 3, 3)
        lam = lam + lam.conj().T
        for fam in ("R", "S"):
            b0 = states.extract_blocks(base)
            b1 = states.extract_blocks(scaled)
            mats0 = b0.R if fam == "R" else b0.S
            mats1 = b1.R if fam == "R" else b1.S
            d0 = linalg.trace_norm(filters.combination(mats0, lam))
            d1 = linalg.trace_norm(filters.combination(mats1, lam))
            assert d1 == pytest.approx(1.7**2 * d0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_conjugate_pair_witnesses_have_equal_norms(self, seed):
        gen = rng(seed)
        x = random_state_vector(gen, 18)
        blocks = states.extract_blocks(
            states.TripartiteState((3, 3, 2), x, normalized=True)
        )
        i, j = gen.integers(0, 3), gen.integers(0, 3)
        lam = np.zeros((3, 3), dtype=complex)
        lam[i, j] = 1.0
        d_ij = linalg.trace_norm(filters.combination(blocks.R, lam))
        d_ji = linalg.trace_norm(filters.combination(blocks.R, lam.conj().T))
        assert d_ij == pytest.approx(d_ji, abs=1e-10)


class TestContractivity:
    def test_identity_channel(self):
        gen = rng(4)
        sigma = crandn(gen, 3, 3)
        before, after = filters.contractivity_check([np.eye(3, dtype=complex)], sigma)
        assert before == pytest.approx(after)

    def test_example2_channel_on_cross_term(self):
        a, b = np.sqrt(0.35), np.sqrt(0.15)
        F1 = np.array([[a, a], [b, -b]]) / np.sqrt(2 * (a * a + b * b))
        F2 = np.array([[a, -a], [b, b]]) / np.sqrt(2 * (a * a + b * b))
        blocks = states.extract_blocks(states.build_fixture("example2", a=a, b=b))
        sigma = blocks.R[0] @ linalg.dagger(blocks.R[1])
        before, after = filters.contractivity_check([F1, F2], sigma)
        assert after <= before + 1e-9

    def test_random_channels_never_expand(self):
        gen = rng(12)
        for _ in range(50):
            d_in = int(gen.integers(2, 5))
            d_out = int(gen.integers(2, 5))
            r = int(gen.integers(1, 4)) + -(-d_in // d_out)
            kraus = random_kraus(gen, d_out, d_in, r)
            sigma = crandn(gen, d_in, d_in)
            before, after = filters.contractivity_check(kraus, sigma)
            assert after <= before + 1e-9

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError, match="not trace-preserving"):
            filters.contractivity_check([0.5 * np.eye(2)], np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="sigma must be"):
            filters.contractivity_check([np.eye(2, dtype=complex)], np.eye(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            filters.contractivity_check([], np.eye(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_block_embedding_bound(self, seed):
        gen = rng(seed)
        d_in = int(gen.integers(2, 4))
        d_out = int(gen.integers(2, 4))
        r = int(gen.integers(1, 4)) + -(-d_in // d_out)
        kraus = random_kraus(gen, d_out, d_in, r)
        sigma = crandn(gen, d_in, d_in)
        out = apply_kraus(kraus, sigma)
        lhs = linalg.trace_norm(np.kron(np.eye(r), out))
        pad = np.zeros((d_in + r * d_out, d_in + r * d_out), dtype=complex)
        pad[:d_in, :d_in] = sigma
        rhs = r * linalg.trace_norm(pad)
        assert lhs <= rhs + 1e-9
