"""Tests for the trace-norm witness filters."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradability import filters, linalg, states

from helpers import (
    apply_kraus,
    both_directions,
    conjugate_twin_label,
    crandn,
    depolarizing_lift_state,
    pair_filter_oracle,
    random_kraus,
    random_product_state,
    random_state_vector,
    random_witness_coefficients_oracle,
    random_witness_filter_oracle,
    restrict_to_canonical_twins,
    rng,
    schur_yes_decomposition,
    state_from_decomposition,
)


def pair_norms_by_label(blocks: states.BlockFamily) -> dict:
    """The pair filter's (d_in, d_out) for every witness it evaluates, by label."""
    d_in, d_out = filters._pair_norms(blocks)
    labels = filters._pair_index(blocks.count).labels
    return dict(zip(labels, zip(d_in.tolist(), d_out.tolist())))


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
            assert filters.pair_filter(blocks).verdict == expected

    def test_depolarizing_witness_values_at_eps_01(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.1))
        assert filters.pair_filter(blocks).violated
        d_in, d_out = pair_norms_by_label(blocks)["pair (0,0) - (1,1)"]
        assert d_in == pytest.approx(0.4131, abs=5e-5)
        assert d_out == pytest.approx(0.8667, abs=5e-5)

    def test_ghz_passes_both_directions(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        for family in (blocks, blocks.swapped()):
            report = filters.pair_filter(family)
            assert report.verdict == "Passed"
            assert (report.violations, report.witness) == (0, None)
            assert report.evaluated == 7

    def test_example2_asymmetric_ruled_out_btoe_only(self):
        a, b = np.sqrt(0.35), np.sqrt(0.15)
        blocks = states.extract_blocks(states.build_fixture("example2", a=a, b=b))
        btoe = filters.pair_filter(blocks.swapped())
        assert btoe.verdict == "RuledOut"
        d_in, d_out = pair_norms_by_label(blocks.swapped())["pair (0,0) - (1,1)"]
        assert d_in == pytest.approx(2 * a * b)
        assert d_out == pytest.approx(a * a + b * b)
        assert filters.pair_filter(blocks).verdict == "Passed"

    def test_example2_symmetric_passes(self):
        blocks = states.extract_blocks(states.build_fixture("example2", a=0.5, b=0.5))
        for family in (blocks, blocks.swapped()):
            assert filters.pair_filter(family).verdict == "Passed"

    def test_sec4_caught_by_pair_filter(self):
        blocks = states.extract_blocks(
            states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))
        )
        etob = filters.pair_filter(blocks)
        assert etob.verdict == "RuledOut"
        assert etob.violations == 4
        assert filters.pair_filter(blocks.swapped()).verdict == "RuledOut"

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_witness_is_the_strongest_violator(self, eps):
        blocks = states.extract_blocks(depolarizing_lift_state(eps))
        report = filters.pair_filter(blocks)
        violators = [
            (y - x, label)
            for label, (x, y) in pair_norms_by_label(blocks).items()
            if x < y - filters.DEFAULT_SLACK_TOL
        ]
        assert report.violations == len(violators) > 1
        best = max(margin for margin, _ in violators)
        tied = [label for margin, label in violators if margin == best]
        assert report.witness.margin == best
        assert report.witness.label == min(tied)


class TestRandomWitnessFilter:
    def test_ghz_never_violates(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        for seed in (0, 1, 2):
            report = filters.random_witness_filter(blocks, 60, seed)
            assert report.verdict == "Passed"
            assert report.evaluated == 60

    def test_deterministic_given_seed(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.15))
        r1 = filters.random_witness_filter(blocks, 40, 11)
        r2 = filters.random_witness_filter(blocks, 40, 11)
        assert r1.violated and r1.violations == r2.violations
        assert (r1.witness.label, r1.witness.d_in) == (r2.witness.label, r2.witness.d_in)
        for x, y in zip(filters._random_witnesses(blocks, 40, 11),
                        filters._random_witnesses(blocks, 40, 11)):
            assert np.array_equal(x, y)

    def test_depolarizing_eps_02_caught(self):
        blocks = states.extract_blocks(depolarizing_lift_state(0.2))
        report = filters.random_witness_filter(blocks, 100, 0)
        assert report.verdict == "RuledOut"
        lam = np.diag([1.0, -1.0]).astype(complex)
        d_in = linalg.trace_norm(filters.combination(blocks.R, lam))
        d_out = linalg.trace_norm(filters.combination(blocks.S, lam))
        assert d_in < d_out - filters.DEFAULT_SLACK_TOL

    def test_sec4_caught_with_500_witnesses_seed_7(self):
        blocks = states.extract_blocks(
            states.build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))
        )
        report = filters.random_witness_filter(blocks, 500, 7)
        assert report.verdict == "RuledOut"
        assert report.violations == 23

    def test_rejects_zero_count(self):
        blocks = states.extract_blocks(states.build_fixture("ghz"))
        with pytest.raises(ValueError, match="count"):
            filters.random_witness_filter(blocks, 0, 0)

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


def assert_norms_match(batched: dict, loop: list) -> None:
    """Batched (d_in, d_out) by label against every witness of a loop oracle."""
    assert set(batched) == {w.label for w in loop}
    for w in loop:
        assert batched[w.label] == pytest.approx((w.d_in, w.d_out), rel=1e-12, abs=1e-15)


def assert_reports_strongest(report: filters.FilterReport, violators: list, evaluated: int) -> None:
    """The report counts the oracle's violators and carries the first of them."""
    assert report.evaluated == evaluated
    assert report.violations == len(violators)
    assert report.verdict == ("RuledOut" if violators else "Passed")
    if not violators:
        assert report.witness is None
        return
    w, head = report.witness, violators[0]
    assert w.label == head.label
    assert np.array_equal(w.coefficients, head.coefficients)
    assert w.d_in == pytest.approx(head.d_in, rel=1e-12, abs=1e-15)
    assert w.d_out == pytest.approx(head.d_out, rel=1e-12, abs=1e-15)


def violated(witnesses: list) -> list:
    """The oracle witnesses past the default slack of 1e-8, in their given order."""
    return [w for w in witnesses if w.d_in < w.d_out - 1e-8]


def assert_filters_match_loops(state: states.TripartiteState, seed: int) -> None:
    # A slack of -inf makes each loop return every witness, strongest first.
    blocks = states.extract_blocks(state.unit())
    n = blocks.count
    drawn = random_witness_coefficients_oracle(n, 60, seed)
    for direction, family in both_directions(blocks):
        every = restrict_to_canonical_twins(pair_filter_oracle(blocks, direction, -np.inf), n)
        assert_norms_match(pair_norms_by_label(family), every)
        assert_reports_strongest(filters.pair_filter(family), violated(every), len(every))

        every = random_witness_filter_oracle(blocks, direction, 60, seed, -np.inf)
        _, d_in, d_out = filters._random_witnesses(family, 60, seed)
        assert_norms_match(
            {label: (x, y) for (_, label), x, y in zip(drawn, d_in, d_out)}, every
        )
        assert_reports_strongest(
            filters.random_witness_filter(family, 60, seed), violated(every), 60
        )


class TestBatchedFiltersMatchLoops:
    """The batched filters against one-witness-at-a-time loops.

    Every witness's trace norms are compared, not only the violated ones. The
    pair filter evaluates one member of each conjugate twin pair, so it is
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
        assert filters.pair_filter(states.extract_blocks(state)).violated
        assert_filters_match_loops(state, 0)

    def test_schur_8_2_8(self):
        # E -> B holds here, while every B -> E pair witness is violated.
        state = state_from_decomposition(schur_yes_decomposition(rng(8), 8, 2, 8))
        blocks = states.extract_blocks(state.unit())
        assert not filters.pair_filter(blocks).violated
        assert filters.pair_filter(blocks.swapped()).violations == 2422
        assert_filters_match_loops(state, 0)

    def test_chunking_leaves_the_report_unchanged(self, monkeypatch):
        state = states.TripartiteState((4, 2, 3), random_state_vector(rng(6), 24))
        blocks = states.extract_blocks(state.unit())
        whole = filters._pair_norms(blocks)
        report = filters.pair_filter(blocks)
        monkeypatch.setattr(filters, "PAIR_CHUNK", 7)
        chunked = filters._pair_norms(blocks)
        assert len(whole[0]) > 7
        for x, y in zip(whole, chunked):
            assert np.array_equal(x, y)
        again = filters.pair_filter(blocks)
        assert (again.evaluated, again.violations) == (report.evaluated, report.violations)
        assert (again.witness.label, again.witness.d_in, again.witness.d_out) == (
            report.witness.label, report.witness.d_in, report.witness.d_out
        )

    @pytest.mark.parametrize(
        "state",
        [
            states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72)),
            states.TripartiteState((3, 2, 4), random_state_vector(rng(5), 24)),
            state_from_decomposition(schur_yes_decomposition(rng(8), 8, 2, 8)),
        ],
        ids=["generic-8-3-3", "generic-3-2-4", "schur-8-2-8"],
    )
    def test_dropped_twins_match_their_kept_twin(self, state):
        blocks = states.extract_blocks(state.unit())
        n = blocks.count
        for direction, family in both_directions(blocks):
            # A slack of -inf makes the loop return every pair witness.
            full = pair_filter_oracle(blocks, direction, -np.inf)
            kept = pair_norms_by_label(family)
            assert set(kept) == {w.label for w in restrict_to_canonical_twins(full, n)}
            dropped = [w for w in full if w.label not in kept]
            assert len(dropped) + len(kept) == len(full)
            for w in dropped:
                twin = kept[conjugate_twin_label(w.label, n)]
                assert twin == pytest.approx((w.d_in, w.d_out), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_coefficients_follow_the_draw_order(self, seed):
        state = states.TripartiteState((8, 3, 3), random_state_vector(rng(3), 72))
        blocks = states.extract_blocks(state)
        lam, _, _ = filters._random_witnesses(blocks, 200, seed)
        expected = random_witness_coefficients_oracle(blocks.count, 200, seed)
        assert len(lam) == len(expected) == 200
        for k, (coefficients, _) in enumerate(expected):
            assert np.array_equal(lam[k], coefficients)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_refutation_filter_matches_the_loop_on_its_two_witnesses(self, n, seed):
        gen = rng(seed)
        p, q = (int(d) for d in gen.integers(2, 4, size=2))
        x, _, _ = random_product_state(gen, n, p, q)
        blocks = states.extract_blocks(states.TripartiteState((n, p, q), x).unit())
        i, j = sorted(gen.choice(n, 2, replace=False).tolist())
        labels = {f"pair ({i},{i}) - ({j},{j})", f"pair ({i},{j}) - ({j},{i})"}
        for direction, family in both_directions(blocks):
            every = [w for w in pair_filter_oracle(blocks, direction, -np.inf) if w.label in labels]
            assert len(every) == 2
            for entry in ((i, j), (j, i)):
                assert_reports_strongest(
                    filters.refutation_filter(family, *entry), violated(every), 2
                )


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
