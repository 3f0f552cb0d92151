"""Tests of the benchmark's generators and independent checker.

    python3 -m pytest bench
"""
from __future__ import annotations

import numpy as np
import pytest

import corpus
from check import check_outcome, map_residual
from degradability import (
    FeasibilityOutcome,
    FilterWitness,
    KrausSet,
    QuantumChannel,
    TripartiteState,
    check_condition_e,
    detect_rank_one,
    extract_blocks,
    lift_max_entangled,
)

SEEDS = (0, 1, 7)


def fingerprint(batch: list[corpus.Case]) -> list[tuple]:
    return [(c.label, c.kind, c.dims, c.direction, sorted(c.oracle.items()),
             c.array.tobytes()) for c in batch]


@pytest.mark.parametrize("workload", sorted(corpus.ROUNDS))
def test_same_seed_gives_byte_identical_inputs(workload: str) -> None:
    for seed in SEEDS:
        first = [fingerprint(b) for b in corpus.rounds(workload, seed, 3)]
        again = [fingerprint(b) for b in corpus.rounds(workload, seed, 3)]
        assert first == again
    other = [fingerprint(b) for b in corpus.rounds(workload, SEEDS[0] + 100, 3)]
    assert other != [fingerprint(b) for b in corpus.rounds(workload, SEEDS[0], 3)]


def planted_states() -> list[corpus.Case]:
    return [c for seed in SEEDS for b in corpus.rounds("planted", seed, 2)
            for c in b if c.truth is not None]


def test_planted_ground_truth_passes_independent_checker() -> None:
    cases = planted_states()
    assert {c.dims[1] * c.dims[2] for c in cases} == {4, 8, 9, 12, 16, 18}
    for case in cases:
        residual, defect = map_residual(list(case.truth), case.amplitudes(), "EtoB")
        assert residual <= 1e-12 and defect <= 1e-12, case.label


def test_schur_states_are_rank_one_with_condition_e_yes() -> None:
    cases = [c for seed in SEEDS for b in corpus.rounds("wide", seed, 2)
             for c in b if c.label.startswith("schur")]
    assert {c.dims[0] for c in cases} == set(corpus.WIDE_SLICES)
    for case in cases:
        state = TripartiteState(case.dims, case.array).unit()
        dec = detect_rank_one(extract_blocks(state))
        assert dec is not None, case.label
        verdict, _, reason = check_condition_e(dec)
        assert verdict == "Yes", f"{case.label}: {reason}"


def test_channel_lift_matches_package_lift() -> None:
    for case in corpus.channel_cases():
        lift = lift_max_entangled(QuantumChannel(KrausSet(list(case.array))))
        assert np.array_equal(lift.tensor(), case.amplitudes()), case.label


def test_checker_rejects_bad_certificate_and_oracle_contradiction() -> None:
    case = planted_states()[0]
    tensor = case.amplitudes()
    good = FeasibilityOutcome(status="Feasible", stage="sdp",
                              certificate=KrausSet(list(case.truth)))
    assert check_outcome(good, tensor, "EtoB", "yes") == []
    bent = KrausSet([F * 1.01 for F in case.truth])
    bad = FeasibilityOutcome(status="Feasible", stage="sdp", certificate=bent)
    assert any("certificate" in p for p in check_outcome(bad, tensor, "EtoB", "yes"))
    n = case.dims[0]
    lam = np.zeros((n, n), dtype=complex)
    lam[0, 0], lam[1, 1] = 1.0, -1.0
    witness = FilterWitness(coefficients=lam, d_in=0.0, d_out=1.0, violated=True)
    ruled = FeasibilityOutcome(status="RuledOut", stage="filter", filter_witness=witness)
    problems = check_outcome(ruled, tensor, "EtoB", "yes")
    assert any("oracle" in p for p in problems)
    assert any("witness fails" in p for p in problems)
