"""Degradability analysis for tripartite pure states and quantum channels."""
from __future__ import annotations

from .channels import (
    ChannelAssessment,
    InputPreparation,
    QuantumChannel,
    ScanResult,
    ScanRow,
    channel_degradability_test,
    depolarizing,
    epsilon_scan,
    lift_max_entangled,
    lift_prepared,
)
from .feasibility import (
    AffineSystem,
    FeasibilityOutcome,
    KrausSet,
    SolveConfig,
    build_constraints,
    choi_from_kraus,
    decide,
    extract_kraus,
    solve_feasibility,
    verify_channel,
)
from .filters import (
    FilterReport,
    FilterWitness,
    contractivity_check,
    pair_filter,
    random_witness_filter,
)
from .rank_one import (
    CorrelationCertificate,
    RankOneDecomposition,
    RankOneRefutation,
    check_condition_e,
    detect_rank_one,
    kraus_from_correlation,
)
from .states import (
    BlockFamily,
    TripartiteState,
    build_fixture,
    extract_blocks,
    reduced_densities,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSystem",
    "BlockFamily",
    "ChannelAssessment",
    "CorrelationCertificate",
    "FeasibilityOutcome",
    "FilterReport",
    "FilterWitness",
    "InputPreparation",
    "KrausSet",
    "QuantumChannel",
    "RankOneDecomposition",
    "RankOneRefutation",
    "ScanResult",
    "ScanRow",
    "SolveConfig",
    "TripartiteState",
    "build_constraints",
    "build_fixture",
    "channel_degradability_test",
    "check_condition_e",
    "choi_from_kraus",
    "contractivity_check",
    "decide",
    "depolarizing",
    "detect_rank_one",
    "epsilon_scan",
    "extract_blocks",
    "extract_kraus",
    "kraus_from_correlation",
    "lift_max_entangled",
    "lift_prepared",
    "pair_filter",
    "random_witness_filter",
    "reduced_densities",
    "solve_feasibility",
    "verify_channel",
]
