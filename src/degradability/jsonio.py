"""JSON and CSV serialization for states, channels and analysis results.

Complex numbers travel as [re, im] pairs, matrices row-major. The emitter
prints floats with 17 significant digits so every double round-trips exactly,
and walks containers in insertion order so identical inputs give identical
bytes.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import QuantumChannel, ScanResult
from .feasibility import FeasibilityOutcome, KrausSet
from .filters import FilterWitness
from .states import TripartiteState


class SchemaError(ValueError):
    """Input file is valid JSON but does not match the expected schema."""


def format_float(x: float) -> str:
    s = format(float(x), ".17g")
    return s


def dumps(obj: Any) -> str:
    """Deterministic JSON text: floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj}")
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str) -> Any:
    """Parse JSON, rephrasing syntax errors with line/column diagnostics."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _pair_to_complex(entry: Any, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in entry)
    ):
        raise SchemaError(f"field '{where}' must hold [re, im] number pairs, got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def complex_vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def pairs_to_complex_vector(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"field '{where}' must be a list of [re, im] pairs")
    return np.array([_pair_to_complex(e, where) for e in obj], dtype=complex)


def complex_matrix_to_pairs(M: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def pairs_to_complex_matrix(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"field '{where}' must be a non-empty list of matrix rows")
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise SchemaError(f"field '{where}' row {i} has {len(row)} entries, expected {width}")
        rows.append([_pair_to_complex(e, f"{where}[{i}]") for e in row])
    return np.array(rows, dtype=complex)


def _require(obj: Any, key: str, kind: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object for the {kind}, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{kind} is missing required field '{key}'")
    return obj[key]


def state_to_obj(state: TripartiteState) -> dict:
    return {
        "dims": list(state.dims),
        "amplitudes": complex_vector_to_pairs(state.amplitudes),
    }


def state_from_obj(obj: Any) -> TripartiteState:
    dims = _require(obj, "dims", "state")
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise SchemaError(f"field 'dims' must be three positive integers, got {dims!r}")
    amps = pairs_to_complex_vector(_require(obj, "amplitudes", "state"), "amplitudes")
    n, p, q = dims
    if amps.size != n * p * q:
        raise SchemaError(
            f"field 'amplitudes' has {amps.size} entries, dims {tuple(dims)} need {n * p * q}"
        )
    return TripartiteState((n, p, q), amps)


def kraus_to_obj(kraus: KrausSet) -> dict:
    return {
        "in_dim": kraus.in_dim,
        "out_dim": kraus.out_dim,
        "kraus": [complex_matrix_to_pairs(F) for F in kraus.operators],
    }


def kraus_from_obj(obj: Any) -> KrausSet:
    in_dim = _require(obj, "in_dim", "Kraus set")
    out_dim = _require(obj, "out_dim", "Kraus set")
    for key, val in (("in_dim", in_dim), ("out_dim", out_dim)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise SchemaError(f"field '{key}' must be a positive integer, got {val!r}")
    raw = _require(obj, "kraus", "Kraus set")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("field 'kraus' must be a non-empty list of matrices")
    ops = []
    for j, mat in enumerate(raw):
        F = pairs_to_complex_matrix(mat, f"kraus[{j}]")
        if F.shape != (out_dim, in_dim):
            raise SchemaError(
                f"field 'kraus[{j}]' has shape {F.shape}, expected ({out_dim}, {in_dim})"
            )
        ops.append(F)
    return KrausSet(ops)


def channel_to_obj(channel: QuantumChannel) -> dict:
    return kraus_to_obj(channel.kraus)


def channel_from_obj(obj: Any) -> QuantumChannel:
    return QuantumChannel(kraus_from_obj(obj))


def witness_to_obj(witness: FilterWitness) -> dict:
    return {
        "label": witness.label,
        "coefficients": complex_matrix_to_pairs(witness.coefficients),
        "d_in": float(witness.d_in),
        "d_out": float(witness.d_out),
        "violated": bool(witness.violated),
    }


def outcome_to_obj(outcome: FeasibilityOutcome) -> dict:
    return {
        "status": outcome.status,
        "stage": outcome.stage,
        "residual_affine": None if outcome.residual_affine is None else float(outcome.residual_affine),
        "residual_psd": None if outcome.residual_psd is None else float(outcome.residual_psd),
        "iterations": int(outcome.iterations),
        "detail": outcome.detail,
        "certificate": None if outcome.certificate is None else kraus_to_obj(outcome.certificate),
        "filter_witness": None
        if outcome.filter_witness is None
        else witness_to_obj(outcome.filter_witness),
    }


def scan_to_csv(result: ScanResult) -> str:
    """CSV body with header epsilon,d_R,d_S,verdict,qber and LF endings."""
    lines = ["epsilon,d_R,d_S,verdict,qber"]
    for row in result.rows:
        lines.append(
            "{},{},{},{},{}".format(
                format(row.epsilon, ".12g"),
                format(row.d_R, ".12g"),
                format(row.d_S, ".12g"),
                row.verdict,
                format(row.qber, ".12g"),
            )
        )
    return "\n".join(lines) + "\n"
