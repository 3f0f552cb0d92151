"""Spans around the package's public stage functions, recorded from outside.

``Tracer.install`` replaces each stage function at the module attribute that
``decide`` resolves it through, so no file of the package changes. Spans are
kept in memory; ``layer_metrics`` turns them into the per-layer metrics.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from degradability import feasibility, linalg, rank_one


def _filter_info(args, kwargs, result) -> dict:
    return {"witnesses": result.evaluated, "ruled_out": result.violated}


def _projection_info(args, kwargs, result) -> dict:
    start = kwargs["start"] if "start" in kwargs else args[2]
    return {"iterations": result.iterations, "converged": result.converged,
            "stalled": result.stalled, "dim": start.shape[0]}


# (module, attribute, span name, summary of the call). The span name carries
# the layer: the package module that defines the function.
STAGES = (
    (feasibility, "extract_blocks", "states.extract_blocks", None),
    (feasibility, "pair_filter", "filters.pair_filter", _filter_info),
    (feasibility, "random_witness_filter", "filters.random_witness_filter", _filter_info),
    (feasibility, "build_constraints", "feasibility.build_constraints",
     lambda a, k, r: {"raw_rows": r.raw_rows}),
    (feasibility, "solve_feasibility", "feasibility.solve_feasibility", None),
    (feasibility, "extract_kraus", "feasibility.extract_kraus", None),
    (feasibility, "verify_channel", "feasibility.verify_channel", None),
    (rank_one, "detect_rank_one", "rank_one.detect_rank_one",
     lambda a, k, r: {"found": r is not None}),
    (rank_one, "check_condition_e", "rank_one.check_condition_e", None),
    (rank_one, "kraus_from_correlation", "rank_one.kraus_from_correlation", None),
    (linalg, "alternating_projections", "linalg.alternating_projections", _projection_info),
    (linalg, "complete_psd", "linalg.complete_psd",
     lambda a, k, r: {"iterations": r.iterations}),
    (linalg, "reduce_rows", "linalg.reduce_rows", None),
)
LAYERS = ("filters", "rank_one", "feasibility", "linalg", "states")
ROOT = "decide"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Single-threaded span recorder; spans nest through a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def _wrap(self, fn, name: str, summarize):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if summarize is not None:
                self.spans[index].info = summarize(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, summarize in STAGES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, summarize))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name


def layer_metrics(tracer: Tracer, stages: list[str], choi_sizes: tuple[int, ...]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans, plus each layer's share of decide time.

    ``stages`` holds the stage of every decide() outcome in the traced run.
    Means are per call; counts are totals over the traced corpus.
    """
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list[Span]:
        return by_name.get(name, [])

    def mean_ms(name: str) -> float:
        s = spans(name)
        return 1e3 * sum(x.self_time for x in s) / len(s) if s else 0.0

    def total(name: str, key: str) -> float:
        return float(sum(x.info[key] for x in spans(name)))

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    pair, rand = spans("filters.pair_filter"), spans("filters.random_witness_filter")
    witnesses = total("filters.pair_filter", "witnesses") + total(
        "filters.random_witness_filter", "witnesses")
    filter_us = 1e6 * sum(x.self_time for x in pair + rand)
    sdp_runs = [s for s in spans("linalg.alternating_projections")
                if tracer.parent_name(s) == "feasibility.solve_feasibility"]
    rank_one_found = total("rank_one.detect_rank_one", "found")

    m = {
        "filters.pair_filter.ms": mean_ms("filters.pair_filter"),
        "filters.pair_filter.witnesses": total("filters.pair_filter", "witnesses"),
        "filters.pair_filter.ruled_out_frac": frac(
            total("filters.pair_filter", "ruled_out"), len(pair)),
        "filters.random_witness_filter.ms": mean_ms("filters.random_witness_filter"),
        "filters.random_witness_filter.witnesses": total(
            "filters.random_witness_filter", "witnesses"),
        "filters.random_witness_filter.ruled_out_frac": frac(
            total("filters.random_witness_filter", "ruled_out"), len(rand)),
        "filters.us_per_witness": frac(filter_us, witnesses),
        "rank_one.detect_rank_one.ms": mean_ms("rank_one.detect_rank_one"),
        "rank_one.check_condition_e.ms": mean_ms("rank_one.check_condition_e"),
        "rank_one.check_condition_e.calls": float(len(spans("rank_one.check_condition_e"))),
        "rank_one.kraus_from_correlation.ms": mean_ms("rank_one.kraus_from_correlation"),
        "rank_one.resolved_frac": frac(stages.count("rank_one"), rank_one_found),
        "feasibility.build_constraints.ms": mean_ms("feasibility.build_constraints"),
        "feasibility.build_constraints.raw_rows": total(
            "feasibility.build_constraints", "raw_rows"),
        "feasibility.solve_feasibility.self_ms": mean_ms("feasibility.solve_feasibility"),
        "feasibility.solve_feasibility.calls": float(
            len(spans("feasibility.solve_feasibility"))),
        "feasibility.extract_kraus.ms": mean_ms("feasibility.extract_kraus"),
        "feasibility.verify_channel.ms": mean_ms("feasibility.verify_channel"),
        "feasibility.converged_frac": frac(
            sum(s.info["converged"] for s in sdp_runs), len(sdp_runs)),
        "feasibility.stalled": float(sum(s.info["stalled"] for s in sdp_runs)),
        "feasibility.budget_exhausted": float(sum(
            not s.info["converged"] and not s.info["stalled"] for s in sdp_runs)),
        "linalg.alternating_projections.ms": mean_ms("linalg.alternating_projections"),
        "linalg.alternating_projections.iterations": total(
            "linalg.alternating_projections", "iterations"),
    }
    unlisted = {s.info["dim"] for s in sdp_runs} - set(choi_sizes)
    if unlisted:
        raise ValueError(f"SDP ran at Choi sizes {sorted(unlisted)} with no metric")
    for d in choi_sizes:
        runs = [s for s in sdp_runs if s.info["dim"] == d]
        m[f"linalg.us_per_iter.choi{d}"] = frac(
            1e6 * sum(s.self_time for s in runs), sum(s.info["iterations"] for s in runs))
    m["linalg.reduce_rows.ms"] = mean_ms("linalg.reduce_rows")
    m["linalg.complete_psd.iterations"] = total("linalg.complete_psd", "iterations")
    m["states.extract_blocks.ms"] = mean_ms("states.extract_blocks")
    m["states.extract_blocks.calls"] = float(len(spans("states.extract_blocks")))

    roots = spans(ROOT)
    decide_time = sum(s.duration for s in roots)
    layer_time = {layer: 0.0 for layer in LAYERS + ("other",)}
    for span in tracer.spans:
        layer = "other" if span.name == ROOT else span.name.split(".", 1)[0]
        layer_time[layer] += span.self_time
    for layer in LAYERS:
        m[f"layer.{layer}.ms_per_decision"] = frac(1e3 * layer_time[layer], len(roots))
    shares = {layer: frac(t, decide_time) for layer, t in layer_time.items()}
    return m, shares
