"""Known-answer benchmark for decide(): one closed-loop caller on seeded corpora.

    python3 bench/run.py --workload planted --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from ``src``.
``--trace 0`` times the public entry points (``decide`` for state cases,
``channel_degradability_test`` for channel cases, one call = one decision)
until ``--seconds`` of calls have run, re-checks every verdict independently
and prints the end-to-end metrics. ``--trace 1`` runs a fixed number of rounds
untraced, then the same rounds with spans around the package's stage
functions, and prints the per-layer metrics and the tracing overhead. The last
line of standard output is the JSON result.
"""
from __future__ import annotations

import os
import sys

# One caller, one BLAS thread: set before numpy is imported anywhere.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Every decide() call in the benchmark uses the package defaults except the
# SDP iteration budget: at the default 20 000 one budget-exhausted decision
# takes 4-10 s, so a run would hold only a handful of them and its figures
# would swing with the seed.
MAX_ITER = 1000
SETUP_LAUNCHES = 7
TRACE_ROUNDS = {"planted": 4, "survey": 12, "wide": 6}
# The traced run must hit these spans, or a refactor has bypassed the wrappers.
REQUIRED_SPANS = {
    "planted": ("linalg.alternating_projections",),
    "survey": ("filters.pair_filter",),
    "wide": ("filters.pair_filter", "rank_one.check_condition_e"),
}
CHOI_SIZES = (4, 6, 8, 9, 12, 16, 18)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import degradability from this checkout's src, never from elsewhere."""
    if not (SRC / "degradability" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import degradability

    if Path(degradability.__file__).resolve().parent != SRC / "degradability":
        fail(f"imported degradability from {degradability.__file__}, not {SRC}")
    return degradability


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports degradability.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import degradability.cli"]
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if launch:  # the first launch writes the bytecode cache
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


class Runner:
    """Calls the entry points and re-checks each verdict outside the timer."""

    def __init__(self, pkg) -> None:
        from check import check_outcome

        self.pkg = pkg
        self.config = pkg.SolveConfig(max_iter=MAX_ITER)
        self.check_outcome = check_outcome

    def prepare(self, case):
        pkg = self.pkg
        if case.kind == "state":
            return pkg.TripartiteState(case.dims, case.array)
        return pkg.QuantumChannel(pkg.KrausSet(list(case.array)))

    def call(self, case, prepared):
        if case.kind == "state":
            return self.pkg.decide(prepared, case.direction, self.config)
        return self.pkg.channel_degradability_test(prepared, self.config)

    def run(self, case, tracer=None) -> dict:
        """One timed decision with its verdict, stages and re-check problems."""
        prepared = self.prepare(case)
        root = tracer.open("decide") if tracer else None
        error = None
        started = time.perf_counter()
        try:
            result = self.call(case, prepared)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - started
        if tracer:
            tracer.close(root)
        if error:
            return {"seconds": elapsed, "verdict": "raised", "stages": [],
                    "problems": [f"{case.label}: {error}"], "inconclusive": False}
        if case.kind == "state":
            outcomes = {case.direction: result}
            verdict = result.status
        else:
            outcomes = {"EtoB": result.e_to_b, "BtoE": result.b_to_e}
            verdict = result.label
        tensor = case.amplitudes()
        problems = [
            f"{case.label} {d}: {p}"
            for d, outcome in outcomes.items()
            for p in self.check_outcome(outcome, tensor, d, case.oracle.get(d))
        ]
        return {"seconds": elapsed, "verdict": verdict,
                "stages": [o.stage for o in outcomes.values()], "problems": problems,
                "inconclusive": verdict in ("Inconclusive", "inconclusive")}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, and its value."""
    import numpy

    pct = next((p for p in TAIL_LADDER if len(latencies) * (1 - p / 100) >= 10), 50.0)
    return pct, float(numpy.percentile(latencies, pct))


def summarize(results: list[dict]) -> tuple[int, int, int]:
    failed = [r for r in results if r["problems"]]
    for r in failed:
        for p in r["problems"]:
            print(f"# FAILED {p}", file=sys.stderr)
    return len(results), len(failed), sum(r["inconclusive"] for r in results)


def line(name: str, value: float, unit: str, better: str, note: str = "") -> None:
    print(f"{name:<48} {value:>14.6g} {unit:<8} better={better}{'  ' + note if note else ''}")


def run_timed(pkg, workload: str, seed: int, seconds: float) -> dict:
    from corpus import rounds

    setup_s = measure_setup()
    runner = Runner(pkg)
    results = []
    busy = 0.0
    # Whole rounds only: each round holds the workload's full mix, so stopping
    # inside one would skew the mix by where the clock ran out.
    for batch in rounds(workload, seed):
        for case in batch:
            results.append(runner.run(case))
            busy += results[-1]["seconds"]
        if busy >= seconds:
            break
    attempted, failed, inconclusive = summarize(results)
    latencies = [r["seconds"] for r in results]
    pct, tail_s = tail(latencies)
    beyond = sum(x > tail_s for x in latencies)

    print(f"# workload {workload}: {attempted} decisions in {busy:.3f} s of calls, "
          f"closed loop, 1 caller, SolveConfig(max_iter={MAX_ITER})")
    line("inconclusive_frac", inconclusive / attempted, "fraction", "lower",
         f"{inconclusive}/{attempted}")
    line("error_frac", failed / attempted, "fraction", "lower", f"{failed}/{attempted}")
    metrics = {
        "setup_s": setup_s,
        "decisions_per_s": attempted / busy,
        "decide_p50_ms": 1e3 * statistics.median(latencies),
        "decide_tail_ms": 1e3 * tail_s,
        "conclusive_frac": 1 - inconclusive / attempted,
        "correct_frac": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} launches",
        "decide_tail_ms": f"p{pct:g} of {attempted} samples, {beyond} beyond",
        "conclusive_frac": "1 - inconclusive_frac",
        "correct_frac": "1 - error_frac",
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def run_traced(pkg, workload: str, seed: int) -> dict:
    from corpus import rounds
    from spans import Tracer, layer_metrics

    runner = Runner(pkg)
    corpus = [case for batch in rounds(workload, seed, TRACE_ROUNDS[workload])
              for case in batch]
    tracer = Tracer()

    def run_traced_once(case) -> dict:
        tracer.install()
        try:
            return runner.run(case, tracer)
        finally:
            tracer.uninstall()

    # Each case runs untraced and traced back to back; the order alternates so
    # that a warm second call does not bias the overhead either way.
    plain, traced = [], []
    for i, case in enumerate(corpus):
        if i % 2:
            traced.append(run_traced_once(case))
            plain.append(runner.run(case))
        else:
            plain.append(runner.run(case))
            traced.append(run_traced_once(case))

    mismatched = [c.label for c, a, b in zip(corpus, plain, traced)
                  if (a["verdict"], a["stages"]) != (b["verdict"], b["stages"])]
    if mismatched:
        fail(f"traced verdicts differ from untraced ones on {mismatched}")
    recorded = {s.name for s in tracer.spans}
    missing = [name for name in REQUIRED_SPANS[workload] if name not in recorded]
    if missing:
        fail(f"traced run on {workload} recorded no {missing} span")

    attempted, failed, _ = summarize(plain)
    stages = [s for r in traced for s in r["stages"]]
    m, shares = layer_metrics(tracer, stages, CHOI_SIZES)
    plain_ms = 1e3 * sum(r["seconds"] for r in plain)
    traced_ms = 1e3 * sum(r["seconds"] for r in traced)
    m["trace.overhead_ms"] = traced_ms - plain_ms

    print(f"# workload {workload}: traced {attempted} decisions "
          f"({TRACE_ROUNDS[workload]} rounds); untraced {plain_ms:.1f} ms, "
          f"traced {traced_ms:.1f} ms")
    print("# layer shares of traced decide time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()))
    return {"attempted": attempted, "failed": failed, "metrics": m, "notes": {}}


def declared_metrics(section: str) -> dict[str, tuple[str, str]]:
    """Unit and better direction of each metric, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("planted", "survey", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    print("# env " + json.dumps(environment(args.seed)))
    if args.trace:
        result = run_traced(pkg, args.workload, args.seed)
    else:
        result = run_timed(pkg, args.workload, args.seed, args.seconds)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(result["metrics"]) != set(declared):
        fail(f"metrics {sorted(set(result['metrics']) ^ set(declared))} differ from "
             "BENCHMARK.json")
    for name, value in result["metrics"].items():
        unit, better = declared[name]
        line(name, value, unit, better, result["notes"].get(name, ""))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": declared[name][0]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
