"""Command line front end: analyze states and channels, scan, emit fixtures.

Exit codes: 0 when every requested verdict is conclusive, 2 when any verdict
is Inconclusive, 1 for usage, IO or validation errors. JSON output is byte
deterministic for identical inputs, config and seed; timing appears only in
text output.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import jsonio, linalg
from .channels import channel_degradability_test, depolarizing, epsilon_scan
from .feasibility import DIRECTIONS, VERIFY_TOL, FeasibilityOutcome, SolveConfig, decide
from .filters import DEFAULT_SLACK_TOL
from .states import build_fixture

_SOLVER_DEFAULTS = SolveConfig()
# The fixed gates every report's config echoes, in the order its JSON keeps.
_GATES = {
    "feas_tol": linalg.FEAS_TOL,
    "psd_tol": linalg.PSD_TOL,
    "stall_window": linalg.STALL_WINDOW,
    "stall_tol": linalg.STALL_TOL,
    "verify_tol": VERIFY_TOL,
    "rank_tol": linalg.DEFAULT_RANK_TOL,
    "slack_tol": DEFAULT_SLACK_TOL,
}

SCOPE_STATEMENTS = {
    "anti_degradable_certified": (
        "a fixed post-processing of E reproduces B on the lift of every input "
        "preparation of A; the channel is anti-degradable for all filtered inputs"
    ),
    "degradable_certified": (
        "a fixed post-processing of B reproduces E on the lift of every input "
        "preparation of A; the channel is degradable"
    ),
    "ruled_out_for_filtered_inputs": (
        "no post-processing of E reproduces B on the lift of any invertible "
        "input preparation of A; anti-degradability is ruled out for all such inputs"
    ),
    "inconclusive": (
        "neither a certificate nor a violated witness was found at the current "
        "budgets; raise --max-iter or --witnesses"
    ),
}


class UsageError(Exception):
    """Bad command line; maps to exit code 1 instead of argparse's 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _solve_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(max_iter=args.max_iter, witnesses=args.witnesses, seed=args.seed)


def _config_obj(args: argparse.Namespace) -> dict:
    budgets = asdict(_solve_config(args))
    return {
        "direction": getattr(args, "direction", "both"),
        "max_iter": budgets.pop("max_iter"),
        **_GATES,
        **budgets,
    }


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _outcome_lines(direction: str, outcome: FeasibilityOutcome) -> list[str]:
    lines = [f"direction {direction}: {outcome.status} (stage {outcome.stage})"]
    if outcome.status == "Feasible" and outcome.certificate is not None:
        lines.append(
            f"  certificate: {outcome.certificate.r} Kraus operator(s), "
            f"{outcome.certificate.in_dim} -> {outcome.certificate.out_dim}"
        )
    if outcome.filter_witness is not None:
        w = outcome.filter_witness
        lines.append(f"  witness {w.label}: d_in {w.d_in:.6g} < d_out {w.d_out:.6g}")
    if outcome.status == "Inconclusive" and outcome.residual_affine is not None:
        lines.append(
            f"  stall residual: affine {outcome.residual_affine:.6g} after "
            f"{outcome.iterations} iteration(s)"
        )
    if outcome.detail:
        lines.append(f"  detail: {outcome.detail}")
    return lines


def _config_lines(args: argparse.Namespace) -> list[str]:
    pairs = ", ".join(f"{k} {v}" for k, v in _config_obj(args).items())
    return [f"config: {pairs}"]


def _exit_code(outcomes: list[FeasibilityOutcome]) -> int:
    return 0 if all(o.status in ("Feasible", "RuledOut") for o in outcomes) else 2


def cmd_analyze_state(args: argparse.Namespace) -> int:
    config = _solve_config(args)
    directions = DIRECTIONS if args.direction == "both" else (args.direction,)
    state = jsonio.state_from_obj(jsonio.loads(Path(args.path).read_text(encoding="utf-8")))
    started = time.perf_counter()
    results = {d: decide(state, d, config) for d in directions}
    elapsed = time.perf_counter() - started
    if args.format == "json":
        report = {
            "command": "analyze-state",
            "config": _config_obj(args),
            "dims": list(state.dims),
            "results": {d: jsonio.outcome_to_obj(o) for d, o in results.items()},
        }
        _write_output(jsonio.dumps(report) + "\n", args.out)
    else:
        lines = [f"state: dims {state.dims}, norm^2 {state.norm_squared():.6g}"]
        for d, o in results.items():
            lines.extend(_outcome_lines(d, o))
        lines.extend(_config_lines(args))
        lines.append(f"elapsed {elapsed:.3f} s")
        _write_output("\n".join(lines) + "\n", args.out)
    return _exit_code(list(results.values()))


def cmd_analyze_channel(args: argparse.Namespace) -> int:
    channel = jsonio.channel_from_obj(jsonio.loads(Path(args.path).read_text(encoding="utf-8")))
    started = time.perf_counter()
    assessment = channel_degradability_test(channel, _solve_config(args))
    elapsed = time.perf_counter() - started
    if args.format == "json":
        report = {
            "command": "analyze-channel",
            "config": _config_obj(args),
            "dim": channel.dim,
            "label": assessment.label,
            "scope": SCOPE_STATEMENTS[assessment.label],
            "results": {
                "EtoB": jsonio.outcome_to_obj(assessment.e_to_b),
                "BtoE": jsonio.outcome_to_obj(assessment.b_to_e),
            },
        }
        _write_output(jsonio.dumps(report) + "\n", args.out)
    else:
        lines = [
            f"channel: dimension {channel.dim}, {channel.kraus.r} Kraus operator(s)",
            f"verdict: {assessment.label}",
            f"scope: {SCOPE_STATEMENTS[assessment.label]}",
        ]
        lines.extend(_outcome_lines("EtoB", assessment.e_to_b))
        lines.extend(_outcome_lines("BtoE", assessment.b_to_e))
        lines.extend(_config_lines(args))
        lines.append(f"elapsed {elapsed:.3f} s")
        _write_output("\n".join(lines) + "\n", args.out)
    return 0 if assessment.label != "inconclusive" else 2


def cmd_scan(args: argparse.Namespace) -> int:
    result = epsilon_scan(
        args.lo, args.hi, args.step, _solve_config(args), full_decide=args.full_decide
    )
    if args.format == "json":
        report = {
            "command": "scan",
            "family": args.family,
            "config": _config_obj(args),
            "rows": [
                {
                    "epsilon": r.epsilon,
                    "d_R": r.d_R,
                    "d_S": r.d_S,
                    "verdict": r.verdict,
                    "qber": r.qber,
                }
                for r in result.rows
            ],
            "threshold": result.threshold,
            "bracket": None if result.bracket is None else list(result.bracket),
        }
        _write_output(jsonio.dumps(report) + "\n", args.out)
    else:
        text = jsonio.scan_to_csv(result)
        if result.bracket is not None:
            lo_b, hi_b = result.bracket
            text += (
                f"# threshold: {lo_b:.12g} < eps* <= {hi_b:.12g} "
                f"(midpoint {result.threshold:.12g})\n"
            )
        else:
            text += "# threshold: no verdict transition in range\n"
        _write_output(text, args.out)
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    if args.name == "depolarizing":
        obj = jsonio.channel_to_obj(depolarizing(args.eps))
    elif args.name == "example2":
        obj = jsonio.state_to_obj(build_fixture("example2", a=args.a, b=args.b))
    elif args.name == "sec4":
        if not 0.0 < args.alpha2 < 1.0 or not 0.0 < args.a2 < 1.0:
            raise ValueError("sec4 fixture needs 0 < alpha2 < 1 and 0 < a2 < 1")
        obj = jsonio.state_to_obj(
            build_fixture("sec4", alpha=float(args.alpha2) ** 0.5, a=float(args.a2) ** 0.5)
        )
    else:
        obj = jsonio.state_to_obj(build_fixture(args.name))
    _write_output(jsonio.dumps(obj) + "\n", args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser, with_direction: bool) -> None:
    if with_direction:
        parser.add_argument("--direction", choices=DIRECTIONS + ("both",), default="both")
    parser.add_argument("--max-iter", type=int, default=_SOLVER_DEFAULTS.max_iter)
    parser.add_argument("--witnesses", type=int, default=_SOLVER_DEFAULTS.witnesses)
    parser.add_argument("--seed", type=int, default=_SOLVER_DEFAULTS.seed)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="degradability", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("analyze-state", help="decide degradability of a tripartite state file")
    ps.add_argument("path", help="state JSON file")
    _add_common(ps, with_direction=True)
    ps.set_defaults(func=cmd_analyze_state)

    pc = sub.add_parser("analyze-channel", help="test a channel via its maximally entangled lift")
    pc.add_argument("path", help="channel JSON file")
    _add_common(pc, with_direction=False)
    pc.set_defaults(func=cmd_analyze_channel)

    sc = sub.add_parser("scan", help="sweep a channel family and bracket the filter threshold")
    sc.add_argument("family", choices=("depolarizing",))
    sc.add_argument("--lo", type=float, default=0.05)
    sc.add_argument("--hi", type=float, default=0.45)
    sc.add_argument("--step", type=float, default=0.01)
    sc.add_argument("--full-decide", action="store_true", help="run the full decision per point")
    _add_common(sc, with_direction=False)
    sc.set_defaults(func=cmd_scan)

    pf = sub.add_parser("fixture", help="emit a named reference state or channel as JSON")
    pf.add_argument("name", choices=("ghz", "example2", "sec4", "bell_lift", "depolarizing"))
    pf.add_argument("--a", type=float, default=0.5, help="example2 amplitude a")
    pf.add_argument("--b", type=float, default=0.5, help="example2 amplitude b")
    pf.add_argument("--alpha2", type=float, default=0.8, help="sec4 squared overlap alpha^2")
    pf.add_argument("--a2", type=float, default=0.65, help="sec4 squared overlap a^2")
    pf.add_argument("--eps", type=float, default=0.1, help="depolarizing noise parameter")
    pf.add_argument("--out", default=None, help="write the file here instead of stdout")
    pf.set_defaults(func=cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
