"""Command-line front end: detect, scan, threshold, verify, oracle.

Angles are always radians.  Every emitted artifact repeats the defaults
it was produced with (epsilon, tail tolerance, cutoff policy) in its
header, and identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BadParameter, WitnessLabError
from .formulas import run_verification
from .oracle import run_lemma_trials, run_separable_trials
from .scan import SweepSpec, find_threshold, sweep, sweep_to_csv, sweep_to_json
from .states import DEFAULT_TAIL_TOL, StateFamily, build_state
from .witness import DEFAULT_EPSILON_SCALE, OPERATOR_CHOICES, canonical_assignment, evaluate


def _parse_family(text: str) -> StateFamily:
    if text.lstrip().startswith("{"):
        return StateFamily.from_dict(json.loads(text))
    return StateFamily(text, {})


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise WitnessLabError(f"{flag} expects 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise WitnessLabError(f"--grid expects 'lo,hi,steps', got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _defaults_meta(args) -> dict:
    epsilon = getattr(args, "epsilon", None)
    return {
        "epsilon": epsilon if epsilon is not None else f"auto({DEFAULT_EPSILON_SCALE}*max(1,rhs))",
        "tail_tol": getattr(args, "tail_tol", DEFAULT_TAIL_TOL),
        "cutoff": "auto(tail<=tail_tol)",
    }


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _family_text(family: StateFamily) -> str:
    return json.dumps(family.as_dict(), separators=(",", ":"))


def _cmd_detect(args) -> int:
    family = _parse_family(args.family)
    state = build_state(family, tail_tol=args.tail_tol)
    assignment = canonical_assignment(args.ops, state.dims)
    report = evaluate(state, assignment, epsilon=args.epsilon)
    meta = {**_defaults_meta(args), "family": family.as_dict(), "operators": args.ops}
    if args.format == "json":
        _emit(json.dumps({"meta": meta, "report": report.to_json()}) + "\n", args.output)
    else:
        meta["family"] = _family_text(family)
        lines = [f"# {key}={val}" for key, val in meta.items()]
        lines += [f"{key} = {val}" for key, val in report.to_json().items()]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_scan(args) -> int:
    family = _parse_family(args.family)
    spec = SweepSpec(
        family=family,
        param=args.param,
        grid=_parse_grid(args.grid),
        operators=args.ops,
        condition="both" if args.condition == "both" else int(args.condition),
        epsilon=args.epsilon,
        tail_tol=args.tail_tol,
    )
    results = sweep(spec)
    meta = {
        **_defaults_meta(args),
        "family": _family_text(family),
        "param": args.param,
        "grid": args.grid,
        "operators": args.ops,
        "condition": args.condition,
    }
    if args.format == "json":
        meta["family"] = family.as_dict()
        _emit(sweep_to_json(results, meta) + "\n", args.output)
    elif args.format == "csv":
        _emit(sweep_to_csv(results, meta), args.output)
    else:
        lines = [f"# {key}={val}" for key, val in meta.items()]
        lines.append(f"{'param':>12} {'lhs':>12} {'rhs1':>12} {'rhs2':>12} {'det1':>5} {'det2':>5}")
        for value, rep in results:
            lines.append(
                f"{value:12.6g} {rep.lhs:12.6g} {rep.rhs1:12.6g} {rep.rhs2:12.6g}"
                f" {str(rep.detected1):>5} {str(rep.detected2):>5}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_threshold(args) -> int:
    family = _parse_family(args.family)
    bracket = _parse_pair(args.bracket, "--bracket")
    spec = SweepSpec(
        family=family,
        param=args.param,
        grid=(*bracket, 2),
        operators=args.ops,
        condition=int(args.condition),
        tail_tol=args.tail_tol,
    )
    result = find_threshold(spec, bracket, args.tol)
    payload = {
        "meta": {
            **_defaults_meta(args),
            "family": family.as_dict(),
            "param": args.param,
            "condition": int(args.condition),
            "bracket": list(bracket),
            "tol": args.tol,
        },
        "threshold": {
            "value": result.value,
            "bracket_width": result.bracket_width,
            "detected_side": result.detected_side,
        },
    }
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.output)
    else:
        meta = {**payload["meta"], "family": _family_text(family)}
        lines = [f"# {key}={val}" for key, val in meta.items()]
        lines.append(
            f"threshold {args.param} = {result.value:.10g}"
            f" +- {0.5 * result.bracket_width:.3g} (detected {result.detected_side})"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    rows = run_verification(seed=args.seed, points=args.points)
    failed = [row for row in rows if not row.passed]
    if args.format == "json":
        payload = {
            "meta": {"seed": args.seed, "points": args.points},
            "rows": [row.to_json() for row in rows],
            "passed": not failed,
        }
        _emit(json.dumps(payload) + "\n", args.output)
    else:
        lines = [f"# seed={args.seed} points={args.points}"]
        for row in rows:
            lines.append(
                f"{row.tag.value:14s} {row.kind:10s} cases={row.cases:<3d}"
                f" err={row.error:<12.3e} tol={row.tolerance:<8.0e}"
                f" {'PASS' if row.passed else 'FAIL'}"
            )
        lines.append(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    if args.lemma_trials < 0:
        raise BadParameter(f"lemma trials must be >= 0, got {args.lemma_trials}")
    summary = run_separable_trials(
        trials=args.trials,
        seed=args.seed,
        max_n=args.max_n,
        max_dim=args.max_dim,
        max_terms=args.max_terms,
    )
    lines = [
        f"separable trials: {summary.trials}",
        f"violations: {summary.violations}",
        f"worst margin1: {summary.worst_margin1:.3e}",
        f"worst margin2: {summary.worst_margin2:.3e}",
    ]
    failed = not summary.passed
    if args.lemma_trials:
        lemma = run_lemma_trials(trials=args.lemma_trials, seed=args.seed)
        lines += [
            f"lemma trials: {lemma.trials}",
            f"lemma violations: {lemma.violations}",
            f"worst lemma margin: {lemma.worst_margin:.3e}",
        ]
        failed = failed or not lemma.passed
    lines.append("FAIL" if failed else "PASS")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``witnesslab`` argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="witnesslab",
        description="Evaluate product-moment entanglement conditions on multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default_format):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--tail-tol", dest="tail_tol", type=float, default=DEFAULT_TAIL_TOL)

    detect = sub.add_parser("detect", help="evaluate both conditions on one state")
    detect.add_argument("--family", required=True, help="family tag or JSON descriptor")
    detect.add_argument("--ops", choices=OPERATOR_CHOICES, default="lowering")
    detect.add_argument("--epsilon", type=float, default=None)
    common(detect, ("json", "table"), "json")
    detect.set_defaults(func=_cmd_detect)

    scan_p = sub.add_parser("scan", help="sweep one parameter over a grid")
    scan_p.add_argument("--family", required=True)
    scan_p.add_argument("--param", required=True)
    scan_p.add_argument("--grid", required=True, help="lo,hi,steps")
    scan_p.add_argument("--ops", choices=OPERATOR_CHOICES, default="lowering")
    scan_p.add_argument("--condition", choices=("1", "2", "both"), default="both")
    scan_p.add_argument("--epsilon", type=float, default=None)
    common(scan_p, ("csv", "json", "table"), "csv")
    scan_p.set_defaults(func=_cmd_scan)

    thresh = sub.add_parser("threshold", help="bisect a detection threshold")
    thresh.add_argument("--family", required=True)
    thresh.add_argument("--param", required=True)
    thresh.add_argument("--condition", choices=("1", "2"), required=True)
    thresh.add_argument("--bracket", required=True, help="lo,hi")
    thresh.add_argument("--tol", type=float, default=1e-6)
    thresh.add_argument("--ops", choices=OPERATOR_CHOICES, default="annihilation")
    common(thresh, ("json", "table"), "table")
    thresh.set_defaults(func=_cmd_threshold)

    verify = sub.add_parser("verify", help="cross-check every closed form against the engine")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--points", type=int, default=20)
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    oracle_p = sub.add_parser("oracle", help="randomized separable-bound trials")
    oracle_p.add_argument("--trials", type=int, default=1000)
    oracle_p.add_argument("--seed", type=int, default=0)
    oracle_p.add_argument("--max-n", dest="max_n", type=int, default=4)
    oracle_p.add_argument("--max-dim", dest="max_dim", type=int, default=3)
    oracle_p.add_argument("--max-terms", dest="max_terms", type=int, default=4)
    oracle_p.add_argument("--lemma-trials", dest="lemma_trials", type=int, default=0)
    oracle_p.add_argument("--output", default=None)
    oracle_p.set_defaults(func=_cmd_oracle)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (WitnessLabError, json.JSONDecodeError, ValueError, OSError, MemoryError) as exc:
        kind = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
