"""Parameter sweeps and threshold bisection over state families.

Sweeps evaluate a witness report per grid point and serialize the rows
to CSV or JSON with full-precision floats, so identical inputs give
byte-identical artifacts.  Threshold search bisects on the sign of the
detection margin itself; the reporting tolerance epsilon plays no role
in locating the root.  A sweep or a bisection builds its operator
assignment once and rebuilds it only when the state's dims change.  Each
point takes the previous point's structure when it is exactly the same, so
along a grid in theta, theta1, theta2 or p it reads only its values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadParameter, NoSignChange
from .oracle import _check_integers
from .states import DEFAULT_TAIL_TOL, StateFamily, build_state
from .witness import WitnessReport, _check_epsilon, canonical_assignment, evaluate

CSV_HEADER = "param,lhs,rhs1,rhs2,margin1,margin2,detected1,detected2"

#: Most grid steps a sweep takes: a sweep keeps every row, about 1 KB each, until
#: it returns, so a larger grid is refused with :class:`BadParameter`.
MAX_GRID_STEPS = 100_000


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: family template, one parameter, grid, operator choice.

    ``param`` may name several comma-separated family parameters
    (e.g. ``"theta1,theta2"``); they all receive the swept value, which
    covers diagonal cuts like equal group angles.
    """

    family: StateFamily
    param: str
    grid: tuple[float, float, int]
    operators: str = "lowering"
    condition: int | str = "both"
    epsilon: float | None = None
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))


def _param_names(spec: SweepSpec) -> list[str]:
    names = [name.strip() for name in spec.param.split(",") if name.strip()]
    if not names:
        raise BadParameter("swept parameter name is empty")
    return names


def _validate(spec: SweepSpec, need_scalar_condition: bool = False) -> None:
    lo, hi, steps = spec.grid
    name = "bracket" if need_scalar_condition else "grid"
    if not lo < hi:
        raise BadParameter(f"{name} needs lo < hi, got ({lo}, {hi})")
    if not math.isfinite(float(hi) - float(lo)):  # an infinite end, or ends too far apart
        raise BadParameter(f"{name} needs finite ends and a finite span hi - lo, got ({lo}, {hi})")
    _check_integers(steps=steps)
    if steps < 2:
        raise BadParameter(f"grid needs at least 2 steps, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise BadParameter(f"grid allows at most {MAX_GRID_STEPS} steps, got {steps}")
    for name in _param_names(spec):
        spec.family.with_param(name, lo)  # raises BadParameter on unknown names
    if spec.condition not in (1, 2, "both"):
        raise BadParameter(f"condition must be 1, 2 or 'both', got {spec.condition!r}")
    if need_scalar_condition and spec.condition == "both":
        raise BadParameter("threshold search needs condition 1 or 2, not 'both'")


def _evaluator(spec: SweepSpec) -> Callable[[float], WitnessReport]:
    """Report at one value, from one ``build_state`` and one ``evaluate``: the state takes
    the previous point's structure if it is exactly the same (``share_structure``), and the
    previous state is released before the point is evaluated; the assignment is rebuilt
    only when the dims change."""
    names = _param_names(spec)
    assignment = previous = None

    def at(value: float) -> WitnessReport:
        nonlocal assignment, previous
        family = spec.family
        for name in names:
            family = family.with_param(name, float(value))
        state = build_state(family, tail_tol=spec.tail_tol)
        if previous is not None:
            state.share_structure(previous)
        previous = state
        if assignment is None or assignment.dims != state.dims:
            assignment = canonical_assignment(spec.operators, state.dims)
        return evaluate(state, assignment, epsilon=spec.epsilon)

    return at


def sweep(spec: SweepSpec) -> list[tuple[float, WitnessReport]]:
    """One report per grid point, endpoints included, in grid order."""
    _validate(spec)
    lo, hi, steps = spec.grid
    values = [float(v) for v in np.linspace(float(lo), float(hi), int(steps))]
    at = _evaluator(spec)
    return [(value, at(value)) for value in values]


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome: root location and which side of it detects."""

    value: float
    bracket_width: float
    detected_side: str  # "above" or "below"
    evaluations: int = field(default=0, compare=False)


def bisect_margin(
    margin: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float,
    no_sign_change: str,
) -> ThresholdResult:
    """Bisect on the sign of ``margin`` until the bracket is at most ``tol`` wide.

    The search also stops early once the bracket ends are adjacent floats,
    where the midpoint rounds to one of them and the bracket cannot shrink
    any further; ``bracket_width`` then reports the actual float spacing.
    Raises :class:`NoSignChange` with the message ``no_sign_change`` when
    the margin has the same sign at both ends.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise BadParameter(f"tol must be finite and positive, got {tol}")
    calls = 0

    def positive(value: float) -> bool:
        nonlocal calls
        calls += 1
        return margin(value) > 0.0

    lo, hi = float(bracket[0]), float(bracket[1])
    pos_lo = positive(lo)
    if pos_lo == positive(hi):
        raise NoSignChange(no_sign_change)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if positive(mid) == pos_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        value=0.5 * (lo + hi),
        bracket_width=hi - lo,
        detected_side="below" if pos_lo else "above",
        evaluations=calls,
    )


def find_threshold(
    spec: SweepSpec, bracket: tuple[float, float], tol: float
) -> ThresholdResult:
    """Bisect the margin sign of the chosen condition over one parameter."""
    _validate(
        SweepSpec(spec.family, spec.param, (*bracket, 2), spec.operators, spec.condition),
        need_scalar_condition=True,
    )
    pick = (lambda r: r.margin1) if spec.condition == 1 else (lambda r: r.margin2)
    at = _evaluator(spec)
    return bisect_margin(
        lambda value: pick(at(value)),
        bracket,
        tol,
        f"margin of condition {spec.condition} has the same sign at both ends of {bracket}",
    )


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _row_dict(value: float, report: WitnessReport) -> dict:
    return {"param": value, **report.to_json()}


def sweep_to_csv(results, meta: dict | None = None) -> str:
    """CSV rows with 17-significant-digit floats; meta as '#' header lines."""
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(CSV_HEADER)
    for value, report in results:
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    _fmt(report.lhs),
                    _fmt(report.rhs1),
                    _fmt(report.rhs2),
                    _fmt(report.margin1),
                    _fmt(report.margin2),
                    "true" if report.detected1 else "false",
                    "true" if report.detected2 else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(results, meta: dict | None = None) -> str:
    """JSON mirror of the CSV rows (epsilon included per row)."""
    payload = {
        "meta": meta or {},
        "rows": [_row_dict(value, report) for value, report in results],
    }
    return json.dumps(payload)
