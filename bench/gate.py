"""Correctness gate: checks each command's output after the timed phase.

Every check recomputes what the output claims from the command's own
inputs, through routes other than the one that produced it:

- reports of a family with an exact closed-form tag must match
  ``formulas.closed_form`` (GHZ_*, TWOGROUP_*, NOISY_COND1 with white
  noise, SQZ_*, MOD4_*, and LSEP_C1 / MIXED_C1 / MIXED_C2 with the same
  scalings ``formulas`` applies);
- on the tilted families, rhs2 must match ``rhs_condition2(method="dense")``;
- a ``threshold`` result must show a sign change of the margin across
  its final bracket, on the side it reports;
- an ``oracle`` command must exit 0 with zero violations.

Every report must also be internally consistent: finite values, margins
equal to lhs - rhs exactly, and detection flags that follow from the
margins and epsilon.
"""

from __future__ import annotations

import json
import math

import numpy as np

from witnesslab import StateFamily, build_state, canonical_assignment, evaluate, rhs_condition2
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form
from witnesslab.scan import CSV_HEADER
from witnesslab.witness import DEFAULT_EPSILON_SCALE

from workloads import flags

#: Relative tolerance (on top of ``EXACT_TOL`` absolute) for the
#: continuous-variable tags.  Those states are built at the default 1e-10
#: tail, which bounds the discarded probability, not the moments.  The
#: worst relative error measured against the closed forms for n = 2..4 and
#: x in [0.1, 0.6] or [0.85, 0.95] is 3.3e-8.  Below x = 0.1 it reaches
#: 1.4e-6 (x = 0.02), so the workloads compare CV grids from x = 0.1 only.
CV_REL_TOL = 1e-7

#: rhs2 must match the dense oracle route this closely (absolute).
DENSE_TOL = 1e-8

_CV_FAMILIES = ("NModeSqueezed", "ModifiedFourMode")


def _family_at(family: dict, param: str, value: float) -> dict:
    params = dict(family["params"])
    for name in param.split(","):
        params[name] = value
    return {"family": family["family"], "params": params}


def _closed_form_pairs(family: dict, ops: str, rep: dict):
    """(tag, engine pair, params) for every exact tag the point falls under."""
    tag, p = family["family"], family["params"]
    lhs, rhs1, rhs2 = rep["lhs"], rep["rhs1"], rep["rhs2"]
    if tag == "GHZ" and ops == "lowering":
        return [(FormulaId.GHZ_LHS, (lhs, rhs1), p), (FormulaId.GHZ_RHS, (lhs, rhs2), p)]
    if tag == "TwoGroupGHZ" and ops == "lowering":
        return [(FormulaId.TWOGROUP_C1, (lhs, rhs1), p), (FormulaId.TWOGROUP_C2, (lhs, rhs2), p)]
    if tag == "NoisyGHZ" and p["noise"] == "white" and ops == "lowering":
        prob = float(p["p"])
        return [(FormulaId.NOISY_COND1, (lhs / prob, rhs1 / prob), p)]
    if tag == "NModeSqueezed" and ops == "annihilation":
        return [(FormulaId.SQZ_LHS, (lhs, rhs1), p), (FormulaId.SQZ_RHS, (lhs, rhs2), p)]
    if tag == "ModifiedFourMode" and ops == "annihilation":
        return [(FormulaId.MOD4_LHS, (lhs, rhs1), p), (FormulaId.MOD4_RHS2, (lhs, rhs2), p)]
    if tag == "LSeparable" and ops == "lowering":
        scale = abs(math.sin(float(p["theta"])))
        for t in p["thetas"]:
            scale *= abs(math.cos(float(t)) * math.sin(float(t)))
        return [(FormulaId.LSEP_C1, (lhs / scale, rhs1 / scale), p)]
    if tag == "MixedSingleOut" and ops == "lowering":
        n = int(p["n"])
        return [
            (FormulaId.MIXED_C1, (n * lhs, n * rhs1), p),
            (FormulaId.MIXED_C2, (n * lhs, n * rhs2), p),
        ]
    return []


def check_report(family: dict, ops: str, rep: dict) -> list[str]:
    """Failures of one witness report against its family's oracles."""
    failures = []
    values = [rep[k] for k in ("lhs", "rhs1", "rhs2", "margin1", "margin2")]
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite report {values}"]
    epsilon = rep.get("epsilon")
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_SCALE * max(1.0, rep["rhs1"], rep["rhs2"])
    for k in ("1", "2"):
        margin = rep["lhs"] - rep["rhs" + k]
        if rep["margin" + k] != margin:
            failures.append(f"margin{k} {rep['margin' + k]!r} != lhs - rhs{k} {margin!r}")
        if rep["detected" + k] != (rep["margin" + k] > epsilon):
            failures.append(f"detected{k} disagrees with margin{k} and epsilon")
    rel = CV_REL_TOL if family["family"] in _CV_FAMILIES else 0.0
    for tag, engine, params in _closed_form_pairs(family, ops, rep):
        closed = closed_form(tag, params)
        for side, got, want in zip(("lhs", "rhs"), engine, closed):
            if not abs(got - want) <= EXACT_TOL + rel * abs(want):
                failures.append(f"{tag.value} {side}: engine {got!r} vs closed form {want!r}")
    if family["family"] in ("LSeparable", "MixedSingleOut"):
        state = build_state(StateFamily.from_dict(family))
        dense = rhs_condition2(state, canonical_assignment(ops, state.dims), method="dense")
        if not abs(rep["rhs2"] - dense) <= DENSE_TOL:
            failures.append(f"rhs2 {rep['rhs2']!r} vs dense route {dense!r}")
    return failures


_CSV_FLOATS = ("param", "lhs", "rhs1", "rhs2", "margin1", "margin2")


def _parse_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {k: float(v) for k, v in zip(_CSV_FLOATS, cells)}
        row["detected1"] = cells[6] == "true"
        row["detected2"] = cells[7] == "true"
        rows.append(row)
    return rows


def _check_scan(opts: dict, out: str) -> list[str]:
    family = json.loads(opts["family"])
    lo, hi, steps = opts["grid"].split(",")
    grid = np.linspace(float(lo), float(hi), int(steps))
    rows = _parse_csv(out)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    failures = []
    for row, value in zip(rows, grid):
        if row["param"] != float(value):
            failures.append(f"row param {row['param']!r} != grid value {float(value)!r}")
            continue
        point = _family_at(family, opts["param"], row["param"])
        failures += [f"at {row['param']!r}: {f}" for f in check_report(point, opts["ops"], row)]
    return failures


def _margin(family: dict, param: str, value: float, ops: str, condition: int) -> float:
    state = build_state(StateFamily.from_dict(_family_at(family, param, value)))
    rep = evaluate(state, canonical_assignment(ops, state.dims))
    return rep.margin1 if condition == 1 else rep.margin2


def _check_threshold(opts: dict, out: str) -> list[str]:
    result = json.loads(out)["threshold"]
    family = json.loads(opts["family"])
    condition = int(opts["condition"])
    width, value = result["bracket_width"], result["value"]
    bracket = [float(v) for v in opts["bracket"].split(",")]
    lo, hi = value - 0.5 * width, value + 0.5 * width
    if not (0.0 < width <= float(opts["tol"]) and bracket[0] <= lo and hi <= bracket[1]):
        return [f"final bracket [{lo!r}, {hi!r}] is not inside {bracket} within tol"]
    m_lo = _margin(family, opts["param"], lo, opts["ops"], condition)
    m_hi = _margin(family, opts["param"], hi, opts["ops"], condition)
    if (m_lo > 0.0) == (m_hi > 0.0):
        return [f"no sign change across [{lo!r}, {hi!r}]: margins {m_lo!r}, {m_hi!r}"]
    side = "below" if m_lo > 0.0 else "above"
    if result["detected_side"] != side:
        return [f"detected_side {result['detected_side']!r}, margins say {side!r}"]
    return []


def _check_oracle(opts: dict, out: str) -> list[str]:
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    expected = {
        "separable trials": opts["trials"],
        "violations": "0",
        "lemma trials": opts["lemma-trials"],
        "lemma violations": "0",
    }
    failures = [
        f"{key}: {fields.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if fields.get(key) != want
    ]
    if out.splitlines()[-1:] != ["PASS"]:
        failures.append("last line is not PASS")
    return failures


def check(argv, returncode, out: str) -> list[str]:
    """Failures of one command's output; empty when it passes the gate."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    opts = flags(argv)
    try:
        if argv[0] == "scan":
            return _check_scan(opts, out)
        if argv[0] == "threshold":
            return _check_threshold(opts, out)
        if argv[0] == "oracle":
            return _check_oracle(opts, out)
        report = json.loads(out)["report"]
        return check_report(json.loads(opts["family"]), opts["ops"], report)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
