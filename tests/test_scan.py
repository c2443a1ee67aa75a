"""Tests for parameter sweeps and threshold bisection."""

import json
import math

import pytest

from witnesslab import scan
from witnesslab.errors import BadParameter, DimensionMismatch, NoSignChange
from witnesslab.scan import (
    CSV_HEADER,
    SweepSpec,
    bisect_margin,
    find_threshold,
    sweep,
    sweep_to_csv,
    sweep_to_json,
)
from witnesslab.states import StateFamily, build_state
from witnesslab.witness import canonical_assignment, evaluate


def ghz_spec(n, ops="lowering", steps=101, lo=1e-4, hi=math.pi / 2 - 1e-4):
    return SweepSpec(StateFamily("GHZ", {"n": n}), "theta", (lo, hi, steps), ops)


def spy_assignments(monkeypatch) -> list:
    """Record the dims of every assignment the scan module builds."""
    built = []

    def spy(name, dims):
        built.append(tuple(dims))
        return canonical_assignment(name, dims)

    monkeypatch.setattr(scan, "canonical_assignment", spy)
    return built


def fresh_report(spec, value):
    """The report at one value from a state and an assignment built for it alone."""
    family = spec.family
    for name in spec.param.split(","):
        family = family.with_param(name, value)
    state = build_state(family, tail_tol=spec.tail_tol)
    return evaluate(state, canonical_assignment(spec.operators, state.dims), epsilon=spec.epsilon)


def test_sweep_builds_one_assignment_for_equal_dims(monkeypatch):
    spec = ghz_spec(3, steps=40)
    built = spy_assignments(monkeypatch)
    results = sweep(spec)
    assert built == [(2, 2, 2)]
    assert [report for _, report in results] == [fresh_report(spec, v) for v, _ in results]


def test_threshold_builds_one_assignment(monkeypatch):
    spec = SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.1, 1.4, 2), "lowering", 1)
    built = spy_assignments(monkeypatch)
    result = find_threshold(spec, (0.1, 1.4), 1e-6)
    assert built == [(2, 2, 2)]
    fresh = bisect_margin(lambda v: fresh_report(spec, v).margin1, (0.1, 1.4), 1e-6, "")
    assert result == fresh and result.evaluations == fresh.evaluations
    assert result.value == pytest.approx(math.pi / 4, abs=1e-6)


def test_cv_sweep_rebuilds_assignment_when_cutoff_changes(monkeypatch):
    """The cutoff moves with x, so one assignment is built per run of equal dims."""
    spec = SweepSpec(StateFamily("NModeSqueezed", {"n": 3}), "x", (0.1, 0.6, 12), "annihilation")
    built = spy_assignments(monkeypatch)
    results = sweep(spec)
    dims = [build_state(spec.family.with_param("x", v)).dims for v, _ in results]
    runs = [d for i, d in enumerate(dims) if i == 0 or d != dims[i - 1]]
    assert built == runs and 1 < len(runs) < len(dims)
    assert [report for _, report in results] == [fresh_report(spec, v) for v, _ in results]


def test_qubit_operators_on_cv_sweep_fail_at_first_point(monkeypatch):
    spec = SweepSpec(StateFamily("NModeSqueezed", {"n": 3}), "x", (0.1, 0.6, 12), "lowering")
    built = spy_assignments(monkeypatch)
    with pytest.raises(DimensionMismatch):
        sweep(spec)
    assert built == [build_state(spec.family.with_param("x", 0.1)).dims]


def test_ghz_sweep_detection_region_lowering():
    """Lowering operators flag exactly the |cos| > |sin| side of the grid."""
    results = sweep(ghz_spec(3))
    for theta, report in results:
        expected = abs(math.cos(theta)) > abs(math.sin(theta)) + 1e-9
        assert report.detected1 == expected
        assert report.detected2 == expected


def test_ghz_sweep_detection_region_raising():
    """Raising operators flag the mirror region."""
    results = sweep(ghz_spec(3, ops="raising"))
    for theta, report in results:
        expected = abs(math.sin(theta)) > abs(math.cos(theta)) + 1e-9
        assert report.detected1 == expected
        assert report.detected2 == expected


def test_ground_noise_leaves_detection_region_unchanged():
    """Ground-state noise scales both sides equally, so indicators match
    the pure sweep point by point, for any mixing weight."""
    pure = [rep.detected1 for _, rep in sweep(ghz_spec(3, steps=61))]
    for p in (0.15, 0.6, 0.95):
        fam = StateFamily("NoisyGHZ", {"n": 3, "p": p, "noise": "ground"})
        spec = SweepSpec(fam, "theta", (1e-4, math.pi / 2 - 1e-4, 61), "lowering")
        noisy = [rep.detected1 for _, rep in sweep(spec)]
        assert noisy == pure


def test_sweep_grid_endpoints_and_determinism():
    spec = ghz_spec(3, steps=11, lo=0.1, hi=0.9)
    first = sweep(spec)
    assert len(first) == 11
    assert first[0][0] == pytest.approx(0.1)
    assert first[-1][0] == pytest.approx(0.9)
    second = sweep(spec)
    assert [v for v, _ in first] == [v for v, _ in second]
    assert [r.lhs for _, r in first] == [r.lhs for _, r in second]


def test_two_group_condition1_never_detects():
    """The l=2, n=4 split never violates the geometric-mean bound."""
    fam = StateFamily("TwoGroupGHZ", {"n": 4, "l": 2, "theta1": 0.8})
    spec = SweepSpec(fam, "theta2", (0.0, math.pi, 97), "lowering", condition=1)
    for _, report in sweep(spec):
        assert not report.detected1


def test_threshold_modified_four_mode():
    """Condition-2 detection on the shifted four-mode state starts at 0.1397."""
    spec = SweepSpec(
        StateFamily("ModifiedFourMode", {}), "x", (0.01, 0.5, 2), "annihilation", 2
    )
    result = find_threshold(spec, (0.01, 0.5), 1e-4)
    assert result.value == pytest.approx(0.1397, abs=5e-4)
    assert result.detected_side == "above"
    assert result.bracket_width <= 1e-4
    # both ends, then one evaluation per halving down to tol
    assert result.evaluations == 2 + math.ceil(math.log2(0.49 / 1e-4))


def test_threshold_noisy_ghz_vs_grid_oracle():
    """Bisection agrees with a dense-grid sign scan and with 1/sqrt(2)."""
    fam = StateFamily("NoisyGHZ", {"n": 3, "theta": math.pi / 8, "noise": "white"})
    spec = SweepSpec(fam, "p", (0.3, 0.99, 2), "lowering", 1)
    result = find_threshold(spec, (0.3, 0.99), 1e-5)
    # oracle: first sign change on a fine grid
    grid = sweep(SweepSpec(fam, "p", (0.3, 0.99, 400), "lowering", 1))
    flips = [
        0.5 * (a + b)
        for (a, ra), (b, rb) in zip(grid, grid[1:])
        if (ra.margin1 > 0) != (rb.margin1 > 0)
    ]
    assert len(flips) == 1
    assert result.value == pytest.approx(flips[0], abs=(0.99 - 0.3) / 399)
    assert result.value == pytest.approx(1.0 / math.sqrt(2), abs=1e-3)
    assert result.detected_side == "above"


def test_threshold_two_group_diagonal():
    """Equal group angles: condition 2 stops detecting at arctan(1/sqrt 2)."""
    fam = StateFamily("TwoGroupGHZ", {"n": 4, "l": 2})
    spec = SweepSpec(fam, "theta1,theta2", (0.1, 1.0, 2), "lowering", 2)
    result = find_threshold(spec, (0.1, 1.0), 1e-5)
    assert result.value == pytest.approx(math.atan(1.0 / math.sqrt(2)), abs=1e-3)
    assert result.detected_side == "below"


def test_threshold_bracket_independence():
    """Monotone margins give the same root from different brackets."""
    spec = SweepSpec(
        StateFamily("ModifiedFourMode", {}), "x", (0.01, 0.5, 2), "annihilation", 2
    )
    root_a = find_threshold(spec, (0.01, 0.5), 1e-5).value
    root_b = find_threshold(spec, (0.05, 0.45), 1e-5).value
    assert root_a == pytest.approx(root_b, abs=2e-5)


def test_threshold_requires_sign_change():
    spec = SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.1, 0.2, 2), "lowering", 1)
    with pytest.raises(NoSignChange):
        find_threshold(spec, (0.1, 0.2), 1e-4)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-4])
def test_threshold_tol_must_be_finite_and_positive(tol):
    spec = SweepSpec(StateFamily("ModifiedFourMode", {}), "x", (0.01, 0.5, 2), "annihilation", 2)
    with pytest.raises(BadParameter):
        find_threshold(spec, (0.01, 0.5), tol)


@pytest.mark.parametrize("epsilon", [-1e-3, math.nan, math.inf])
def test_sweep_spec_rejects_bad_epsilon(epsilon):
    with pytest.raises(BadParameter):
        SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.1, 1.0, 3), epsilon=epsilon)


def test_sweep_validation():
    with pytest.raises(BadParameter):
        sweep(SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (1.0, 0.5, 10)))
    with pytest.raises(BadParameter):
        sweep(SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.0, 1.0, 1)))
    with pytest.raises(BadParameter):
        sweep(SweepSpec(StateFamily("GHZ", {"n": 3}), "zeta", (0.0, 1.0, 5)))
    with pytest.raises(BadParameter):
        sweep(SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.0, 1.0, 5), condition=3))
    with pytest.raises(BadParameter):
        find_threshold(
            SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.0, 1.0, 2), condition="both"),
            (0.0, 1.0),
            1e-4,
        )


@pytest.mark.parametrize("steps", [2.7, 3.0, True, "3", None])
def test_grid_refuses_a_step_count_that_is_no_integer(steps):
    """A bool, a fraction or a non-number is refused, not truncated: 2.7 gave 2 rows."""
    spec = SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.1, 1.0, steps))
    with pytest.raises(BadParameter, match=f"steps must be an integer, got {steps!r}"):
        sweep(spec)


def test_grid_step_cap():
    """MAX_GRID_STEPS steps pass validation; one more is refused before the grid is built."""
    spec = SweepSpec(StateFamily("GHZ", {"n": 3}), "theta", (0.0, 1.0, scan.MAX_GRID_STEPS))
    scan._validate(spec)
    with pytest.raises(BadParameter, match="at most"):
        sweep(SweepSpec(spec.family, "theta", (0.0, 1.0, scan.MAX_GRID_STEPS + 1)))


def test_csv_output_schema():
    results = sweep(ghz_spec(3, steps=5, lo=0.2, hi=0.6))
    text = sweep_to_csv(results, meta={"epsilon": "auto", "note": "test"})
    lines = text.strip().split("\n")
    assert lines[0] == "# epsilon=auto"
    assert lines[1] == "# note=test"
    assert lines[2] == CSV_HEADER
    assert len(lines) == 3 + 5
    fields = lines[3].split(",")
    assert len(fields) == 8
    # 17-significant-digit floats survive a round trip exactly
    assert float(fields[0]) == results[0][0]
    assert float(fields[1]) == results[0][1].lhs
    assert fields[6] in ("true", "false")


def test_json_output_schema():
    results = sweep(ghz_spec(3, steps=4, lo=0.2, hi=0.6))
    payload = json.loads(sweep_to_json(results, meta={"seed": 1}))
    assert payload["meta"] == {"seed": 1}
    assert len(payload["rows"]) == 4
    row = payload["rows"][0]
    assert set(row) == {
        "param",
        "lhs",
        "rhs1",
        "rhs2",
        "margin1",
        "margin2",
        "detected1",
        "detected2",
        "epsilon",
    }
    assert row["param"] == results[0][0]
