"""Tests for the closed-form evaluators and their engine cross-checks."""

import math
import time

import numpy as np
import pytest

from witnesslab.errors import BadParameter, MissingParameter
from witnesslab.formulas import (
    ASYMPTOTIC_RATIO_BOUND,
    EXACT_TOL,
    MAX_VERIFY_POINTS,
    FormulaId,
    closed_form,
    closed_form_threshold,
    formula_params,
    is_exact,
    numeric_form,
    rearrangement_note,
    run_verification,
    sample_bipartite_case,
    sample_params,
    series_identity_check,
    two_group_l1n3_coefficients,
    weighted_geometric_sum,
)

EXACT_TAGS = [tag for tag in FormulaId if is_exact(tag)]
ASYMPTOTIC_TAGS = [tag for tag in FormulaId if not is_exact(tag)]


def test_noisy_cond1_pinned_values():
    """At theta = pi/8, p = 0.8: lhs 0.35355, rhs 0.14645 + 0.125."""
    lhs, rhs = closed_form(FormulaId.NOISY_COND1, {"theta": math.pi / 8, "p": 0.8})
    assert lhs == pytest.approx(0.35355, abs=1e-4)
    assert rhs == pytest.approx(0.27145, abs=1e-4)
    assert lhs == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
    assert rhs == pytest.approx(math.sin(math.pi / 8) ** 2 + 0.125, abs=1e-12)


def test_mod4_rhs2_pinned_value():
    lhs, rhs = closed_form(FormulaId.MOD4_RHS2, {"x": 0.5})
    assert lhs == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert rhs == pytest.approx(2.5625 / 2.25, abs=1e-12)


def test_two_group_l1n3_printed_constants():
    """The exact coefficients reproduce the printed 1.09, 1.24, 0.44."""
    cross, a, b = two_group_l1n3_coefficients()
    assert cross == pytest.approx(1.09, abs=0.01)
    assert a == pytest.approx(1.24, abs=0.01)
    assert b == pytest.approx(0.44, abs=0.01)
    # and their squares are the quadratic-form coefficients
    assert a * a == pytest.approx(1.0 + (2.0 / 3.0) ** 1.5, abs=1e-15)
    assert b * b == pytest.approx((1.0 / 3.0) ** 1.5, abs=1e-15)


def test_two_group_l1n3_condition2_never_satisfiable():
    """The quadratic bound exceeds |cos sin| everywhere: no violation exists."""
    for theta2 in np.linspace(1e-3, math.pi - 1e-3, 200):
        lhs, rhs = closed_form(FormulaId.TG_L1N3_C2, {"theta2": float(theta2)})
        assert lhs <= rhs + 1e-15


@pytest.mark.parametrize(
    "moment,closed",
    [(0, 4.0 / 3.0), (1, 4.0 / 9.0), (2, 20.0 / 27.0)],
)
def test_series_identity_pinned(moment, closed):
    """Geometric-moment sums at x = 0.5 match their closed forms."""
    numeric, printed = series_identity_check(0.5, moment)
    assert printed == pytest.approx(closed, abs=1e-15)
    assert numeric == pytest.approx(printed, abs=1e-12)


def test_series_identity_random_x():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = float(rng.uniform(0.05, 0.95))
        for moment in (0, 1, 2):
            numeric, printed = series_identity_check(x, moment)
            assert numeric == pytest.approx(printed, rel=1e-11)


def test_series_identity_rejects_bad_input():
    with pytest.raises(BadParameter):
        series_identity_check(0.5, 3)
    with pytest.raises(BadParameter):
        series_identity_check(1.5, 0)


@pytest.mark.parametrize("moment", [0, 1, 2])
def test_series_beyond_the_term_limit_fails_before_summing(moment):
    """At x = 1 - 1e-12 the stopping rule needs ~1e13 terms; summing 1e7 took seconds."""
    start = time.perf_counter()
    with pytest.raises(BadParameter, match="needs more than"):
        series_identity_check(1 - 1e-12, moment)
    assert time.perf_counter() - start < 1.0


def test_weighted_geometric_sum_rejects_a_negative_exponent():
    with pytest.raises(BadParameter):
        weighted_geometric_sum(0.5, -1.0)


def test_weighted_geometric_sum_matches_identities():
    """The general series agrees with the closed moments at integer powers."""
    for x in (0.2, 0.6, 0.85):
        assert weighted_geometric_sum(x, 1.0) == pytest.approx(
            series_identity_check(x, 1)[1], rel=1e-11
        )
        assert weighted_geometric_sum(x, 2.0) == pytest.approx(
            series_identity_check(x, 2)[1], rel=1e-11
        )


@pytest.mark.parametrize("tag", EXACT_TAGS, ids=lambda t: t.value)
def test_exact_tags_match_engine_on_random_grid(tag):
    """20 random parameter draws per tag: closed vs engine within 1e-8."""
    rng = np.random.default_rng([17, hash(tag.value) % 2**31])
    for _ in range(20):
        params = sample_params(tag, rng)
        closed = closed_form(tag, params)
        numeric = numeric_form(tag, params)
        err = max(abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1]))
        assert err <= EXACT_TOL, (params, closed, numeric)


@pytest.mark.parametrize("tag", ASYMPTOTIC_TAGS, ids=lambda t: t.value)
def test_asymptotic_tags_threshold_within_factor_two(tag):
    """Large-n forms predict detection thresholds within a factor of 2."""
    rows = [row for row in run_verification(seed=1, points=2) if row.tag == tag]
    assert rows and rows[0].kind == "asymptotic"
    assert rows[0].error <= ASYMPTOTIC_RATIO_BOUND
    assert rows[0].passed


def test_asymptotic_tags_have_no_numeric_form():
    with pytest.raises(BadParameter):
        numeric_form(FormulaId.MIXED_ASYMP_C1, {"n": 8, "theta": 0.1})


def test_missing_parameter():
    with pytest.raises(MissingParameter):
        closed_form(FormulaId.NOISY_COND1, {"theta": 0.3})
    with pytest.raises(MissingParameter):
        numeric_form(FormulaId.GHZ_LHS, {"theta": 0.3})


@pytest.mark.parametrize(
    "tag,params",
    [
        (FormulaId.GHZ_LHS, {"n": 3.5, "theta": 0.3}),
        (FormulaId.TWOGROUP_C2, {"n": 4.5, "l": 2, "theta1": 0.4, "theta2": 0.4}),
        (FormulaId.MIXED_C1, {"n": 3.5, "theta": 0.2, "thetas": [0.3, 0.5, 0.7]}),
        (FormulaId.SQZ_LHS, {"n": 3.5, "x": 0.5}),
    ],
)
def test_numeric_form_rejects_a_non_integer_size(tag, params):
    """The engine counterpart builds the family as given: n is never truncated."""
    with pytest.raises(BadParameter):
        numeric_form(tag, params)


def test_every_tag_has_note_and_params():
    for tag in FormulaId:
        assert rearrangement_note(tag)
        assert formula_params(tag)


def test_bipartite_case_is_reproducible():
    case_a = sample_bipartite_case(123)
    case_b = sample_bipartite_case(123)
    assert case_a == case_b
    lhs, rhs = closed_form(FormulaId.BIPARTITE_C1, case_a)
    num = numeric_form(FormulaId.BIPARTITE_C1, case_a)
    assert lhs == pytest.approx(num[0], abs=1e-10)
    assert rhs == pytest.approx(num[1], abs=1e-10)


def test_closed_form_threshold_mod4():
    """Condition-2 root of the four-mode closed forms sits at 0.1397."""
    root = closed_form_threshold(FormulaId.MOD4_RHS2, {}, "x", (0.01, 0.5))
    assert root == pytest.approx(0.1397, abs=5e-4)


def test_closed_form_threshold_tol_below_float_spacing_terminates():
    root = closed_form_threshold(FormulaId.MOD4_RHS2, {}, "x", (0.01, 0.5), tol=1e-20)
    default = closed_form_threshold(FormulaId.MOD4_RHS2, {}, "x", (0.01, 0.5))
    assert root == pytest.approx(default, abs=1e-9)


def test_run_verification_all_pass_and_cover_every_tag():
    rows = run_verification(seed=0, points=5)
    assert all(row.passed for row in rows)
    assert {row.tag for row in rows} == set(FormulaId)
    kinds = {row.kind for row in rows}
    assert kinds == {"exact", "asymptotic", "constants"}


def test_run_verification_needs_at_least_one_point():
    """points=0 used to report PASS on rows that checked no case."""
    with pytest.raises(BadParameter):
        run_verification(points=0)


@pytest.mark.parametrize("name,value", [
    ("seed", True), ("seed", 1.0), ("seed", "1"), ("points", 1.5), ("points", True), ("points", None),
])
def test_run_verification_refuses_a_seed_or_point_count_that_is_no_integer(name, value):
    """seed=True ran seed 1's draws and points=1.5 two cases per exact tag."""
    with pytest.raises(BadParameter, match=f"{name} must be an integer, got {value!r}"):
        run_verification(**{name: value})


def test_run_verification_refuses_more_than_the_point_cap():
    with pytest.raises(BadParameter, match=f"<= {MAX_VERIFY_POINTS}"):
        run_verification(points=MAX_VERIFY_POINTS + 1)
