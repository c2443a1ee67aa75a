"""A sweep or a bisection hands each point the previous point's structure.

``scan._evaluator`` builds and evaluates every point, and the point takes the
previous point's term groups and kept blocks (``TermAxis.share_structure``)
when its dims, offsets, labels and ket stacks hold the same bits.  Every row
of a ``sweep`` and every ``find_threshold`` result must then equal, bit for
bit, the same computation on a fresh ``evaluate(build_state(point), ...)``
per point, for every family and for swept parameters that change the
structure (``l``, ``n``, ``x`` under the auto cutoff, ``cutoff``).  A chain
of shared structures evaluated under several assignments in turn checks that
the kept blocks follow the assignment.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witnesslab import scan
from witnesslab.errors import NoSignChange, WitnessLabError
from witnesslab.scan import SweepSpec, bisect_margin, find_threshold, sweep
from witnesslab.states import StateFamily, build_state
from witnesslab.witness import canonical_assignment, evaluate, rhs_condition2

QUBIT_OPS = ("lowering", "raising", "flipped")

#: (family, fixed params, swept param, (lo, hi) range to draw the grid from, integral,
#: operator choices): every family, and parameters that keep or change the structure
CASES = [
    ("GHZ", {"n": 4}, "theta", (0.05, 1.5), False, QUBIT_OPS),
    ("GHZ", {"theta": 0.6}, "n", (2, 6), True, QUBIT_OPS),
    ("FlippedGHZ", {"n": 4}, "theta", (0.05, 1.5), False, QUBIT_OPS),
    ("TwoGroupGHZ", {"n": 5, "l": 2, "theta2": 0.7}, "theta1", (0.05, 1.5), False, QUBIT_OPS),
    ("TwoGroupGHZ", {"n": 5, "l": 2}, "theta1,theta2", (0.05, 1.5), False, QUBIT_OPS),
    ("TwoGroupGHZ", {"n": 6, "theta1": 0.4, "theta2": 0.9}, "l", (1, 5), True, QUBIT_OPS),
    ("LSeparable", {"n": 5, "l": 2, "thetas": [0.3, 0.9]}, "theta", (0.05, 1.5), False,
     QUBIT_OPS),
    ("LSeparable", {"l": 1, "theta": 0.5, "thetas": [0.4]}, "n", (2, 6), True, QUBIT_OPS),
    ("MixedSingleOut", {"n": 4, "thetas": [0.2, 0.5, 0.8, 1.1]}, "theta", (0.05, 1.5), False,
     QUBIT_OPS),
    ("NoisyGHZ", {"n": 4, "p": 0.6, "noise": "ground"}, "theta", (0.05, 1.5), False, QUBIT_OPS),
    ("NoisyGHZ", {"n": 4, "theta": 0.5, "noise": "white"}, "p", (0.02, 0.98), False,
     QUBIT_OPS),
    ("NoisyGHZ", {"theta": 0.5, "p": 0.6, "noise": "white"}, "n", (2, 6), True, QUBIT_OPS),
    ("NModeSqueezed", {"n": 3}, "x", (0.05, 0.6), False, ("annihilation",)),
    ("NModeSqueezed", {"n": 2, "x": 0.3}, "cutoff", (14, 20), True, ("annihilation",)),
    ("NModeSqueezed", {"x": 0.3, "cutoff": 12}, "n", (2, 4), True, ("annihilation",)),
    ("ModifiedFourMode", {}, "x", (0.05, 0.6), False, ("annihilation",)),
    ("ModifiedFourMode", {"x": 0.3}, "cutoff", (14, 20), True, ("annihilation",)),
]


def _bits(report) -> tuple:
    """Every field of a report, floats by their exact bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in report.to_json().values())


def _point(spec: SweepSpec, value: float) -> StateFamily:
    family = spec.family
    for name in spec.param.split(","):
        family = family.with_param(name, float(value))
    return family


def _fresh(spec: SweepSpec, value: float, assignment=None):
    """The report at one value from a state built for it alone."""
    state = build_state(_point(spec, value), tail_tol=spec.tail_tol)
    assignment = assignment or canonical_assignment(spec.operators, state.dims)
    return evaluate(state, assignment, epsilon=spec.epsilon)


@st.composite
def sweeps(draw):
    family, params, param, (lo, hi), integral, choices = draw(st.sampled_from(CASES))
    if integral:
        lo = draw(st.integers(lo, hi - 1))
        hi = draw(st.integers(lo + 1, hi))
        steps = hi - lo + 1
    else:
        lo, hi = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
        steps = draw(st.integers(2, 7))
    ops = draw(st.permutations(choices))
    spec = SweepSpec(StateFamily(family, params), param, (lo, hi, steps), ops[0])
    return spec, list(ops) + [ops[0]]


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_sweep_rows_equal_fresh_evaluations_bit_for_bit(case):
    spec, _ = case
    rows = sweep(spec)
    values = [float(v) for v in np.linspace(*spec.grid[:2], int(spec.grid[2]))]
    assert [value for value, _ in rows] == values
    for value, report in rows:
        assert _bits(report) == _bits(_fresh(spec, value)), value


#: ModifiedFourMode's condition-2 onset near x = 0.1397, where the cutoff moves early in
#: the bisection and then settles
_FOUR_MODE = SweepSpec(StateFamily("ModifiedFourMode", {}), "x", (0.05, 0.6, 2), "annihilation")


@settings(max_examples=40, deadline=None)
@given(sweeps(), st.sampled_from([1, 2]))
@example((_FOUR_MODE, ["annihilation"]), 2)
def test_threshold_equals_a_bisection_of_fresh_evaluations(case, condition):
    """The result, and the report at every bisection step, equal a bisection that builds
    and evaluates a fresh state at each step."""
    spec, _ = case
    if spec.param in ("n", "l", "cutoff"):
        return  # a bisection's midpoints are not integers
    spec = SweepSpec(spec.family, spec.param, spec.grid, spec.operators, condition)
    bracket, tol = spec.grid[:2], 1e-3 * (spec.grid[1] - spec.grid[0])
    pick = (lambda r: r.margin1) if condition == 1 else (lambda r: r.margin2)
    steps = {"got": [], "want": []}

    def recorded(name, report):
        steps[name].append(_bits(report))
        return report

    def spy(*args, **kwargs):
        return recorded("got", evaluate(*args, **kwargs))

    outcomes = []
    with mock.patch.object(scan, "evaluate", spy):
        outcomes.append(_outcome(lambda: find_threshold(spec, bracket, tol)))
    outcomes.append(_outcome(lambda: bisect_margin(
        lambda v: pick(recorded("want", _fresh(spec, v))), bracket, tol, "same sign"
    )))
    assert outcomes[0] == outcomes[1]
    assert steps["got"] == steps["want"]


def _outcome(run) -> tuple:
    """A bisection's result by its bits, or NoSignChange."""
    try:
        got = run()
    except NoSignChange:
        return (NoSignChange,)
    return got.value.hex(), got.bracket_width.hex(), got.detected_side, got.evaluations


@settings(max_examples=40, deadline=None)
@given(sweeps())
def test_a_chain_of_shared_structures_follows_each_assignment(case):
    """Each point's state takes the previous one's structure, as in a sweep, and is then
    evaluated under every operator choice in turn (each assignment kept across points, one
    per dims, as the sweep keeps its own): each report equals a fresh state's under the
    same assignment."""
    spec, choices = case
    assignments, previous = {}, None
    for value in np.linspace(*spec.grid[:2], int(spec.grid[2])):
        state = build_state(_point(spec, value))
        if previous is not None:
            state.share_structure(previous)
        previous = state
        for ops in choices:
            key = (ops, state.dims)
            if key not in assignments:
                assignments[key] = canonical_assignment(ops, state.dims)
            try:
                got = _bits(evaluate(state, assignments[key]))
            except WitnessLabError as exc:  # e.g. flipped needs n >= 2: both must raise
                got = type(exc)
            try:
                want = _bits(_fresh(spec, value, assignments[key]))
            except WitnessLabError as exc:
                want = type(exc)
            assert got == want, (value, ops)


def _kept_arrays(blocks):
    """Every array kept on a structure, from its nested tuples."""
    for value in blocks:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            yield from _kept_arrays(value)


@pytest.mark.parametrize(
    "family,params",
    [
        ("GHZ", {"n": 5, "theta": 0.4}),
        ("NoisyGHZ", {"n": 4, "theta": 0.4, "p": 0.6, "noise": "ground"}),
        ("NoisyGHZ", {"n": 4, "theta": 0.4, "p": 0.6, "noise": "white"}),
        ("LSeparable", {"n": 5, "l": 2, "theta": 0.4, "thetas": [0.3, 0.9]}),
        ("MixedSingleOut", {"n": 3, "theta": 0.6, "thetas": [0.1, 0.2, 0.3]}),
    ],
)
def test_kept_blocks_are_keyed_by_the_assignment_and_read_only(family, params):
    """One state under lowering, raising and lowering again reports what a fresh state
    reports under each; rhs2 forced to the eigenbasis route after the factorized one equals
    the forced route on a fresh state; and every kept array is read-only."""
    state = build_state(StateFamily(family, params))
    lowering, raising = (canonical_assignment(ops, state.dims) for ops in ("lowering", "raising"))
    for assignment in (lowering, raising, lowering):
        fresh = build_state(StateFamily(family, params))
        assert _bits(evaluate(state, assignment)) == _bits(evaluate(fresh, assignment))
    auto = rhs_condition2(state, lowering)
    dense = rhs_condition2(state, lowering, method="dense")
    fresh = build_state(StateFamily(family, params))
    assert dense.hex() == rhs_condition2(fresh, lowering, method="dense").hex()
    assert auto.hex() == rhs_condition2(fresh, lowering).hex()
    arrays = list(_kept_arrays(state._blocks.values()))
    assert arrays and not any(array.flags.writeable for array in arrays)


def test_a_point_of_another_structure_takes_nothing():
    """Equal dims and offsets but other labels (TwoGroupGHZ at another l), or equal labels
    but other ket bits (LSeparable at another tilt), keep the state's own structure."""
    two_group = {"n": 5, "theta1": 0.3, "theta2": 0.8}
    first, second = (build_state(StateFamily("TwoGroupGHZ", {**two_group, "l": l})) for l in (1, 2))
    evaluate(first, canonical_assignment("lowering", first.dims))
    assert not second.share_structure(first)
    assert "groups" not in vars(second) and not second._blocks
    tilted = {"n": 4, "l": 1, "theta": 0.4}
    tilts = (0.3, float(np.nextafter(0.3, 1.0)))
    first, second = (build_state(StateFamily("LSeparable", {**tilted, "thetas": [t]})) for t in tilts)
    evaluate(first, canonical_assignment("lowering", first.dims))
    same_bits = first.kets[0].tobytes() == second.kets[0].tobytes()
    assert second.share_structure(first) == same_bits
    third = build_state(StateFamily("LSeparable", {**tilted, "thetas": [0.3], "theta": 1.1}))
    assert third.share_structure(first) and third.groups[0].overlaps is first.groups[0].overlaps
    assert math.isfinite(evaluate(third, canonical_assignment("lowering", third.dims)).lhs)
