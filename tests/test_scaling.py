"""Metamorphic tests: how the three sides scale when the local operators are scaled.

Replacing every ``A_k`` by ``c A_k`` multiplies lhs, rhs1 and rhs2 by
``|c|^n``.  Replacing each ``A_k`` by its own ``c_k A_k`` multiplies lhs
and rhs1 by ``prod_k |c_k|`` (rhs2 mixes the sites, so it has no such
rule).  The cases cover label-form families, tilted ket-form families,
white-noise mixtures and random ket-form states with random operators.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.oracle import random_assignment, random_pure_state
from witnesslab.states import StateFamily, build_state
from witnesslab.witness import OperatorAssignment, canonical_assignment, evaluate

#: Relative agreement required, against the largest side of the scaled report.
RTOL = 1e-10

KINDS = (
    "GHZ", "FlippedGHZ", "TwoGroupGHZ", "NModeSqueezed", "ModifiedFourMode",
    "LSeparable", "MixedSingleOut", "NoisyGHZ", "random",
)


def _angle(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _case(kind: str, rng: np.random.Generator):
    """(state, operator assignment) for one family kind, parameters drawn from ``rng``."""
    if kind == "random":
        dims = tuple(int(d) for d in rng.integers(2, 4, int(rng.integers(2, 5))))
        state = random_pure_state(dims, int(rng.integers(1, 5)), rng)
        return state, random_assignment(dims, rng)
    n = int(rng.integers(3, 6))
    ops = "lowering"
    if kind in ("GHZ", "FlippedGHZ"):
        params = {"n": n, "theta": _angle(rng)}
        ops = "flipped" if kind == "FlippedGHZ" else ops
    elif kind == "TwoGroupGHZ":
        params = {"n": n, "l": int(rng.integers(1, n)), "theta1": _angle(rng),
                  "theta2": _angle(rng)}
    elif kind == "NModeSqueezed":
        params = {"n": int(rng.integers(2, 4)), "x": float(rng.uniform(0.1, 0.6))}
        ops = "annihilation"
    elif kind == "ModifiedFourMode":
        params, ops = {"x": float(rng.uniform(0.1, 0.6))}, "annihilation"
    elif kind == "LSeparable":
        l = int(rng.integers(1, n - 1))
        params = {"n": n, "l": l, "theta": _angle(rng), "thetas": [_angle(rng) for _ in range(l)]}
    elif kind == "MixedSingleOut":
        params = {"n": n, "theta": _angle(rng), "thetas": [_angle(rng) for _ in range(n)]}
    else:
        params = {"n": n, "theta": _angle(rng), "p": float(rng.uniform(0.05, 0.95)),
                  "noise": "white"}
    state = build_state(StateFamily(kind, params))
    return state, canonical_assignment(ops, state.dims)


def _factor(rng) -> complex:
    """A complex scale with modulus in [1/4, 4] and a uniform phase."""
    return complex(2.0 ** rng.uniform(-2.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


@st.composite
def scaled_cases(draw):
    """(state, assignment, one factor per site) for a drawn family kind."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state, assignment = _case(kind, rng)
    return state, assignment, [_factor(rng) for _ in assignment.ops]


def _scaled(assignment: OperatorAssignment, factors) -> OperatorAssignment:
    return OperatorAssignment(tuple(c * op for c, op in zip(factors, assignment.ops)))


def _assert_scaled(got, base, factor: float, fields) -> None:
    scale = max(got.lhs, got.rhs1, got.rhs2)
    for name in fields:
        want = factor * getattr(base, name)
        assert abs(getattr(got, name) - want) <= RTOL * scale, (name, getattr(got, name), want)


@settings(max_examples=80, deadline=None)
@given(scaled_cases())
def test_common_factor_scales_every_side_by_its_modulus_to_the_n(case):
    state, assignment, factors = case
    c = factors[0]
    base = evaluate(state, assignment)
    got = evaluate(state, _scaled(assignment, [c] * len(factors)))
    _assert_scaled(got, base, abs(c) ** len(factors), ("lhs", "rhs1", "rhs2"))


@settings(max_examples=80, deadline=None)
@given(scaled_cases())
def test_site_factors_scale_lhs_and_rhs1_by_their_product(case):
    state, assignment, factors = case
    base = evaluate(state, assignment)
    got = evaluate(state, _scaled(assignment, factors))
    _assert_scaled(got, base, math.prod(abs(c) for c in factors), ("lhs", "rhs1"))
