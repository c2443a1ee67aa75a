"""Metamorphic tests: local basis changes and site relabelling leave the report unchanged.

Rotating each site k by a unitary U_k, on every local ket and as
``U_k A_k U_k^dag`` on its operator, leaves lhs, rhs1 and rhs2 unchanged:
every expectation value is taken in a rotated basis.  Permuting the sites
of the state and the operators together also leaves the report unchanged.
The cases are tilted LSeparable and MixedSingleOut states, white-noise
GHZ mixtures and random ket-form states with random operators.  Tilted
and random kets are not eigenvectors of their site's ``A^dag A``, so rhs2
takes the eigenbasis route on them, before and after rotation (where
``A^dag A`` is no longer diagonal).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.linalg import dag
from witnesslab.oracle import random_assignment, random_pure_state
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP, StateFamily, build_state
from witnesslab.witness import OperatorAssignment, canonical_assignment, evaluate

#: Relative agreement required, against the largest side of the report.
RTOL = 1e-10

KINDS = ("LSeparable", "MixedSingleOut", "NoisyGHZ", "random")


def _angle(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _case(kind: str, rng: np.random.Generator):
    """(state, operator assignment) for one kind, parameters drawn from ``rng``."""
    if kind == "random":
        dims = tuple(int(d) for d in rng.integers(2, 4, int(rng.integers(2, 5))))
        state = random_pure_state(dims, int(rng.integers(1, 5)), rng)
        return state, random_assignment(dims, rng)
    n = int(rng.integers(3, 6))
    if kind == "LSeparable":
        l = int(rng.integers(1, n - 1))
        params = {"n": n, "l": l, "theta": _angle(rng), "thetas": [_angle(rng) for _ in range(l)]}
    elif kind == "MixedSingleOut":
        params = {"n": n, "theta": _angle(rng), "thetas": [_angle(rng) for _ in range(n)]}
    else:
        params = {"n": n, "theta": _angle(rng), "p": float(rng.uniform(0.05, 0.95)),
                  "noise": "white"}
    state = build_state(StateFamily(kind, params))
    return state, canonical_assignment("lowering", state.dims)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    diagonal = np.diagonal(r)
    return q * (diagonal / np.abs(diagonal))


def _map_pures(state, fn):
    """Apply ``fn`` to every pure component; white noise is invariant under both maps."""
    if isinstance(state, PureSOP):
        return fn(state)
    return MixedEnsemble(
        fn(state.pures[0]).dims,
        state.weights,
        tuple(fn(pure) for pure in state.pures),
        state.white_noise_weight,
    )


def _rotated(state, assignment, unitaries):
    def rotate(pure):
        terms = tuple(
            ProductTerm(t.amplitude, tuple(u @ ket for u, ket in zip(unitaries, t.factors)))
            for t in pure.terms
        )
        return PureSOP(pure.dims, terms)

    ops = tuple(u @ op @ dag(u) for u, op in zip(unitaries, assignment.ops))
    return _map_pures(state, rotate), OperatorAssignment(ops)


def _permuted(state, assignment, order):
    def permute(pure):
        terms = tuple(
            ProductTerm(t.amplitude, tuple(t.factors[k] for k in order)) for t in pure.terms
        )
        return PureSOP(tuple(pure.dims[k] for k in order), terms)

    ops = tuple(assignment.ops[k] for k in order)
    return _map_pures(state, permute), OperatorAssignment(ops)


@st.composite
def cases(draw):
    """(state, assignment, rng) for a drawn kind; the rng draws the transformation."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state, assignment = _case(kind, rng)
    return state, assignment, rng


def _assert_same(got, base, fields) -> None:
    scale = max(base.lhs, base.rhs1, base.rhs2)
    for name in fields:
        assert abs(getattr(got, name) - getattr(base, name)) <= RTOL * scale, (
            name, getattr(got, name), getattr(base, name)
        )


@settings(max_examples=80, deadline=None)
@given(cases())
def test_local_unitaries_leave_every_side_unchanged(case):
    state, assignment, rng = case
    unitaries = [_haar_unitary(d, rng) for d in state.dims]
    base = evaluate(state, assignment)
    got = evaluate(*_rotated(state, assignment, unitaries))
    _assert_same(got, base, ("lhs", "rhs1", "rhs2"))


@settings(max_examples=80, deadline=None)
@given(cases())
def test_permuting_sites_leaves_the_report_unchanged(case):
    state, assignment, rng = case
    order = [int(k) for k in rng.permutation(len(state.dims))]
    base = evaluate(state, assignment)
    got = evaluate(*_permuted(state, assignment, order))
    _assert_same(got, base, ("lhs", "rhs1", "rhs2", "margin1", "margin2", "epsilon"))
    scale = max(base.lhs, base.rhs1, base.rhs2)
    for margin, flag in (("margin1", "detected1"), ("margin2", "detected2")):
        # a flag may only differ where its margin sits within round-off of epsilon
        if abs(getattr(base, margin) - base.epsilon) > RTOL * scale:
            assert getattr(got, flag) == getattr(base, flag), flag
