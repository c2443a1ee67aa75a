"""The full-space reference against the printed closed forms, with no engine route involved."""

import tracemalloc

import numpy as np
import pytest

from witnesslab import formulas
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form
from witnesslab.oracle import random_assignment, random_pure_state
from witnesslab.states import FAMILIES, MixedEnsemble, StateFamily, build_state
from witnesslab.witness import OperatorAssignment

import full_space
from full_space import sides

#: Tag -> (family, condition); the MIXED tags print both sides multiplied by n.
RAW_SIDE_TAGS = {
    FormulaId.GHZ_LHS: ("GHZ", 1),
    FormulaId.GHZ_RHS: ("GHZ", 2),
    FormulaId.TWOGROUP_C1: ("TwoGroupGHZ", 1),
    FormulaId.TWOGROUP_C2: ("TwoGroupGHZ", 2),
    FormulaId.MIXED_C1: ("MixedSingleOut", 1),
    FormulaId.MIXED_C2: ("MixedSingleOut", 2),
}


@pytest.mark.parametrize("tag", RAW_SIDE_TAGS, ids=lambda tag: tag.value)
def test_reference_matches_the_pinned_closed_forms(tag):
    family, condition = RAW_SIDE_TAGS[tag]
    pinned = formulas._entry(tag).pinned
    state = build_state(
        StateFamily(family, {name: pinned[name] for name in FAMILIES[family].required})
    )
    lhs, rhs1, rhs2 = sides(state, OperatorAssignment.qubit_lowering(state.num_sites))
    scale = state.num_sites if family == "MixedSingleOut" else 1
    want_lhs, want_rhs = closed_form(tag, pinned)
    assert abs(scale * lhs - want_lhs) <= EXACT_TOL
    assert abs(scale * (rhs1 if condition == 1 else rhs2) - want_rhs) <= EXACT_TOL


def test_the_vector_rhs2_equals_the_density_matrix_rhs2():
    """Both reference forms of rhs2 agree to 1e-12 relative on pure, mixed and
    white-noise states, under random operators and under annihilation operators."""
    rng = np.random.default_rng(31)
    for _ in range(12):
        dims = tuple(int(d) for d in rng.integers(1, 4, int(rng.integers(2, 5))))
        pure = random_pure_state(dims, int(rng.integers(1, 4)), rng)
        weights = rng.dirichlet(np.ones(3))
        pures = tuple(random_pure_state(dims, int(rng.integers(1, 4)), rng) for _ in range(2))
        mixed = MixedEnsemble(dims, tuple(weights[:2]), pures, float(weights[2]))
        for state in (pure, mixed):
            for assignment in (random_assignment(dims, rng), OperatorAssignment.annihilation(dims)):
                want = sides(state, assignment)[2]
                got = full_space.rhs2(state, assignment)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (dims, got, want)


def test_reference_refuses_a_state_too_large_before_allocating():
    """A state over MAX_DIM (NModeSqueezed n=3, x=0.6 at cutoff 22: D = 12,167, a 2.4 GB
    density matrix) is refused by every entry point before anything of that size exists."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 3, "x": 0.6, "cutoff": 22}))
    assignment = OperatorAssignment.annihilation(state.dims)
    for reference in (full_space.sides, full_space.second_moments, full_space.rhs2):
        tracemalloc.start()
        try:
            with pytest.raises(full_space.FullSpaceTooLarge, match="D = 12167 over 2048"):
                reference(state, assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, reference.__name__
