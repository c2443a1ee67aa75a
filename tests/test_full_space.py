"""The full-space reference against the printed closed forms, with no engine route involved."""

import pytest

from witnesslab import formulas
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form
from witnesslab.states import FAMILIES, StateFamily, build_state
from witnesslab.witness import OperatorAssignment

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
