"""Local spectra computed for many assignments at once, and the chunked oracle stream.

``fill_spectra`` stacks the d x d operators of each dim across several
assignments into one A^dag A and one ``psd_eigh``.  These tests pin every
spectrum it keeps to the one the assignment computes alone, bit for bit,
and pin the separable oracle, which fills the spectra of each chunk of
trials, to one fresh evaluation per trial, errors included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import oracle
from witnesslab.errors import NumericalOverflow
from witnesslab.linalg import RowMap
from witnesslab.witness import OperatorAssignment, evaluate, fill_spectra

#: A^dag A = 2 I exactly, though no row has a single nonzero.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])

#: Column scales whose products are exact, so a scaled Hadamard's A^dag A stays diagonal.
UNITS = np.array([1.0, 1j, -1.0, -1j])


def _operator(draw, rng) -> np.ndarray:
    """A row-sparse operator, a dense one of dim 1..4, or a dense one with an exactly
    diagonal A^dag A that is not a row map (Hadamard columns scaled)."""
    kind = draw(st.sampled_from(("rows", "dense", "diagonal")))
    if kind == "diagonal":
        return HADAMARD * 2.0 ** rng.integers(-3, 4, 2) * UNITS[rng.integers(0, 4, 2)]
    d = draw(st.integers(1, 4))
    if kind == "dense":
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = np.zeros((d, d), dtype=complex)
    weights = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    op[np.arange(d), rng.integers(0, d, d)] = np.where(rng.random(d) < 0.2, 0.0, weights)
    return op


@st.composite
def operator_lists(draw):
    """1-6 lists of 1-5 operators; within a list some sites share one operator object."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lists = []
    for _ in range(draw(st.integers(1, 6))):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            shared = ops and draw(st.integers(0, 3)) == 0
            ops.append(ops[draw(st.integers(0, len(ops) - 1))] if shared else _operator(draw, rng))
        lists.append(ops)
    return lists


def _same_spectra(got, want) -> bool:
    return len(got) == len(want) and all(
        evals.dtype == ref_evals.dtype
        and np.array_equal(evals, ref_evals)
        and (vecs is None) == (ref_vecs is None)
        and (vecs is None or np.array_equal(vecs, ref_vecs))
        for (evals, vecs), (ref_evals, ref_vecs) in zip(got, want)
    )


@settings(max_examples=200, deadline=None)
@given(operator_lists())
def test_batched_spectra_equal_each_assignments_own_bit_for_bit(lists):
    batch = [OperatorAssignment(ops) for ops in lists]
    fill_spectra(batch)
    for ops, assignment in zip(lists, batch):
        assert "_spectra" in vars(assignment)
        assert _same_spectra(assignment._spectra, OperatorAssignment(ops)._spectra)


def test_a_group_of_diagonal_squares_keeps_its_diagonals_beside_a_solved_one():
    """One assignment's Hadamard sites keep vecs=None; another's, beside a non-diagonal
    square of the same dim, is solved with it, as each assignment alone would."""
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alone, mixed = OperatorAssignment((HADAMARD, HADAMARD)), OperatorAssignment((HADAMARD, dense))
    assert not any(isinstance(op, RowMap) for op in alone._local)
    fill_spectra([alone, mixed])
    assert all(vecs is None for _, vecs in alone._spectra)
    assert np.array_equal(alone._spectra[0][0], [2.0, 2.0])
    assert all(vecs is not None for _, vecs in mixed._spectra)
    assert _same_spectra(mixed._spectra, OperatorAssignment((HADAMARD, dense))._spectra)


def test_an_overflow_in_the_batch_leaves_every_spectrum_to_its_assignment():
    rng = np.random.default_rng(5)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    good, bad = OperatorAssignment(ops[:2]), OperatorAssignment([ops[2], 1e200 * ops[2]])
    fill_spectra([good, bad])
    assert "_spectra" not in vars(good) and "_spectra" not in vars(bad)
    assert _same_spectra(good._spectra, OperatorAssignment(ops[:2])._spectra)
    with pytest.raises(NumericalOverflow, match=r"largest modulus \d\.\d+e\+200"):
        bad._spectra


def _run_recorded(trials, seed, **limits):
    """Run the separable trials with ``check_separable_bounds`` recorded: per trial the
    state, the assignment, whether its spectra were already kept, and the margins."""
    calls = []
    real = oracle.check_separable_bounds

    def record(state, assignment):
        filled = "_spectra" in vars(assignment)
        calls.append((state, assignment, filled, real(state, assignment)))
        return calls[-1][-1]

    with mock.patch.object(oracle, "check_separable_bounds", side_effect=record):
        summary = oracle.run_separable_trials(trials, seed, **limits)
    return summary, calls


@pytest.mark.parametrize("trials", [1, oracle._TRIAL_CHUNK, oracle._TRIAL_CHUNK + 1])
def test_chunked_trials_match_one_fresh_evaluation_each(trials):
    """Each trial is checked once, in trial order, with its spectra already filled by its
    chunk, and its margins equal evaluate on a fresh assignment of its operators."""
    seed, limits = 12, {"max_n": 5, "max_dim": 4, "max_terms": 6}
    summary, calls = _run_recorded(trials, seed, **limits)
    assert len(calls) == summary.trials == trials
    for trial, (state, assignment, filled, margins) in enumerate(calls):
        n = int(np.random.default_rng([seed, trial]).integers(2, limits["max_n"] + 1))
        assert filled and len(state.dims) == n
        report = evaluate(state, OperatorAssignment(assignment.ops))
        assert margins == (report.rhs1 - report.lhs, report.rhs2 - report.lhs)
    assert summary.worst_margin1 == min(m[0] for *_, m in calls)
    assert summary.worst_margin2 == min(m[1] for *_, m in calls)


def test_an_overflowing_trial_mid_chunk_raises_from_that_trial():
    """A trial handed an operator of modulus 1e200 raises NumericalOverflow when it is
    checked, after the trials before it in its chunk, as one trial at a time would."""
    bad_trial = oracle._TRIAL_CHUNK + 10
    drawn = []
    real = oracle.random_assignment

    def assign(dims, rng):
        assignment = real(dims, rng)
        if len(drawn) == bad_trial:
            assignment = OperatorAssignment([1e200 * op for op in assignment.ops])
        drawn.append(assignment)
        return assignment

    calls = []
    real_check = oracle.check_separable_bounds

    def check(state, assignment):
        calls.append(assignment)
        return real_check(state, assignment)

    with mock.patch.object(oracle, "random_assignment", side_effect=assign), mock.patch.object(
        oracle, "check_separable_bounds", side_effect=check
    ):
        with pytest.raises(NumericalOverflow, match=r"largest modulus \d\.\d+e\+200"):
            oracle.run_separable_trials(3 * oracle._TRIAL_CHUNK, 2)
    assert len(calls) == bad_trial + 1 and calls[-1] is drawn[bad_trial]
    assert len(drawn) == 2 * oracle._TRIAL_CHUNK
