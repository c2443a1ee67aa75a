"""Local spectra computed for many assignments at once, and the chunked oracle stream.

A site's clamped spectrum of A^dag A depends on its own operator alone.
``fill_spectra`` stacks the d x d operators of each dim across several
assignments into one A^dag A and one ``psd_eigh``.  These tests pin every
spectrum it keeps to the one the assignment computes alone, and each
site's to the one its operator gives alone, bit for bit, and pin the
separable oracle, which fills the spectra of each chunk of trials, to one
fresh evaluation per trial, errors included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import oracle
from witnesslab.errors import NumericalOverflow
from witnesslab.linalg import RowMap
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP
from witnesslab.witness import OperatorAssignment, evaluate, fill_spectra

from full_space import sides

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
    """Every Hadamard site keeps vecs=None and its diagonal, also beside a non-diagonal
    square of the same dim in its own assignment, which is solved alone; each spectrum is
    the one its assignment computes alone."""
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alone, mixed = OperatorAssignment((HADAMARD, HADAMARD)), OperatorAssignment((HADAMARD, dense))
    assert not any(isinstance(op, RowMap) for op in alone._local)
    fill_spectra([alone, mixed])
    for evals, vecs in (*alone._spectra, mixed._spectra[0]):
        assert vecs is None and np.array_equal(evals, [2.0, 2.0])
    assert mixed._spectra[1][1] is not None
    assert _same_spectra(alone._spectra, OperatorAssignment((HADAMARD, HADAMARD))._spectra)
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


#: Sylvester-Hadamard matrices: orthogonal columns with entries +-1, none zero.
SYLVESTER = {2: HADAMARD, 4: np.kron(HADAMARD, HADAMARD)}

#: Nonzero column scales whose pairwise products are exact, so a scaled Sylvester-Hadamard
#: matrix's A^dag A is exactly diagonal.
SCALES = np.array([-3.0, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0])


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _pure(form, dims, rng) -> PureSOP:
    """A label-form or ket-form pure state of three random terms."""
    amps = _unit(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    if form == "label":
        return PureSOP.from_labels(dims, amps, np.array([rng.integers(0, d, 3) for d in dims]).T)
    kets = [tuple(_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in dims)
            for _ in amps]
    return PureSOP(dims, [ProductTerm(complex(a), k) for a, k in zip(amps, kets)])


@st.composite
def spectrum_cases(draw):
    """(state, ops) on 2-4 sites of dims 2 and 4: a scaled Sylvester-Hadamard operator and a
    complex Gaussian one of the same dim in every case, the other sites either kind, some
    sharing an object; a label or ket state, or their mixture with white noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    dims = [draw(st.sampled_from((2, 4))) for _ in range(n)]
    dims[1] = dims[0]
    ops = []
    kinds = ["hadamard", "gaussian"] + [
        draw(st.sampled_from(("hadamard", "gaussian", "shared"))) for _ in range(n - 2)
    ]
    for d, kind in zip(dims, kinds):
        same = [op for op in ops if len(op) == d]
        if kind == "shared" and same:
            ops.append(same[draw(st.integers(0, len(same) - 1))])
        elif kind == "hadamard":
            ops.append(SYLVESTER[d] * SCALES[rng.integers(0, len(SCALES), d)])
        else:
            ops.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    order = draw(st.permutations(range(n)))
    dims, ops = tuple(dims[k] for k in order), [ops[k] for k in order]
    form = draw(st.sampled_from(("label", "ket", "mixed")))
    if form == "mixed":
        pures = (_pure("label", dims, rng), _pure("ket", dims, rng))
        return MixedEnsemble(dims, (0.5, 0.3), pures, white_noise_weight=0.2), ops
    return _pure(form, dims, rng), ops


@settings(max_examples=100, deadline=None)
@given(spectrum_cases())
def test_each_sites_spectrum_is_its_operators_alone(case):
    """Every site's (evals, vecs) is bit for bit what an assignment of its operator alone
    gives, with vecs=None exactly where its own A^dag A is diagonal; the sides match the
    full-space reference, and a batch keeps each assignment's own spectra."""
    state, ops = case
    assignment = OperatorAssignment(ops)
    for op, spectrum in zip(ops, assignment._spectra):
        assert _same_spectra((spectrum,), OperatorAssignment((op,))._spectra)
        square = op.conj().T @ op
        assert (spectrum[1] is None) == (np.count_nonzero(square - np.diag(square.diagonal())) == 0)
    report = evaluate(state, assignment)
    for got, want in zip((report.lhs, report.rhs1, report.rhs2), sides(state, assignment)):
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)
    lists = [ops, ops[::-1], ops[:1], ops[1:]]
    batch = [OperatorAssignment(each) for each in lists]
    fill_spectra(batch)
    for each, batched in zip(lists, batch):
        assert _same_spectra(batched._spectra, OperatorAssignment(each)._spectra)


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
    real = oracle._assignments

    def assign(site_dims, draws):
        if len(drawn) <= bad_trial < len(drawn) + len(draws):
            draws[bad_trial - len(drawn)] = 1e200 * draws[bad_trial - len(drawn)]
        assignments = real(site_dims, draws)
        drawn.extend(assignments)
        return assignments

    calls = []
    real_check = oracle.check_separable_bounds

    def check(state, assignment):
        calls.append(assignment)
        return real_check(state, assignment)

    with mock.patch.object(oracle, "_assignments", side_effect=assign), mock.patch.object(
        oracle, "check_separable_bounds", side_effect=check
    ):
        with pytest.raises(NumericalOverflow, match=r"largest modulus \d\.\d+e\+200"):
            oracle.run_separable_trials(3 * oracle._TRIAL_CHUNK, 2)
    assert len(calls) == bad_trial + 1 and calls[-1] is drawn[bad_trial]
    assert len(drawn) == 2 * oracle._TRIAL_CHUNK
