"""Row-sparse local operators kept as row maps, A = sum_i w_i |i><c_i|.

Every named operator choice is built as a row map, with no d x d matrix,
and a d x d operator with at most one nonzero per row is read into one.
lhs takes all the label sites of a term group whose operators are row
maps as one block.  These tests pin the named constructors to the same
operators given as dense matrices, report for report and bit for bit,
check both against the full-space reference built from the definitions,
bound the memory of the named path, and check that a named choice's row
maps are checked only where they are built.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.errors import DimensionMismatch
from witnesslab.linalg import (
    CheckedRowMap,
    RowMap,
    annihilation_op,
    annihilation_rows,
    dag,
    qubit_lowering_rows,
)
from witnesslab.states import MixedEnsemble, PureSOP, StateFamily, build_state
from witnesslab.witness import (
    OperatorAssignment,
    canonical_assignment,
    evaluate,
    product_expectation,
    site_second_moments,
)

import full_space


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _component(draw, dims, rng) -> PureSOP:
    """1-4 terms with non-unit amplitudes; each site a label column or random kets, so
    ket sites fall anywhere among the label sites."""
    count = draw(st.integers(1, 4))
    amps = 2.0 ** rng.uniform(-1, 1, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    labels = np.array([rng.integers(0, d, count) for d in dims]).T
    kets = {}
    for site, d in enumerate(dims):
        if draw(st.integers(0, 2)) == 0:
            kets[site] = [_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                          for _ in range(count)]
            labels[:, site] = -1
    return PureSOP.from_labels(dims, amps, labels, kets)


def _state(draw, dims, rng):
    """A pure state, or a mixture of 1-3 components with an optional white-noise weight."""
    count = draw(st.integers(1, 3))
    pures = tuple(_component(draw, dims, rng) for _ in range(count))
    noise = draw(st.sampled_from((0.0, 0.0, 0.4)))
    if count == 1 and noise == 0.0 and draw(st.booleans()):
        return pures[0]
    weights = tuple(float(w) * (1.0 - noise) for w in rng.dirichlet(np.ones(count)))
    return MixedEnsemble(dims, weights, pures, white_noise_weight=noise)


@st.composite
def named_cases(draw):
    """(name, state): qubit choices on 2-5 qubits, annihilation on dims 1..5."""
    name = draw(st.sampled_from(("lowering", "raising", "flipped", "annihilation")))
    n = draw(st.integers(2, 5 if name != "annihilation" else 4))
    if name == "annihilation":
        dims = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    else:
        dims = (2,) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return name, _state(draw, dims, rng)


def _shared_columns(draw, dim, rng) -> np.ndarray:
    """Row-sparse with complex entries of moduli in [2^-4, 2^4], every row pointing into
    the first half of the columns (or none), so several rows share a column."""
    op = np.zeros((dim, dim), dtype=complex)
    cols = draw(st.lists(st.integers(-1, (dim - 1) // 2), min_size=dim, max_size=dim))
    for row, col in enumerate(cols):
        if col >= 0:
            op[row, col] = 2.0 ** rng.uniform(-4, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return op


@st.composite
def shared_column_cases(draw):
    """(state, dense row-sparse operators with shared columns) over dims 1..4."""
    n = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _state(draw, dims, rng), tuple(_shared_columns(draw, d, rng) for d in dims)


def _close(got, want, tol=1e-10):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _assert_matches_the_reference(state, assignment, report):
    lhs, rhs1, rhs2 = full_space.sides(state, assignment)
    assert _close(report.lhs, lhs), (report.lhs, lhs)
    assert _close(report.rhs1, rhs1), (report.rhs1, rhs1)
    assert _close(report.rhs2, rhs2), (report.rhs2, rhs2)


@settings(max_examples=150, deadline=None)
@given(named_cases())
def test_named_choices_equal_their_dense_matrices_bit_for_bit(case):
    """A named choice and the same operators given as dense matrices, one copy per site,
    give equal reports, lhs and second moments; both match the reference to 1e-10."""
    name, state = case
    named = canonical_assignment(name, state.dims)
    dense = OperatorAssignment(tuple(op.copy() for op in named.ops))
    report = evaluate(state, named)
    assert report == evaluate(state, dense)
    assert product_expectation(state, named) == product_expectation(state, dense)
    assert np.array_equal(site_second_moments(state, named), site_second_moments(state, dense))
    _assert_matches_the_reference(state, named, report)


@settings(max_examples=150, deadline=None)
@given(shared_column_cases())
def test_rows_sharing_a_column_sum_into_the_square(case):
    """A^dag A of a row-sparse operator whose rows share columns: the diagonal is the
    column sums of |A_ij|^2 bit for bit and dag(A) @ A's diagonal to round-off, with zeros
    off it; the sides match the reference, and equal those of the row maps given directly."""
    state, ops = case
    assignment = OperatorAssignment(ops)
    for op, (evals, vecs) in zip(ops, assignment._spectra):
        product = dag(op) @ op
        assert vecs is None
        assert np.array_equal(evals, (op.real**2 + op.imag**2).sum(axis=0))
        assert np.allclose(evals, np.diagonal(product).real, rtol=1e-14, atol=0)
        assert not np.any(product - np.diag(np.diagonal(product)))
    report = evaluate(state, assignment)
    _assert_matches_the_reference(state, assignment, report)
    rows = OperatorAssignment(tuple(RowMap.of(op) for op in ops))
    assert evaluate(state, rows) == report
    assert all(np.array_equal(a, b) for a, b in zip(rows.ops, ops))


def test_row_maps_read_back_their_matrices():
    """RowMap.of reads a row-sparse matrix, refuses one with two nonzeros in a row, and
    its dense matrix, trace and A^dag A are the matrix's own."""
    op = np.array([[0, 2j, 0], [0, 0, 0], [0, -1.5, 0]], dtype=complex)
    rows = RowMap.of(op)
    assert rows.cols.tolist() == [1, 0, 1] and rows.weights.tolist() == [2j, 0, -1.5]
    assert not rows.cols.flags.writeable and not rows.weights.flags.writeable
    assert np.array_equal(rows.dense(), op)
    assert rows.trace() == np.trace(op)
    assert np.array_equal(rows.square(), np.diagonal(dag(op) @ op).real)
    assert RowMap.of(np.eye(3) + np.eye(3, k=1)) is None


def test_the_named_path_builds_no_d_by_d_matrix():
    """Four annihilation operators of d = 2048 and their spectra take under 1 MiB, where
    one d x d complex matrix is 64 MiB; ``ops`` is then built once, read-only, shared by
    the four sites and equal to annihilation_op bit for bit."""
    tracemalloc.start()
    try:
        assignment = canonical_assignment("annihilation", (2048,) * 4)
        spectra = assignment._spectra
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert all(vecs is None for _, vecs in spectra)
    ops = assignment.ops
    assert assignment.ops is ops and all(op is ops[0] for op in ops)
    assert not ops[0].flags.writeable
    assert np.array_equal(ops[0], annihilation_op(2048))


@pytest.mark.parametrize("name", ["lowering", "raising", "flipped"])
def test_qubit_choices_are_the_qubit_matrices(name):
    """The qubit row maps are |0><1| and |1><0| as dense matrices."""
    lowering = np.array([[0, 1], [0, 0]], dtype=complex)
    want = {"lowering": (lowering,) * 3, "raising": (lowering.T,) * 3,
            "flipped": (lowering.T, lowering, lowering)}[name]
    got = canonical_assignment(name, (2, 2, 2)).ops
    assert all(np.array_equal(a, b) and a.dtype == complex for a, b in zip(got, want))


def test_row_maps_given_to_the_constructor_are_the_named_choice():
    """Row maps passed to OperatorAssignment are read as row maps: the lowering maps on
    GHZ n=3 give the named choice's report field for field, and a 3-level map has dim 3."""
    state = build_state(StateFamily("GHZ", {"n": 3, "theta": 0.4}))
    report = evaluate(state, OperatorAssignment((qubit_lowering_rows(),) * 3))
    assert report == evaluate(state, canonical_assignment("lowering", state.dims))
    assert report.detected1 and report.lhs == pytest.approx(0.3587, abs=1e-4)
    assert OperatorAssignment((annihilation_rows(3),) * 2).dims == (3, 3)


@pytest.mark.parametrize(
    "name,dim",
    [("lowering", 2), ("raising", 2), ("flipped", 2)]
    + [("annihilation", d) for d in (2, 30, 2048)],
)
def test_named_choices_check_no_row_map_twice(name, dim):
    """A named choice's row maps are built valid and kept as they are, with no call to
    RowMap.checked; the same arrays handed over as a caller's RowMap are checked once."""
    real = RowMap.checked
    with mock.patch.object(RowMap, "checked", autospec=True, side_effect=real) as checked:
        assignment = canonical_assignment(name, (dim,) * 3)
        assert checked.call_count == 0
        assert all(isinstance(op, CheckedRowMap) for op in assignment._local)
        rows = RowMap(*assignment._local[-1])
        copied = OperatorAssignment((rows,) * 3)
        assert checked.call_count == 1
    assert type(copied._local[0]) is CheckedRowMap and copied._local[0] is not rows
    assert all(np.array_equal(a, b) for a, b in zip(copied._local[0], rows))


@pytest.mark.parametrize(
    "cols,weights,error,match",
    [
        ([1, 2, 3], [1.0, 1.0, 1.0], DimensionMismatch, "columns must be integers in"),
        ([1, -1, 0], [1.0, 1.0, 1.0], DimensionMismatch, "columns must be integers in"),
        ([1.0, 2.0, 0.0], [1.0, 1.0, 1.0], DimensionMismatch, "columns must be integers in"),
        ([1, 2, 0], [1.0, np.inf, 1.0], ValueError, "non-finite"),
        ([1, 2, 0], [1.0, np.nan, 1.0], ValueError, "non-finite"),
        ([1, 2, 0], [1.0, 1.0], DimensionMismatch, "d >= 1 columns and as many weights"),
        ([[1, 2, 0]], [[1.0, 1.0, 1.0]], DimensionMismatch, "d >= 1 columns and as many weights"),
        (np.zeros(0, dtype=int), np.zeros(0), DimensionMismatch, "d >= 1 columns and as many weights"),
    ],
    ids=["column-past-d", "negative-column", "float-columns", "inf-weight", "nan-weight",
         "ragged", "two-dimensional", "empty"],
)
def test_malformed_row_maps_are_refused(cols, weights, error, match):
    rows = RowMap(np.array(cols), np.array(weights))
    with pytest.raises(error, match=match):
        OperatorAssignment((rows, rows))


def test_a_row_map_shared_by_two_sites_is_kept_once():
    """Two sites given one row map share one checked, read-only copy of it, which later
    writes to the given arrays leave alone; each distinct map is its own."""
    cols, weights = np.array([1, 2, 0]), np.array([1.0, 2.0j, 0.5])
    rows = RowMap(cols, weights)
    assignment = OperatorAssignment((rows, rows, annihilation_rows(3)))
    kept = assignment._local
    assert kept[0] is kept[1] and kept[2] is not kept[0]
    assert not kept[0].cols.flags.writeable and not kept[0].weights.flags.writeable
    cols[0], weights[0] = 0, 9.0
    assert kept[0].cols.tolist() == [1, 2, 0] and kept[0].weights.tolist() == [1.0, 2.0j, 0.5]
    assert assignment.ops[0] is assignment.ops[1]
    assert np.array_equal(assignment.ops[0], RowMap.build([1, 2, 0], [1.0, 2.0j, 0.5]).dense())
