"""Row-sparse local operators: A^dag A kept as its diagonal.

When every row of A has at most one nonzero, the columns have disjoint
supports and A^dag A is diagonal.  The engine then keeps it, and its
powers, as 1-D arrays and never calls an eigensolver on them.  These
tests pin the diagonal to the d x d product it replaces, and check all
three sides against the full-space reference for random row-sparse
operators on every kind of state.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import witness
from witnesslab.linalg import RowMap, annihilation_op, dag
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP, StateFamily, build_state
from witnesslab.witness import (
    OperatorAssignment,
    canonical_assignment,
    evaluate,
    product_expectation,
    rhs_condition1,
    rhs_condition2,
    site_second_moments,
)

import full_space
from full_space import sides

#: (name, dim) of every named operator choice at the dims it accepts.
NAMED = [("lowering", 2), ("raising", 2), ("flipped", 2)] + [
    ("annihilation", d) for d in (2, 5, 70, 226)
]


def _dense_square(op):
    """A^dag A as the d x d Hermitian product the diagonal form replaces."""
    square = dag(op) @ op
    return 0.5 * (square + dag(square))


@pytest.mark.parametrize("name,dim", NAMED)
def test_named_choices_keep_the_exact_diagonal(name, dim):
    """The diagonal equals the d x d product's diagonal bit for bit, and is its own
    spectrum, for each named choice and for the creation operator (its transpose)."""
    n = 3
    ops = list(canonical_assignment(name, (dim,) * n).ops)
    if name == "annihilation":
        ops.append(annihilation_op(dim).T.copy())
    for op in ops:
        assignment = OperatorAssignment((op,) * n)
        assert isinstance(assignment._local[0], RowMap)
        evals, vecs = assignment._spectra[0]
        assert evals.ndim == 1 and evals.dtype == float and vecs is None
        assert np.array_equal(evals, np.diagonal(_dense_square(op)))


@pytest.mark.parametrize(
    "family,params",
    [("NModeSqueezed", {"n": 3, "x": 0.5}), ("ModifiedFourMode", {"x": 0.5})],
)
def test_fock_families_call_no_eigensolver(family, params):
    """The paper's CV examples with annihilation operators never call psd_eigh."""
    state = build_state(StateFamily(family, params))
    assignment = OperatorAssignment.annihilation(state.dims)
    with mock.patch.object(witness, "psd_eigh", wraps=witness.psd_eigh) as eigh:
        evaluate(state, assignment)
        site_second_moments(state, assignment)
    assert eigh.call_count == 0
    assert all(vecs is None for _, vecs in assignment._spectra)


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _row_sparse(draw, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Each row picks one column or none (-1); several rows may share a column.
    Moduli lie in [2^-10, 2^10], phases are uniform."""
    cols = draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim))
    op = np.zeros((dim, dim), dtype=complex)
    for row, col in enumerate(cols):
        if col >= 0:
            op[row, col] = 2.0 ** rng.uniform(-10, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return op


def _pure(draw, dims, rng: np.random.Generator) -> PureSOP:
    """A label-form, ket-form or mixed-form pure state of 1-4 terms."""
    n = len(dims)
    count = draw(st.integers(1, 4))
    form = draw(st.sampled_from(("label", "ket", "mixed")))
    amps = _unit(rng.standard_normal(count) + 1j * rng.standard_normal(count))
    if form == "ket":
        terms = [
            ProductTerm(
                complex(amp),
                tuple(_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in dims),
            )
            for amp in amps
        ]
        return PureSOP(dims, terms)
    ket_sites = draw(st.sets(st.integers(0, n - 1), min_size=1)) if form == "mixed" else set()
    labels = np.array([rng.integers(0, d, count) for d in dims]).T
    kets = {}
    for site in ket_sites:
        d = dims[site]
        kets[site] = [_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in amps]
        labels[:, site] = -1
    return PureSOP.from_labels(dims, amps, labels, kets)


@st.composite
def row_sparse_cases(draw):
    """(state, assignment of random row-sparse operators): a pure state, or a mixture
    of 1-3 pure components with an optional white-noise weight."""
    n = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = draw(st.integers(1, 3))
    noise = draw(st.one_of(st.none(), st.floats(0.0, 0.9)))
    pures = [_pure(draw, dims, rng) for _ in range(components)]
    if noise is None and components == 1:
        state = pures[0]
    else:
        noise = noise or 0.0
        weights = tuple(float(w) * (1.0 - noise) for w in rng.dirichlet(np.ones(components)))
        state = MixedEnsemble(dims, weights, tuple(pures), white_noise_weight=noise)
    assignment = OperatorAssignment(tuple(_row_sparse(draw, d, rng) for d in dims))
    return state, assignment


def _close(a, b, tol=1e-8):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@settings(max_examples=150, deadline=None)
@given(row_sparse_cases())
def test_row_sparse_operators_match_the_full_space_reference(case):
    """All three sides, and every <A_k^dag A_k>, agree with the reference built from
    the definitions, on label-form, ket-form, mixed and white-noise states."""
    state, assignment = case
    assert all(isinstance(op, RowMap) for op in assignment._local)
    ref_lhs, ref_rhs1, ref_rhs2 = sides(state, assignment)
    assert _close(abs(product_expectation(state, assignment)), ref_lhs)
    assert _close(rhs_condition1(state, assignment), ref_rhs1)
    assert _close(rhs_condition2(state, assignment), ref_rhs2)
    assert _close(rhs_condition2(state, assignment, method="dense"), ref_rhs2)

    rho = full_space._density_matrix(state)
    for k, (op, got) in enumerate(zip(assignment.ops, site_second_moments(state, assignment))):
        want = full_space._expectation(rho, full_space._embed(dag(op) @ op, k, state.dims)).real
        assert _close(got, want)
    report = evaluate(state, assignment)
    assert (report.rhs1, report.rhs2) == (
        rhs_condition1(state, assignment), rhs_condition2(state, assignment)
    )
