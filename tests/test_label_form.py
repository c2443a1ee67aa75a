"""Property tests: label-form states and mixtures evaluate exactly like their explicit-ket twins."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import witness
from witnesslab.errors import BadParameter
from witnesslab.linalg import annihilation_op, kron_embed
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP, StateFamily, build_state
from witnesslab.witness import (
    OPERATOR_CHOICES,
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

#: Operator kinds drawn per site; only "gaussian" has a non-diagonal A^dag A.
OP_KINDS = ("gaussian", "annihilation", "diagonal", "raising")


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _operator(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "annihilation":
        return annihilation_op(dim)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return annihilation_op(dim).T * np.exp(1j * rng.uniform(0, 2 * np.pi))


def _pure_twins(draw, dims, rng):
    """A label-form pure state with random ket sites, and its explicit-ket twin."""
    n = len(dims)
    count = draw(st.integers(1, 5))
    ket_sites = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    amps = _unit(rng.standard_normal(count) + 1j * rng.standard_normal(count))
    labels = np.array([rng.integers(0, d, count) for d in dims]).T
    kets = {}
    for site in ket_sites:
        d = dims[site]
        kets[site] = [_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in amps]
        labels[:, site] = -1
    labelled = PureSOP.from_labels(dims, amps, labels, kets)

    terms = []
    for j, amp in enumerate(amps):
        factors = tuple(
            kets[k][j] if k in kets else np.eye(d, dtype=complex)[labels[j, k]]
            for k, d in enumerate(dims)
        )
        terms.append(ProductTerm(complex(amp), factors))
    return labelled, PureSOP(dims, tuple(terms)), bool(ket_sites)


@st.composite
def label_cases(draw):
    """(labelled state, explicit twin, assignment, labelled rhs2 route, twin rhs2 route).

    The state is pure, or a mixture of 1-3 pure components with an
    optional white-noise weight; the twin mixes the explicit-ket twins
    with the same weights.  The operators are random per site, or one of
    the named choices.  rhs2 takes the factorized route when every site
    of every component is a label site and every A^dag A is diagonal
    (never on the twin, which has only ket sites), else the eigenbasis
    route.
    """
    n = draw(st.integers(2, 4))
    named = draw(st.one_of(st.none(), st.sampled_from(tuple(OPERATOR_CHOICES))))
    if named in ("lowering", "raising", "flipped"):
        dims = (2,) * n
    else:
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    components = draw(st.integers(1, 3))
    noise = draw(st.one_of(st.none(), st.floats(0.0, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    twins = [_pure_twins(draw, dims, rng) for _ in range(components)]
    if noise is None and components == 1:
        labelled, explicit = twins[0][:2]
    else:
        noise = noise or 0.0
        weights = tuple(float(w) * (1.0 - noise) for w in rng.dirichlet(np.ones(components)))
        labelled, explicit = (
            MixedEnsemble(dims, weights, tuple(t[i] for t in twins), white_noise_weight=noise)
            for i in (0, 1)
        )
    has_kets = any(t[2] for t in twins)

    if named is not None:
        assignment = canonical_assignment(named, dims)
        non_diagonal = False
    else:
        kinds = draw(st.lists(st.sampled_from(OP_KINDS), min_size=n, max_size=n))
        assignment = OperatorAssignment(
            tuple(_operator(kind, d, rng) for kind, d in zip(kinds, dims))
        )
        non_diagonal = any(kind == "gaussian" and d > 1 for kind, d in zip(kinds, dims))
    labelled_route = "eigenbasis" if non_diagonal or has_kets else "factorized"
    return labelled, explicit, assignment, labelled_route, "eigenbasis"


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@settings(max_examples=150, deadline=None)
@given(label_cases())
def test_label_form_matches_explicit_kets_and_dense(case):
    labelled, explicit, assignment, labelled_route, explicit_route = case
    pures = (getattr(state, "pures", (state,)) for state in (labelled, explicit))
    for pure_l, pure_e in zip(*pures):
        assert len(pure_l.terms) == len(pure_e.terms)
        for got, want in zip(pure_l.terms, pure_e.terms):
            assert got.amplitude == want.amplitude
            for a, b in zip(got.factors, want.factors):
                np.testing.assert_array_equal(a, b)

    rep_l, rep_e = evaluate(labelled, assignment), evaluate(explicit, assignment)
    for field in ("lhs", "rhs1", "rhs2"):
        assert _close(getattr(rep_l, field), getattr(rep_e, field), 1e-12), field
    np.testing.assert_allclose(
        site_second_moments(labelled, assignment),
        site_second_moments(explicit, assignment),
        rtol=1e-12,
        atol=1e-12,
    )

    # both forms against both full-space references (every case fits the cap)
    ref_lhs, ref_rhs1, ref_rhs2 = sides(labelled, assignment)
    vector_rhs2 = full_space.rhs2(labelled, assignment)
    for state in (labelled, explicit):
        assert _close(abs(product_expectation(state, assignment)), ref_lhs, 1e-8)
        assert _close(rhs_condition1(state, assignment), ref_rhs1, 1e-8)
        assert _close(rhs_condition2(state, assignment), ref_rhs2, 1e-8)
        assert _close(rhs_condition2(state, assignment), vector_rhs2, 1e-8)

    # the rhs2 route follows from structure; the eigenbasis route embeds the n
    # local spectra, as the factorized one does for white noise alone, and
    # method="dense" forces the eigenbasis route, to the same bits
    n = labelled.num_sites
    noisy = getattr(labelled, "white_noise_weight", 0.0) > 0.0
    for state, route in ((labelled, labelled_route), (explicit, explicit_route)):
        assert witness._rhs2_route(state, assignment) == route
        with mock.patch.object(witness, "kron_embed", wraps=kron_embed) as embeds:
            value = rhs_condition2(state, assignment)
        assert embeds.call_count == (n if route == "eigenbasis" or noisy else 0)
        if route == "eigenbasis":
            assert value == rhs_condition2(state, assignment, method="dense")
    with pytest.raises(ValueError):
        rhs_condition2(labelled, assignment, method="fast")


@pytest.mark.parametrize(
    "family,params",
    [
        ("LSeparable", {"n": 5, "l": 2, "theta": 0.4, "thetas": [0.5, 1.0]}),
        ("MixedSingleOut", {"n": 3, "theta": 0.6, "thetas": [0.1, 0.2, 0.3]}),
        ("ModifiedFourMode", {"x": 0.3, "cutoff": 4}),
    ],
)
def test_builders_store_basis_sites_as_labels(family, params):
    """Tilted qubits stay kets; every basis-ket site is a label column."""
    state = build_state(StateFamily(family, params), tail_tol=1e-3)
    pures = getattr(state, "pures", (state,))
    for pure in pures:
        for site in range(pure.num_sites):
            labels = pure.site_labels(site)
            stack = pure.site_stack(site)
            if labels is None:
                assert np.count_nonzero(stack) > len(stack)  # genuinely tilted
            else:
                np.testing.assert_array_equal(np.argmax(np.abs(stack), axis=1), labels)


def test_from_labels_rejects_malformed_input():
    with pytest.raises(BadParameter, match="outside dimension 2 at site 1"):
        PureSOP.from_labels((2, 2), [1.0], [[0, 2]])  # label outside the dimension
    with pytest.raises(BadParameter, match="outside dimension 3 at site 1"):
        PureSOP.from_labels((2, 3, 2), [1.0, 1.0], [[0, -1, 0], [0, 0, 5]])  # first bad site
    with pytest.raises(BadParameter, match="site 0 has kets"):
        PureSOP.from_labels((2, 2), [1.0], [[0, 7]], {0: [[1.0, 0.0]]})
    with pytest.raises(BadParameter):
        PureSOP.from_labels((2, 2), [1.0], [[0.0, 1.0]])  # not integers
    with pytest.raises(BadParameter):
        PureSOP.from_labels((2, 2), [1.0], [[0, 1]], {0: [[1.0, 0.0]]})  # kets need label -1
    with pytest.raises(BadParameter):
        PureSOP.from_labels((2, 2), [1.0], [[-1, 1]], {0: [[2.0, 0.0]]})  # not unit norm


def test_state_arrays_are_read_only():
    state = build_state(StateFamily("GHZ", {"n": 3, "theta": 0.3}))
    with pytest.raises(ValueError):
        state.amplitudes()[0] = 0.0
    with pytest.raises(ValueError):
        state.site_labels(0)[0] = 1
