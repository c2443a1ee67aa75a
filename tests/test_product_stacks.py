"""Mixtures of one-term product states, evaluated from one ket stack per site.

When every pure component is one product term, lhs, rhs1, rhs2 and the
second moments are read off the state's ``product_stacks``: the weights
``w_c |a_c|^2`` and one (components x dim) ket stack per site.  These
tests check every side against the full-space reference on every kind
of such state, and that no per-component pair matrix is built.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import witness
from witnesslab.errors import BadParameter
from witnesslab.linalg import kron_embed
from witnesslab.states import MixedEnsemble, PureSOP
from witnesslab.witness import (
    OperatorAssignment,
    product_expectation,
    rhs_condition1,
    rhs_condition2,
    site_second_moments,
)

import full_space


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _component(draw, dims, rng) -> PureSOP:
    """One product term with a non-unit amplitude; each site a basis label or a random ket."""
    amp = 2.0 ** rng.uniform(-1, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    labels = np.array([[int(rng.integers(0, d)) for d in dims]])
    kets = {}
    for site, d in enumerate(dims):
        if draw(st.booleans()):
            kets[site] = [_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))]
            labels[0, site] = -1
    return PureSOP.from_labels(dims, (amp,), labels, kets)


def _operator(draw, dim, rng) -> np.ndarray:
    """A dense complex Gaussian operator, or a row-sparse one (A^dag A kept 1-D)."""
    if draw(st.booleans()):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = np.zeros((dim, dim), dtype=complex)
    for row, col in enumerate(draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim))):
        if col >= 0:
            op[row, col] = rng.standard_normal() + 1j * rng.standard_normal()
    return op


@st.composite
def product_cases(draw):
    """(state, assignment): a one-term PureSOP, or a mixture of 0-4 one-term components
    (some of weight zero) with an optional white-noise weight; 0 components means
    white noise alone."""
    n = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 4))
    noise = 1.0 if count == 0 else draw(st.sampled_from((0.0, 0.0, 0.3)))
    pures = tuple(_component(draw, dims, rng) for _ in range(count))
    if count == 1 and noise == 0.0 and draw(st.booleans()):
        state = pures[0]
    else:
        weights = rng.dirichlet(np.ones(count)) if count else np.zeros(0)
        if count > 1 and draw(st.booleans()):
            weights[0] = 0.0
            weights /= weights.sum()
        weights = tuple(float(w) * (1.0 - noise) for w in weights)
        state = MixedEnsemble(dims, weights, pures, white_noise_weight=noise)
    assignment = OperatorAssignment(tuple(_operator(draw, d, rng) for d in dims))
    return state, assignment


def _close(got, want, tol=1e-10):
    return abs(got - want) <= tol * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(product_cases())
def test_stacked_sides_match_the_full_space_reference(case):
    """lhs, rhs1, rhs2 and every <A_k^dag A_k> agree with the definitions to 1e-10,
    with no pair matrix and no full-space embed."""
    state, assignment = case
    assert state.product_stacks is not None
    with (
        mock.patch.object(PureSOP, "pair_matrix", side_effect=AssertionError) as pairs,
        mock.patch.object(witness, "kron_embed", wraps=kron_embed) as embeds,
    ):
        lhs = abs(product_expectation(state, assignment))
        rhs1 = rhs_condition1(state, assignment)
        rhs2 = rhs_condition2(state, assignment)
        moments = site_second_moments(state, assignment)
    assert pairs.call_count == embeds.call_count == 0
    assert witness._rhs2_route(state, assignment) in ("factorized", "eigenbasis")
    ref_lhs, ref_rhs1, ref_rhs2 = full_space.sides(state, assignment)
    assert _close(lhs, ref_lhs), (lhs, ref_lhs)
    assert _close(rhs1, ref_rhs1), (rhs1, ref_rhs1)
    assert _close(rhs2, ref_rhs2), (rhs2, ref_rhs2)
    for got, want in zip(moments, full_space.second_moments(state, assignment)):
        assert _close(got, want), (got, want)


def test_multi_term_components_have_no_product_stacks():
    """A component of two terms keeps the pair-matrix routes."""
    labels = np.array([[0, 0], [1, 1]])
    ghz = PureSOP.from_labels((2, 2), (0.6, 0.8), labels)
    ground = PureSOP.from_labels((2, 2), (1.0,), labels[:1])
    assert ghz.product_stacks is None
    assert ground.product_stacks is not None
    assert MixedEnsemble((2, 2), (0.5, 0.5), (ghz, ground)).product_stacks is None


def test_rotations_are_shared_by_rhs1_and_rhs2():
    """One state and one assignment: each site's kets are rotated into the eigenbasis once."""
    rng = np.random.default_rng(8)
    dims = (2, 3, 2)
    stacks = [np.array([_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                        for _ in range(3)]) for d in dims]
    state = MixedEnsemble.from_products(dims, (0.2, 0.3, 0.5), stacks)
    assignment = OperatorAssignment(
        tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims)
    )
    products = state.product_stacks
    rhs_condition2(state, assignment)
    rotated = [products.squared_overlaps(site, vecs) for site, (_, vecs) in
               enumerate(assignment._spectra)]
    rhs_condition1(state, assignment)
    site_second_moments(state, assignment)
    assert all(products._squared[site][1] is rotated[site] for site in range(3))


def test_from_products_checks_every_ket_and_shape():
    good = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    state = MixedEnsemble.from_products((2, 2), (0.5, 0.5), good)
    assert [pure.site_stack(1).tolist() for pure in state.pures] == [[[1, 0]], [[0, 1]]]
    with pytest.raises(BadParameter, match="unit-normalized"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), [good[0], 2 * good[1]])
    with pytest.raises(BadParameter, match="shape"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), [good[0], good[1][:1]])
    with pytest.raises(BadParameter, match="stacks"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), good[:1])
    with pytest.raises(BadParameter, match="sum to"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.4), good)
