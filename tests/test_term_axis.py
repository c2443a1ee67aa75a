"""Every state on one term axis, evaluated block by block per group of equal term count.

A state's components are concatenated on one axis of product terms and
grouped by term count; lhs, rhs1, rhs2 and the second moments are read
off one (components x terms x terms) block per group and site.  These
tests draw mixtures whose components have different term counts, so
several groups meet in one state, and check every side against the
full-space reference built from the definitions.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.errors import BadParameter, DimensionCap
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form
from witnesslab.linalg import ARRAY_BYTES_CAP
from witnesslab.states import (
    MixedEnsemble,
    ProductTerm,
    PureSOP,
    StateFamily,
    TermGroup,
    _ghz_state,
    _superposition_qubit,
    build_state,
)
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


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _component(draw, dims, rng) -> PureSOP:
    """1-4 terms with non-unit amplitudes; each site a label column or random kets."""
    count = draw(st.integers(1, 4))
    amps = 2.0 ** rng.uniform(-1, 1, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    labels = np.array([rng.integers(0, d, count) for d in dims]).T
    kets = {}
    for site, d in enumerate(dims):
        if draw(st.booleans()):
            kets[site] = [_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                          for _ in range(count)]
            labels[:, site] = -1
    return PureSOP.from_labels(dims, amps, labels, kets)


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
def term_axis_cases(draw, components=False):
    """(state, assignment): a PureSOP, or a mixture of 0-4 components of 1-4 terms each
    (some of weight zero) with an optional white-noise weight, over dims 1..3.  With
    ``components``, the PureSOPs the state was built from come third."""
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
    return (state, assignment, pures) if components else (state, assignment)


def _close(got, want, tol=1e-10):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _assert_sides_match_the_reference(state, assignment):
    lhs = abs(product_expectation(state, assignment))
    rhs1 = rhs_condition1(state, assignment)
    rhs2 = rhs_condition2(state, assignment)
    ref_lhs, ref_rhs1, ref_rhs2 = full_space.sides(state, assignment)
    assert _close(lhs, ref_lhs), (lhs, ref_lhs)
    assert _close(rhs1, ref_rhs1), (rhs1, ref_rhs1)
    assert _close(rhs2, ref_rhs2), (rhs2, ref_rhs2)
    moments = site_second_moments(state, assignment)
    for got, want in zip(moments, full_space.second_moments(state, assignment)):
        assert _close(got, want), (got, want)


@settings(max_examples=200, deadline=None)
@given(term_axis_cases())
def test_term_axis_sides_match_the_full_space_reference(case):
    """lhs, rhs1, rhs2 (auto route) and every <A_k^dag A_k> agree with the definitions to
    1e-10 on mixtures that put several term-count groups in one state."""
    _assert_sides_match_the_reference(*case)


def _assert_same_view(view, pure):
    """A component view holds its component's labels and gives the same site labels, site
    stacks and product terms."""
    np.testing.assert_array_equal(view.labels, pure.labels)
    for site in range(len(pure.dims)):
        want = pure.site_labels(site)
        got = view.site_labels(site)
        assert (got is None) == (want is None), site
        if want is not None:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(view.site_stack(site), pure.site_stack(site))
    assert len(view.terms) == len(pure.terms)
    for got, want in zip(view.terms, pure.terms):
        assert got.amplitude == want.amplitude
        for ket, other in zip(got.factors, want.factors):
            np.testing.assert_array_equal(ket, other)


@settings(max_examples=100, deadline=None)
@given(term_axis_cases(components=True))
def test_component_views_rebuild_the_state(case):
    """``pures`` is one view per component, cut from the axis: a mixture rebuilt from the
    views holds the same axis arrays and gives an identical report, each view matches the
    component it came from, and ``from_products`` builds no PureSOP."""
    state, assignment, components = case
    noise = state.white_noise_weight
    weights = getattr(state, "weights", (1.0,))
    views = state.pures if isinstance(state, MixedEnsemble) else (state,)
    assert len(views) == len(components)
    for view, pure in zip(views, components):
        _assert_same_view(view, pure)
    rebuilt = MixedEnsemble(state.dims, weights, views, noise)
    for name in ("labels", "amps", "offsets", "weight_array"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(state, name), name)
    assert list(rebuilt.kets) == list(state.kets)
    for site, stack in state.kets.items():
        np.testing.assert_array_equal(rebuilt.kets[site], stack)
    for view, pure in zip(rebuilt.pures, components):
        _assert_same_view(view, pure)
    assert evaluate(rebuilt, assignment) == evaluate(state, assignment)
    if components:
        dims, count, n = state.dims, len(components), len(state.dims)
        stacks = [np.array([pure.site_stack(k)[0] for pure in components]) for k in range(n)]
        made, setup = [], PureSOP._setup

        def spy(pure, *args):  # every PureSOP constructor ends in _setup
            made.append(type(pure))
            return setup(pure, *args)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(PureSOP, "_setup", spy)
            products = MixedEnsemble.from_products(dims, (1.0 / count,) * count, stacks)
            assert made == []
            PureSOP.from_labels(dims, (1.0,), [[0] * len(dims)])
            assert made == [PureSOP]  # the spy sees every construction
        for c, view in enumerate(products.pures):
            for k, stack in enumerate(stacks):
                np.testing.assert_array_equal(view.site_stack(k), stack[c : c + 1])


@pytest.mark.parametrize("ops", ["lowering", "random"])
@pytest.mark.parametrize("n", [3, 4])
def test_noisy_ghz_ground_evaluates_its_two_groups(n, ops):
    """NoisyGHZ with ground-state noise mixes a 2-term and a 1-term component."""
    params = {"n": n, "theta": 0.4, "p": 0.6, "noise": "ground"}
    state = build_state(StateFamily("NoisyGHZ", params))
    groups = state.term_axis.groups
    assert [group.amps.shape for group in groups] == [(1, 2), (1, 1)]
    assert [group.comps.tolist() for group in groups] == [[0], [1]]
    if ops == "lowering":
        assignment = canonical_assignment("lowering", state.dims)
    else:
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        assignment = OperatorAssignment(tuple(mats))
    _assert_sides_match_the_reference(state, assignment)


def test_a_mixture_concatenates_its_components_once():
    """Labels, kets, amplitudes, offsets and weights of the components on one axis: a site
    in ket form in any component is a ket site of the axis, with basis kets written out,
    and each row keeps the basis label its component gave (-1 where it gave kets)."""
    tilted = _unit(np.array([1.0, 2.0 + 1.0j]))
    ghz = PureSOP.from_labels((2, 2), (0.6, 0.8), [[0, 0], [1, 1]])
    product = PureSOP.from_labels((2, 2), (1.0,), [[-1, 1]], {0: [tilted]})
    state = MixedEnsemble((2, 2), (0.25, 0.75), (ghz, product))
    axis = state.term_axis
    assert axis.offsets.tolist() == [0, 2, 3]
    assert axis.weights == (0.25, 0.75)
    assert axis.weight_array.tolist() == [0.25, 0.75]
    assert axis.amps.tolist() == [0.6, 0.8, 1.0]
    assert axis.labels.tolist() == [[0, 0], [1, 1], [-1, 1]]
    np.testing.assert_array_equal(axis.kets[0], [[1, 0], [0, 1], tilted])
    assert list(axis.kets) == [0]
    assert state.term_axis is axis
    with pytest.raises(ValueError):
        axis.labels[0, 0] = 0


def test_label_sites_under_dense_operators_write_out_no_kets(monkeypatch):
    """Hadamards are dense (two nonzeros per row) with an exactly diagonal A^dag A, so every
    side reads a label mixture's sites by lookup: no basis ket is written out, and the
    report matches the full-space reference."""
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    assignment = OperatorAssignment((h2, np.kron(h2, h2), 1j * h2))
    assert all(vecs is None for _, vecs in assignment._spectra)
    dims = (2, 4, 2)
    pures = [
        PureSOP.from_labels(dims, [1.0], [[1, 3, 0]]),
        PureSOP.from_labels(dims, [0.6, 0.8j], [[0, 2, 1], [1, 0, 1]]),
        PureSOP.from_labels(dims, [0.8, -0.6], [[1, 1, 0], [1, 1, 1]]),
    ]
    state = MixedEnsemble(dims, (0.5, 0.3, 0.2), pures)
    assert all(not group.kets for group in state.groups)

    def refuse(labels, dim):
        raise AssertionError("a label site's basis kets were written out")

    monkeypatch.setattr("witnesslab.states._basis_kets", refuse)
    sides = (abs(product_expectation(state, assignment)), rhs_condition1(state, assignment),
             rhs_condition2(state, assignment))
    monkeypatch.undo()
    for got, want in zip(sides, full_space.sides(state, assignment)):
        assert _close(got, want), (got, want)


def test_label_site_kets_are_checked_against_the_byte_budget(monkeypatch):
    """rhs1 reads a label site under a non-diagonal A^dag A from its basis kets, written
    out (G x t x dim) only after the byte budget admits them."""
    rng = np.random.default_rng(4)
    state = PureSOP.from_labels((8, 2), [0.6, 0.64j, 0.48], [[0, 0], [3, 1], [7, 0]])
    ops = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (8, 2))
    reference = rhs_condition1(state, OperatorAssignment(ops))
    # the 3 x 3 block (144 B) fits, site 0's 3 x 8 basis kets (384 B) do not
    monkeypatch.setattr("witnesslab.linalg.ARRAY_BYTES_CAP", 200)
    fresh = PureSOP.from_labels((8, 2), [0.6, 0.64j, 0.48], [[0, 0], [3, 1], [7, 0]])
    with pytest.raises(DimensionCap, match="term group: basis kets of 24 entries"):
        rhs_condition1(fresh, OperatorAssignment(ops))
    monkeypatch.undo()
    assert rhs_condition1(fresh, OperatorAssignment(ops)) == reference


def test_rotations_are_shared_by_rhs1_and_rhs2(monkeypatch):
    """One state and one assignment: each site's kets are rotated into the eigenbasis once,
    for one-term components and for a two-term state, whose rhs1 alone rotates them."""
    rng = np.random.default_rng(8)
    dims = (2, 3, 2)
    stacks = [np.array([_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                        for _ in range(3)]) for d in dims]
    state = MixedEnsemble.from_products(dims, (0.2, 0.3, 0.5), stacks)
    assignment = OperatorAssignment(
        tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims)
    )
    (group,) = state.term_axis.groups
    rhs_condition2(state, assignment)
    bases = [vecs for _, vecs in assignment._spectra]
    rotated = [group.rotated(site, vecs) for site, vecs in enumerate(bases)]
    rhs_condition1(state, assignment)
    site_second_moments(state, assignment)
    assert all(group.rotated(site, bases[site]) is rotated[site] for site in range(3))

    calls = []
    rotate = TermGroup.rotated

    def spy(group, site, basis):
        calls.append((site, rotate(group, site, basis)))
        return calls[-1][1]

    monkeypatch.setattr(TermGroup, "rotated", spy)
    terms = [ProductTerm(amp, tuple(_unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                                    for d in dims)) for amp in (0.6, 0.8j)]
    state = PureSOP(dims, terms).normalized()
    assignment = OperatorAssignment(
        tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims)
    )
    rhs_condition1(state, assignment)
    assert sorted(site for site, _ in calls) == [0, 1, 2]
    rotated = dict(calls)
    calls.clear()
    rhs_condition2(state, assignment)
    assert sorted(site for site, _ in calls) == [0, 1, 2]
    assert all(kets is rotated[site] for site, kets in calls)


def test_from_products_checks_every_ket_and_shape():
    good = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    state = MixedEnsemble.from_products((2, 2), (0.5, 0.5), good)
    assert [pure.site_stack(1).tolist() for pure in state.pures] == [[[1, 0]], [[0, 1]]]
    assert [stack.tolist() for stack in state.term_axis.kets.values()] == [
        [[1, 0], [0, 1]], [[1, 0], [0, 1]]
    ]
    with pytest.raises(BadParameter, match="unit-normalized"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), [good[0], 2 * good[1]])
    with pytest.raises(BadParameter, match="shape"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), [good[0], good[1][:1]])
    with pytest.raises(BadParameter, match="stacks"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.5), good[:1])
    with pytest.raises(BadParameter, match="sum to"):
        MixedEnsemble.from_products((2, 2), (0.5, 0.4), good)


@pytest.mark.parametrize("n", [50, 200])
def test_mixed_single_out_at_large_n_matches_the_closed_form(n):
    """lhs and rhs1 of MixedSingleOut under lowering, times n, match MIXED_C1 at sizes
    where evaluate refuses the eigenbasis rhs2, with tilts that differ per site."""
    params = {"n": n, "theta": 0.3, "thetas": [0.2 + 0.001 * i for i in range(n)]}
    state = build_state(StateFamily("MixedSingleOut", params))
    assignment = canonical_assignment("lowering", state.dims)
    lhs = n * abs(product_expectation(state, assignment))
    rhs1 = n * rhs_condition1(state, assignment)
    want_lhs, want_rhs1 = closed_form(FormulaId.MIXED_C1, params)
    assert abs(lhs - want_lhs) <= EXACT_TOL, (lhs, want_lhs)
    assert abs(rhs1 - want_rhs1) <= EXACT_TOL, (rhs1, want_rhs1)
    assert math.isfinite(lhs) and lhs > 0.0


def _hadamards(dims) -> OperatorAssignment:
    """A Hadamard on every qubit: dense, with A^dag A = 2 I exactly diagonal."""
    return OperatorAssignment((np.array([[1.0, 1.0], [1.0, -1.0]]),) * len(dims))


_EIGEN_CASES = [
    ("GHZ", {"n": 5, "theta": 0.7}, "lowering"),
    ("TwoGroupGHZ", {"n": 5, "l": 2, "theta1": 0.3, "theta2": 0.9}, "flipped"),
    ("NoisyGHZ", {"n": 3, "theta": 0.5, "p": 0.7, "noise": "ground"}, "lowering"),
    ("NoisyGHZ", {"n": 3, "theta": 0.5, "p": 0.7, "noise": "white"}, "lowering"),
    ("NModeSqueezed", {"n": 3, "x": 0.3}, "annihilation"),
    ("GHZ", {"n": 5, "theta": 0.7}, "hadamard"),
]


def _spy_quadratic(monkeypatch) -> list:
    """Record the shape of every block stack passed to ``TermGroup.quadratic``."""
    shapes, quadratic = [], TermGroup.quadratic

    def spy(group, blocks):
        shapes.append(blocks.shape)
        return quadratic(group, blocks)

    monkeypatch.setattr(TermGroup, "quadratic", spy)
    return shapes


@pytest.mark.parametrize("family,params,ops", _EIGEN_CASES)
def test_eigen_sites_take_no_quadratic_form(monkeypatch, family, params, ops):
    """Every site of these label states is an eigen site, a label site whose A^dag A is
    diagonal: rhs1, the second moments and the factorized rhs2 read each as one weighted
    sum of its eigenvalues, so no block is formed, and they match the full-space
    reference."""
    state = build_state(StateFamily(family, params))
    assignment = _hadamards(state.dims) if ops == "hadamard" else canonical_assignment(
        ops, state.dims
    )
    assert not state.kets and all(vecs is None for _, vecs in assignment._spectra)
    shapes = _spy_quadratic(monkeypatch)
    rhs1 = rhs_condition1(state, assignment)
    moments = site_second_moments(state, assignment)
    rhs2 = rhs_condition2(state, assignment)
    assert shapes == []
    monkeypatch.undo()
    _, want_rhs1, want_rhs2 = full_space.sides(state, assignment)
    assert _close(rhs1, want_rhs1), (rhs1, want_rhs1)
    assert _close(rhs2, want_rhs2), (rhs2, want_rhs2)
    for got, want in zip(moments, full_space.second_moments(state, assignment)):
        assert _close(got, want), (got, want)


def test_lseparable_forms_blocks_for_its_ket_sites_only(monkeypatch):
    """LSeparable's tilted sites hold kets and its others are eigen sites under lowering:
    rhs1 and the second moments each take one (G x t x t) quadratic form per ket site and
    none for an eigen site, and rhs2 takes the eigenbasis route's one block per term group."""
    params = {"n": 5, "l": 2, "theta": 0.4, "thetas": [0.5, 1.0]}
    state = build_state(StateFamily("LSeparable", params))
    assignment = canonical_assignment("lowering", state.dims)
    (group,) = state.groups
    block = (*group.amps.shape, group.amps.shape[1])  # G x t x t
    assert 0 < len(state.kets) < len(state.dims)
    shapes = _spy_quadratic(monkeypatch)
    for moments in (rhs_condition1, site_second_moments):
        moments(state, assignment)
        assert shapes == [block] * len(state.kets)
        shapes.clear()
    rhs_condition2(state, assignment)
    assert shapes == [block]


def test_eigen_sites_keep_rhs1_and_rhs2_within_the_budget():
    """NModeSqueezed n=64, x=0.994 (1914 terms, 64 eigen sites): rhs1 and then rhs2 on a
    fresh state peak under twice the byte budget; a (terms x terms) block per site and
    every site's kept gram took 314 MiB."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 64, "x": 0.994}))
    assignment = canonical_assignment("annihilation", state.dims)
    tracemalloc.start()
    try:
        rhs1 = rhs_condition1(state, assignment)
        rhs2 = rhs_condition2(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ARRAY_BYTES_CAP, peak
    assert math.isfinite(rhs1) and math.isfinite(rhs2) and rhs1 > 0.0 and rhs2 > 0.0


def _assert_same_axis(got, want):
    """Equal axis arrays (dtype and bits), ket sites in the same order, equal weights."""
    for name in ("labels", "amps", "offsets", "weight_array"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert list(got.kets) == list(want.kets)
    for site, stack in want.kets.items():
        assert got.kets[site].dtype == stack.dtype and np.array_equal(got.kets[site], stack)
    assert got.weights == want.weights and got.white_noise_weight == want.white_noise_weight


_ANGLES = st.floats(-7.0, 7.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(_ANGLES, st.lists(_ANGLES, min_size=n, max_size=n))
))
def test_mixed_single_out_axis_equals_its_concatenated_components(case):
    """The builder writes the mixture's axis directly, bit for bit the axis that
    concatenating its n tilted GHZ components as PureSOPs gives."""
    theta, thetas = case
    n = len(thetas)
    state = build_state(StateFamily("MixedSingleOut", {"n": n, "theta": theta, "thetas": thetas}))
    pures = [_ghz_state(n, theta, tilted={i: _superposition_qubit(t)}) for i, t in enumerate(thetas)]
    _assert_same_axis(state, MixedEnsemble((2,) * n, (1.0 / n,) * n, pures))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12), _ANGLES, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from(("ground", "white")),
)
def test_noisy_ghz_axis_equals_its_concatenated_components(n, theta, p, noise):
    """NoisyGHZ's directly written axis equals GHZ plus |0...0> (ground noise) or GHZ with
    white noise, built from PureSOPs."""
    state = build_state(StateFamily("NoisyGHZ", {"n": n, "theta": theta, "p": p, "noise": noise}))
    ghz, dims = _ghz_state(n, theta), (2,) * n
    if noise == "ground":
        ground = PureSOP.from_labels(dims, (1.0,), np.zeros((1, n), dtype=np.int64))
        want = MixedEnsemble(dims, (p, 1.0 - p), (ghz, ground))
    else:
        want = MixedEnsemble(dims, (p,), (ghz,), white_noise_weight=1.0 - p)
    _assert_same_axis(state, want)
