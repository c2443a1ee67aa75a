"""Tests for the state-family constructors."""

import math

import numpy as np
import pytest

from witnesslab.errors import BadParameter, TruncationTooCoarse
from witnesslab.oracle import random_pure_state
from witnesslab.states import (
    MixedEnsemble,
    ProductTerm,
    PureSOP,
    StateFamily,
    auto_cutoff,
    build_state,
    dense_vector,
    tail_weight,
)
from witnesslab.witness import OperatorAssignment, product_expectation


def test_ghz_amplitudes():
    """cos/sin weighting on the all-zero and all-one strings."""
    state = build_state(StateFamily("GHZ", {"n": 3, "theta": math.pi / 6}))
    vec = dense_vector(state)
    assert vec[0] == pytest.approx(math.cos(math.pi / 6))
    assert vec[-1] == pytest.approx(math.sin(math.pi / 6))
    assert np.count_nonzero(np.abs(vec) > 1e-12) == 2


def test_flipped_ghz_amplitudes():
    """First spin flipped: weight on |100...> and |011...>."""
    n = 4
    state = build_state(StateFamily("FlippedGHZ", {"n": n, "theta": 0.3}))
    vec = dense_vector(state)
    assert vec[1 << (n - 1)] == pytest.approx(math.cos(0.3))
    assert vec[(1 << (n - 1)) - 1] == pytest.approx(math.sin(0.3))


def test_noisy_ghz_white_components():
    state = build_state(
        StateFamily("NoisyGHZ", {"n": 3, "theta": math.pi / 6, "p": 0.8, "noise": "white"})
    )
    assert isinstance(state, MixedEnsemble)
    assert state.weights == (0.8,)
    assert state.white_noise_weight == pytest.approx(0.2)
    assert len(state.pures) == 1


def test_noisy_ghz_ground_components():
    state = build_state(
        StateFamily("NoisyGHZ", {"n": 3, "theta": 0.4, "p": 0.6, "noise": "ground"})
    )
    assert state.weights == (0.6, 0.4)
    assert state.white_noise_weight == 0.0
    ground = dense_vector(state.pures[1])
    assert ground[0] == pytest.approx(1.0)


def test_squeezed_amplitudes_match_geometric_normalization():
    """Amplitudes are x^m over the explicit truncated geometric norm."""
    x, cutoff = 0.5, 40
    state = build_state(StateFamily("NModeSqueezed", {"n": 3, "x": x, "cutoff": cutoff}))
    # independent oracle: brute-force normalization of the kept weights
    norm = math.sqrt(sum(x ** (2 * m) for m in range(cutoff + 1)))
    for m, term in enumerate(state.terms):
        assert term.amplitude == pytest.approx(x**m / norm, rel=1e-13)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert tail_weight(x, cutoff) == pytest.approx(0.25**41)


def test_squeezed_amplitude_recursion():
    state = build_state(StateFamily("NModeSqueezed", {"n": 3, "x": 0.37, "cutoff": 25}))
    amps = state.amplitudes()
    ratios = amps[1:] / amps[:-1]
    np.testing.assert_allclose(ratios.real, 0.37, rtol=2e-15)


def test_tail_weight_values():
    assert tail_weight(0.5, 10) == pytest.approx(0.25**11)
    assert tail_weight(0.9, 0) == pytest.approx(0.81)
    assert tail_weight(0.9, 500) < 1e-45


def test_auto_cutoff_minimal():
    """auto_cutoff returns the smallest cutoff meeting the tolerance."""
    for x in (0.1, 0.5, 0.9, 0.99):
        cut = auto_cutoff(x, 1e-10)
        assert tail_weight(x, cut) <= 1e-10
        assert cut == 1 or tail_weight(x, cut - 1) > 1e-10


def test_truncation_too_coarse():
    with pytest.raises(TruncationTooCoarse):
        build_state(StateFamily("NModeSqueezed", {"n": 3, "x": 0.9, "cutoff": 3}))
    # same cutoff is fine under a looser tolerance
    build_state(StateFamily("NModeSqueezed", {"n": 3, "x": 0.9, "cutoff": 3}), tail_tol=0.5)


ALL_FAMILIES = [
    ("GHZ", {"n": 4, "theta": 0.7}),
    ("FlippedGHZ", {"n": 3, "theta": 1.1}),
    ("TwoGroupGHZ", {"n": 5, "l": 2, "theta1": 0.3, "theta2": 0.9}),
    ("LSeparable", {"n": 5, "l": 2, "theta": 0.4, "thetas": [0.5, 1.0]}),
    ("MixedSingleOut", {"n": 4, "theta": 0.6, "thetas": [0.1, 0.2, 0.3, 0.4]}),
    ("NoisyGHZ", {"n": 3, "theta": 0.5, "p": 0.7, "noise": "white"}),
    ("NoisyGHZ", {"n": 3, "theta": 0.5, "p": 0.7, "noise": "ground"}),
    ("NModeSqueezed", {"n": 3, "x": 0.6}),
    ("ModifiedFourMode", {"x": 0.4}),
]


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_unit_norm(family, params):
    """Every built state is normalized (weights for mixtures)."""
    state = build_state(StateFamily(family, params))
    if isinstance(state, PureSOP):
        assert state.norm() == pytest.approx(1.0, abs=1e-10)
    else:
        assert sum(state.weights) + state.white_noise_weight == pytest.approx(1.0, abs=1e-12)
        for pure in state.pures:
            assert pure.norm() == pytest.approx(1.0, abs=1e-10)


def _assert_pair_matrices(state, rng):
    """On every site of every pure component, pair_matrix and site_gram equal stack products."""
    for pure in getattr(state, "pures", (state,)):
        for site, dim in enumerate(pure.dims):
            op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            stack = pure.site_stack(site)
            want = stack.conj() @ op @ stack.T
            np.testing.assert_allclose(pure.pair_matrix(site, op), want, rtol=0, atol=1e-14)
            gram = stack.conj() @ stack.T
            np.testing.assert_allclose(pure.site_gram(site), gram, rtol=0, atol=1e-14)


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_pair_matrix_matches_the_site_stacks(family, params):
    """Label-form and ket-form sites give the pair matrices of their kets."""
    _assert_pair_matrices(build_state(StateFamily(family, params)), np.random.default_rng(3))


@pytest.mark.parametrize("dims,n_terms", [((2, 3, 2), 3), ((3, 3, 3, 3), 1), ((4, 2), 5)])
def test_pair_matrix_matches_the_site_stacks_of_random_states(dims, n_terms):
    rng = np.random.default_rng(4)
    _assert_pair_matrices(random_pure_state(dims, n_terms, rng), rng)


@pytest.mark.parametrize(
    "family,params,count",
    [
        ("GHZ", {"n": 3, "theta": 0.4}, 2),
        ("FlippedGHZ", {"n": 3, "theta": 0.4}, 2),
        ("LSeparable", {"n": 4, "l": 1, "theta": 0.4, "thetas": [0.3]}, 2),
        ("TwoGroupGHZ", {"n": 4, "l": 2, "theta1": 0.4, "theta2": 0.8}, 4),
        ("NModeSqueezed", {"n": 3, "x": 0.5, "cutoff": 17}, 18),
        ("ModifiedFourMode", {"x": 0.5, "cutoff": 17}, 18),
    ],
)
def test_term_counts(family, params, count):
    state = build_state(StateFamily(family, params))
    assert len(state.terms) == count


def test_mixed_single_out_structure():
    """n pure components with equal weights 1/n."""
    n = 5
    state = build_state(
        StateFamily("MixedSingleOut", {"n": n, "theta": 0.3, "thetas": [0.2] * n})
    )
    assert len(state.pures) == n
    np.testing.assert_allclose(state.weights, 1.0 / n)


@pytest.mark.parametrize("theta,keep", [(0.0, 1), (math.pi / 2, 1), (0.5, 2)])
def test_ghz_product_reduction(theta, keep):
    """At theta in {0, pi/2} only one term carries weight."""
    for family in ("GHZ", "FlippedGHZ"):
        state = build_state(StateFamily(family, {"n": 3, "theta": theta}))
        significant = sum(1 for t in state.terms if abs(t.amplitude) > 1e-12)
        assert significant == keep


def test_two_group_factorizes():
    """Product-operator expectations split into the two group factors."""
    rng = np.random.default_rng(19)
    n, l, t1, t2 = 5, 2, 0.4, 1.0
    whole = build_state(StateFamily("TwoGroupGHZ", {"n": n, "l": l, "theta1": t1, "theta2": t2}))
    left = build_state(StateFamily("GHZ", {"n": l, "theta": t1}))
    right = build_state(StateFamily("GHZ", {"n": n - l, "theta": t2}))
    ops = tuple(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)
    )
    full = product_expectation(whole, OperatorAssignment(ops))
    split = product_expectation(left, OperatorAssignment(ops[:l])) * product_expectation(
        right, OperatorAssignment(ops[l:])
    )
    assert full == pytest.approx(split, abs=1e-12)


def test_l_separable_site_order():
    """Single-qubit factors occupy the leading sites, GHZ block the rest."""
    state = build_state(
        StateFamily("LSeparable", {"n": 3, "l": 1, "theta": 0.7, "thetas": [0.2]})
    )
    vec = dense_vector(state)
    single = np.array([math.cos(0.2), math.sin(0.2)])
    want = math.cos(0.7) * np.kron(single, [1, 0, 0, 0]) + math.sin(0.7) * np.kron(
        single, [0, 0, 0, 1]
    )
    np.testing.assert_allclose(vec, want, atol=1e-14)


def test_state_family_json_round_trip():
    fam = StateFamily("LSeparable", {"n": 5, "l": 2, "theta": 0.4, "thetas": [0.5, 1.0]})
    back = StateFamily.from_dict(fam.as_dict())
    assert back.family == fam.family
    assert back.params["thetas"] == [0.5, 1.0]
    assert build_state(back).norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "family,params",
    [
        ("Nope", {}),
        ("GHZ", {"n": 1, "theta": 0.2}),
        ("GHZ", {"n": 3}),
        ("GHZ", {"n": 3, "theta": 0.2, "bogus": 1}),
        ("TwoGroupGHZ", {"n": 3, "l": 3, "theta1": 0.1, "theta2": 0.2}),
        ("LSeparable", {"n": 4, "l": 2, "theta": 0.1, "thetas": [0.3]}),
        ("NoisyGHZ", {"n": 3, "theta": 0.1, "p": 1.2, "noise": "white"}),
        ("NoisyGHZ", {"n": 3, "theta": 0.1, "p": 0.5, "noise": "pink"}),
        ("NModeSqueezed", {"n": 3, "x": 1.1}),
        ("ModifiedFourMode", {"x": 0.0}),
    ],
)
def test_bad_parameters(family, params):
    with pytest.raises(BadParameter):
        build_state(StateFamily(family, params))


@pytest.mark.parametrize("tail_tol", [math.nan, 0.0, -1e-3, 1.0, 2.0, math.inf])
def test_tail_tol_must_lie_in_unit_interval(tail_tol):
    """2 used to truncate at cutoff 1; nan and 0 failed with untyped errors."""
    with pytest.raises(BadParameter):
        build_state(StateFamily("NModeSqueezed", {"n": 2, "x": 0.5}), tail_tol=tail_tol)
    with pytest.raises(BadParameter):
        auto_cutoff(0.5, tail_tol)


def test_pure_sop_rejects_malformed_terms():
    zero = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(BadParameter):
        PureSOP((2, 2), ())  # no terms
    with pytest.raises(BadParameter):
        PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero,)),))  # one factor short
    with pytest.raises(BadParameter):
        PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero, 2.0 * zero)),))  # not unit norm


def test_mixed_ensemble_rejects_bad_weights():
    zero = np.array([1.0, 0.0], dtype=complex)
    pure = PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero, zero)),))
    with pytest.raises(BadParameter):
        MixedEnsemble((2, 2), (0.5,), (pure,))  # weights do not sum to 1
    with pytest.raises(BadParameter):
        MixedEnsemble((2, 2), (1.2, -0.2), (pure, pure))  # negative weight
    with pytest.raises(BadParameter):
        MixedEnsemble((2, 3), (1.0,), (pure,))  # dims disagree


def test_mixed_ensemble_weights_must_be_real_numbers():
    """Both weight fields go through float() once; what it refuses is a BadParameter."""
    pure = PureSOP.from_labels((2, 2), [1.0], [[0, 0]])
    mixed = MixedEnsemble((2, 2), (0.5,), (pure,), white_noise_weight="0.5")
    assert mixed.white_noise_weight == 0.5 and isinstance(mixed.white_noise_weight, float)
    with pytest.raises(BadParameter):
        MixedEnsemble((2, 2), (0.5,), (pure,), white_noise_weight=None)
    with pytest.raises(BadParameter):
        MixedEnsemble((2, 2), ("x",), (pure,))


_UP = np.array([1.0, 0.0], dtype=complex)
_GOOD = PureSOP((2, 2), (ProductTerm(1.0 + 0j, (_UP, _UP)),))
_NAN_KET = np.array([math.nan, 0.0], dtype=complex)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureSOP.from_labels((2, 2), [math.nan], [[0, 1]]),
        lambda: PureSOP.from_labels((2, 2), [math.inf], [[0, 1]]),
        lambda: PureSOP.from_labels((2, 2), [1.0, complex(0, math.inf)], [[0, 1], [1, 0]]),
        lambda: PureSOP((2, 2), (ProductTerm(complex(math.nan), (_UP, _UP)),)),
        lambda: PureSOP((2, 2), (ProductTerm(complex(math.inf), (_UP, _UP)),)),
        lambda: PureSOP((2, 2), (ProductTerm(1.0 + 0j, (_UP, _NAN_KET)),)),
        lambda: PureSOP((2, 2), (ProductTerm(1.0 + 0j, (_UP, np.array([math.inf, 0.0]))),)),
        lambda: PureSOP.from_labels((2, 2), [1.0], [[0, -1]], {1: [_NAN_KET]}),
        lambda: MixedEnsemble((2, 2), (math.nan,), (_GOOD,)),
        lambda: MixedEnsemble((2, 2), (1.0, math.nan), (_GOOD, _GOOD)),
        lambda: MixedEnsemble((2, 2), (1.0,), (_GOOD,), white_noise_weight=math.nan),
    ],
    ids=[
        "labels-nan-amplitude", "labels-inf-amplitude", "labels-imag-inf-amplitude",
        "terms-nan-amplitude", "terms-inf-amplitude", "terms-nan-ket", "terms-inf-ket",
        "labels-nan-ket", "nan-weight", "one-nan-weight", "nan-noise-weight",
    ],
)
def test_non_finite_state_inputs_are_rejected(make):
    """NaN or inf amplitudes, kets and weights raise instead of evaluating to NaN."""
    with pytest.raises(BadParameter):
        make()


def test_modified_four_mode_shifted_occupation():
    """Last two modes carry one extra excitation per term."""
    state = build_state(StateFamily("ModifiedFourMode", {"x": 0.3, "cutoff": 4}), tail_tol=1e-3)
    assert state.dims == (5, 5, 6, 6)
    for m, term in enumerate(state.terms):
        assert np.argmax(np.abs(term.factors[0])) == m
        assert np.argmax(np.abs(term.factors[2])) == m + 1
