"""Tests for the state-family constructors."""

import math
import tracemalloc

import numpy as np
import pytest

from witnesslab import linalg
from witnesslab.errors import BadParameter, DimensionCap, TruncationTooCoarse
from witnesslab.linalg import ARRAY_BYTES_CAP
from witnesslab.oracle import random_pure_state
from witnesslab.states import (
    MixedEnsemble,
    ProductTerm,
    PureSOP,
    StateFamily,
    _squeezed_amplitudes,
    auto_cutoff,
    build_state,
    tail_weight,
)
from witnesslab.witness import OperatorAssignment, product_expectation

import full_space


def test_ghz_amplitudes():
    """cos/sin weighting on the all-zero and all-one strings."""
    state = build_state(StateFamily("GHZ", {"n": 3, "theta": math.pi / 6}))
    vec = full_space.state_vector(state)
    assert vec[0] == pytest.approx(math.cos(math.pi / 6))
    assert vec[-1] == pytest.approx(math.sin(math.pi / 6))
    assert np.count_nonzero(np.abs(vec) > 1e-12) == 2


def test_flipped_ghz_amplitudes():
    """First spin flipped: weight on |100...> and |011...>."""
    n = 4
    state = build_state(StateFamily("FlippedGHZ", {"n": n, "theta": 0.3}))
    vec = full_space.state_vector(state)
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
    ground = full_space.state_vector(state.pures[1])
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


@pytest.mark.parametrize("seed", range(4))
def test_squeezed_amplitudes_take_the_products_of_the_multiply_loop(seed):
    """The amplitudes are x^m as a running product, bit for bit what multiplying by x once
    per level in a Python loop gives, then divided by the truncated norm."""
    rng = np.random.default_rng(seed)
    for x, cutoff in zip(rng.uniform(0.0, 1.0, 500), rng.integers(1, 2000, 500)):
        powers = [1.0]
        for _ in range(cutoff):
            powers.append(powers[-1] * x)
        kept = (1.0 - x ** (2 * (cutoff + 1))) / (1.0 - x * x)
        want = (np.array(powers) / math.sqrt(kept)).astype(complex)
        assert np.array_equal(_squeezed_amplitudes(x, cutoff), want)


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
    """On every site of every term group, the pair and gram blocks equal each component's
    stack products for a dense operator, and on a label site the weighted sum of a diagonal
    operator's entries at the labels equals the quadratic form of the overlaps times them."""
    for group in state.term_axis.groups:
        for site, dim in enumerate(state.dims):
            op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if site not in group.kets:
                values = rng.standard_normal(dim)[group.labels[site]]
                want = group.quadratic(group.overlaps * values[:, None, :])
                np.testing.assert_allclose(group.diagonal(values), want, rtol=0, atol=1e-14)
            stacks = group.kets.get(site)
            if stacks is None:  # a label site's basis kets, written out
                stacks = np.eye(dim)[group.labels[site]]
            for c, stack in enumerate(stacks):
                want = stack.conj() @ op @ stack.T
                np.testing.assert_allclose(group.pair_block(site, op)[c], want, rtol=0, atol=1e-14)
                gram = stack.conj() @ stack.T
                np.testing.assert_allclose(group.gram(site)[c], gram, rtol=0, atol=1e-14)


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
    vec = full_space.state_vector(state)
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


@pytest.mark.parametrize(
    "family,params,names",
    [
        ("GHZ", {"n": 10**9, "theta": 0.2}, "n"),
        ("FlippedGHZ", {"n": 1e300, "theta": 0.2}, "n"),
        ("TwoGroupGHZ", {"n": 10**7, "l": 1, "theta1": 0.1, "theta2": 0.2}, "n"),
        ("LSeparable", {"n": 10**7, "l": 1, "theta": 0.1, "thetas": [0.3]}, "n"),
        ("MixedSingleOut", {"n": 2100, "theta": 0.1, "thetas": [0.3]}, "n"),
        ("NoisyGHZ", {"n": 3 * 10**6, "theta": 0.1, "p": 0.5, "noise": "ground"}, "n"),
        ("NModeSqueezed", {"n": 3, "x": 0.999999}, "n and the cutoff"),
        ("NModeSqueezed", {"n": 3, "x": 0.5, "cutoff": 1e308}, "n and the cutoff"),
        ("ModifiedFourMode", {"x": 0.5, "cutoff": 10**7}, "the cutoff"),
    ],
)
def test_family_sizes_over_the_label_cap_raise_dimension_cap(family, params, names):
    """Each builder checks its terms x sites label entries before allocating them."""
    pattern = rf"^{family}: label entries \(terms x sites\) from {names}: "
    with pytest.raises(DimensionCap, match=pattern):
        build_state(StateFamily(family, params))


def test_label_cap_admits_the_largest_sizes_that_run():
    """MixedSingleOut at n=2000 (8e6 label entries, 61 MiB) and GHZ at n=10^5 still build.
    The mixture's axis (306 MiB of labels and ket stacks) is written once, so the build
    peaks within a few MiB of what the state keeps."""
    thetas = [0.3] * 2000
    tracemalloc.start()
    try:
        mixed = build_state(StateFamily("MixedSingleOut", {"n": 2000, "theta": 0.1, "thetas": thetas}))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= mixed.labels.nbytes + sum(stack.nbytes for stack in mixed.kets.values())
    assert peak - kept <= 4 * 2**20
    assert sum(p.labels.nbytes for p in mixed.pures) == 8 * 8 * 10**6 <= ARRAY_BYTES_CAP
    assert build_state(StateFamily("GHZ", {"n": 10**5, "theta": 0.2})).labels.shape == (2, 10**5)


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
    with pytest.raises(BadParameter, match="term has 1 factors for 2 subsystems"):
        PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero,)),))  # one factor short
    with pytest.raises(BadParameter, match="unit-normalized"):
        PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero, 2.0 * zero)),))  # not unit norm
    qutrit = np.array([0.0, 1.0, 0.0], dtype=complex)
    ragged = (ProductTerm(1.0 + 0j, (zero, zero)), ProductTerm(1.0 + 0j, (zero, qutrit)))
    for terms in (ragged, ragged[1:]):  # ragged at site 1, then one wrong-shaped ket
        with pytest.raises(BadParameter, match=r"local ket shape \(3,\) != \(2,\)"):
            PureSOP((2, 2), terms)


_BAD_DIMS = [
    (2.5, 2), (2, 2.000001), (True, 2), (2, np.bool_(True)), (0, 2), (2, -1), (2,), (),
    ("2", 2), (2, None), (2, math.nan), (2, math.inf), (2, 1j), [[2, 2]], 2,
]


@pytest.mark.parametrize("dims", _BAD_DIMS, ids=repr)
def test_subsystem_dims_are_checked_not_coerced(dims):
    """Every constructor refuses a non-integral, bool or non-numeric dim, a dim below 1
    and fewer than 2 sites, instead of casting them."""
    makers = (
        lambda: PureSOP.from_labels(dims, (1.0,), [[0, 0]]),
        lambda: PureSOP(dims, (ProductTerm(1.0 + 0j, (np.ones(1), np.ones(1))),)),
        lambda: MixedEnsemble(dims, (), (), 1.0),
        lambda: MixedEnsemble.from_products(dims, (1.0,), [np.ones((1, 1))] * 2),
    )
    for make in makers:
        with pytest.raises(BadParameter, match="subsystems of integral dim"):
            make()


def test_integral_float_dims_are_read_as_ints():
    dims = np.array([2.0, 2.0])
    state = PureSOP.from_labels(dims, (1.0,), [[0, 1]])
    assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)
    mixed = MixedEnsemble((2.0, np.int64(2)), (1.0,), (state,))
    assert mixed.dims == (2, 2) and all(type(d) is int for d in mixed.dims)


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
        lambda: PureSOP.from_labels((2, 2), [1.0], [[0, -1]], {1: [[math.inf, 0.0]]}),
        lambda: MixedEnsemble((2, 2), (math.nan,), (_GOOD,)),
        lambda: MixedEnsemble((2, 2), (1.0, math.nan), (_GOOD, _GOOD)),
        lambda: MixedEnsemble((2, 2), (1.0,), (_GOOD,), white_noise_weight=math.nan),
    ],
    ids=[
        "labels-nan-amplitude", "labels-inf-amplitude", "labels-imag-inf-amplitude",
        "terms-nan-amplitude", "terms-inf-amplitude", "terms-nan-ket", "terms-inf-ket",
        "labels-nan-ket", "labels-inf-ket", "nan-weight", "one-nan-weight", "nan-noise-weight",
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


@pytest.mark.parametrize("modulus", [1e200, 1e-200])
def test_norm_and_normalized_outside_the_normal_float_range(modulus):
    """Amplitudes whose squares overflow or underflow are first divided by the largest
    modulus: the norm is finite and the normalized state is (|00> + |11>) / sqrt(2)."""
    state = PureSOP.from_labels((2, 2), (modulus, modulus), [[0, 0], [1, 1]])
    assert state.norm() == pytest.approx(math.sqrt(2.0) * modulus, rel=1e-15)
    normalized = state.normalized()
    np.testing.assert_allclose(normalized.amplitudes(), [2**-0.5, 2**-0.5], rtol=1e-15)
    assert normalized.norm() == pytest.approx(1.0, abs=1e-15)


def test_an_exactly_cancelling_state_still_cannot_be_normalized():
    state = PureSOP.from_labels((2, 2), (1e200, -1e200), [[0, 1], [0, 1]])
    assert state.norm() == 0.0
    with pytest.raises(BadParameter, match="zero state"):
        state.normalized()


_PURE = PureSOP.from_labels((2, 2), (1.0,), [[0, 0]])


def test_product_terms_may_list_their_kets():
    """A ProductTerm whose kets are lists is read through numpy like an array."""
    state = PureSOP((2, 2), [ProductTerm(1.0, ([1, 0], [0, 1]))])
    assert [factor.tolist() for factor in state.terms[0].factors] == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureSOP.from_labels((2, 2), ["a"], [[0, 0]]),
        lambda: PureSOP.from_labels((2, 2), (1.0,), [[0, -1]], {1: [["a", 0]]}),
        lambda: PureSOP((2, 2), ["not a term"]),
        lambda: PureSOP((2, 2), [ProductTerm(1.0, (["a", 0], [0, 1]))]),
        lambda: PureSOP((2, 2), [ProductTerm(1.0, ([1, [0, 1]], [0, 1]))]),
        lambda: MixedEnsemble((2, 2), (0.5, 0.5), (_PURE, "x")),
        lambda: MixedEnsemble.from_products((2, 2), (1.0,), [[["a", 0]], [[1, 0]]]),
    ],
    ids=[
        "string-amplitude", "string-ket-entry", "non-term", "string-term-ket", "ragged-ket",
        "non-state-component", "string-product-ket",
    ],
)
def test_public_constructors_raise_bad_parameter(make):
    """What numpy cannot read as numbers, and a component that is not a state, is a
    BadParameter rather than a ValueError or AttributeError."""
    with pytest.raises(BadParameter):
        make()


def test_site_stacks_and_terms_need_no_term_group(monkeypatch):
    """A state whose terms x terms block is over the byte budget still gives its site
    stacks, site labels and terms; only what reads the term groups raises DimensionCap."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 2, "x": 0.1, "cutoff": 8}))
    monkeypatch.setattr(linalg, "ARRAY_BYTES_CAP", 8 * 8 * 16)
    np.testing.assert_array_equal(state.site_stack(1), np.eye(9))
    assert state.site_labels(0).tolist() == list(range(9)) and len(state.terms) == 9
    with pytest.raises(DimensionCap):
        state.norm()
