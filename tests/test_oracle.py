"""Tests for the randomized separability and operator-power oracles."""

import math

import numpy as np
import pytest

from witnesslab.errors import BadParameter, InvalidDensityMatrix
from witnesslab.oracle import (
    SeparableSpec,
    check_lemma,
    check_separable_bounds,
    random_assignment,
    random_density_matrix,
    random_psd,
    run_lemma_trials,
    run_separable_trials,
    sample_separable,
)
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP
from witnesslab.witness import OperatorAssignment, evaluate


def test_sample_separable_is_deterministic():
    spec = SeparableSpec((2, 3, 2), n_terms=4, seed=99)
    first, second = sample_separable(spec), sample_separable(spec)
    assert first.weights == second.weights
    for pure_a, pure_b in zip(first.pures, second.pures):
        for term_a, term_b in zip(pure_a.terms, pure_b.terms):
            for fac_a, fac_b in zip(term_a.factors, term_b.factors):
                np.testing.assert_array_equal(fac_a, fac_b)


def test_sample_separable_weights_normalized():
    for seed in range(20):
        ensemble = sample_separable(SeparableSpec((2, 2, 3), 5, seed))
        assert sum(ensemble.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in ensemble.weights)


def test_single_term_is_pure_product():
    ensemble = sample_separable(SeparableSpec((2, 2), 1, 7))
    assert ensemble.weights == (1.0,)
    assert len(ensemble.pures) == 1
    assert len(ensemble.pures[0].terms) == 1


def test_ground_product_state_margins_vanish():
    """|00> with lowering operators: every quantity is zero."""
    zero = np.array([1.0, 0.0], dtype=complex)
    state = MixedEnsemble(
        (2, 2), (1.0,), (PureSOP((2, 2), (ProductTerm(1.0 + 0j, (zero, zero)),)),)
    )
    margin1, margin2 = check_separable_bounds(state, OperatorAssignment.qubit_lowering(2))
    assert margin1 == pytest.approx(0.0, abs=1e-14)
    assert margin2 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, 1.2])
def test_tilted_product_state_margins(alpha):
    """(cos a |0> + sin a |1>)^x2 with lowering: direct evaluation gives
    lhs = (cos a sin a)^2 and rhs1 = rhs2 = sin^2 a, so both margins equal
    sin^4 a and stay nonnegative."""
    ket = np.array([math.cos(alpha), math.sin(alpha)], dtype=complex)
    state = PureSOP((2, 2), (ProductTerm(1.0 + 0j, (ket, ket)),))
    report = evaluate(state, OperatorAssignment.qubit_lowering(2))
    c, s = math.cos(alpha), math.sin(alpha)
    assert report.lhs == pytest.approx((c * s) ** 2, abs=1e-14)
    assert report.rhs1 == pytest.approx(s * s, abs=1e-14)
    assert report.rhs2 == pytest.approx(s * s, abs=1e-14)
    margin1, margin2 = check_separable_bounds(state, OperatorAssignment.qubit_lowering(2))
    assert margin1 == pytest.approx(s**4, abs=1e-13)
    assert margin2 == pytest.approx(s**4, abs=1e-13)


def test_randomized_separable_batch_clean():
    summary = run_separable_trials(500, seed=2026)
    assert summary.passed
    assert summary.violations == 0
    assert summary.worst_margin >= -1e-9


def test_separable_trials_deterministic():
    first = run_separable_trials(120, seed=5)
    second = run_separable_trials(120, seed=5)
    assert first == second


def test_separable_spec_validation():
    with pytest.raises(BadParameter):
        SeparableSpec((2,), 1, 0)
    with pytest.raises(BadParameter):
        SeparableSpec((2, 5), 1, 0)
    with pytest.raises(BadParameter):
        SeparableSpec((2, 2), 9, 0)


@pytest.mark.parametrize(
    "n_terms,seed,message",
    [
        (2, -1, "seed must be >= 0, got -1"),
        (2, 1.5, "seed must be an integer, got 1.5"),
        (1.5, 0, "n_terms must be an integer, got 1.5"),
        (True, 0, "n_terms must be an integer, got True"),
        (2, np.bool_(True), "seed must be an integer, got "),
    ],
    ids=["negative-seed", "fractional-seed", "fractional-terms", "bool-terms", "bool-seed"],
)
def test_separable_spec_refuses_what_sampling_cannot_use(n_terms, seed, message):
    """A seed or term count numpy's generator cannot take is a BadParameter, not numpy's
    ValueError or TypeError; numpy integers are accepted and sample as Python ints do."""
    with pytest.raises(BadParameter, match=message):
        SeparableSpec((2, 2), n_terms, seed)
    numpy_ints = sample_separable(SeparableSpec((2, 3), np.int64(3), np.uint32(11)))
    python_ints = sample_separable(SeparableSpec((2, 3), 3, 11))
    assert numpy_ints.weights == python_ints.weights
    assert all(np.array_equal(numpy_ints.kets[k], python_ints.kets[k]) for k in range(2))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": -5},  # used to pass with infinite worst margins
        {"trials": 5, "max_n": 1},  # used to die in numpy with "low >= high"
        {"trials": 5, "max_n": 6},
        {"trials": 5, "max_dim": 1},
        {"trials": 5, "max_terms": 0},
    ],
)
def test_separable_trials_reject_empty_or_impossible_ranges(kwargs):
    with pytest.raises(BadParameter):
        run_separable_trials(seed=0, **kwargs)


def test_lemma_trials_reject_empty_runs():
    with pytest.raises(BadParameter):
        run_lemma_trials(trials=-1, seed=0)


def test_both_trial_runs_reject_a_negative_seed():
    for run_trials in (run_separable_trials, run_lemma_trials):
        with pytest.raises(BadParameter, match="seed must be >= 0"):
            run_trials(trials=5, seed=-1)


def test_check_lemma_projector():
    """For a projector, the slack is q - q^p >= 0 with q = <P>."""
    rng = np.random.default_rng(31)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    proj = np.outer(vec, vec.conj())
    rho = random_density_matrix(4, rng)
    q = float(np.trace(rho @ proj).real)
    for power in (1.5, 2.0, 3.0):
        margin = check_lemma(proj, rho, power)
        assert margin == pytest.approx(q - q**power, abs=1e-12)
        assert margin >= -1e-12


def test_check_lemma_identity_is_equality():
    rng = np.random.default_rng(13)
    rho = random_density_matrix(5, rng)
    assert check_lemma(np.eye(5), rho, 2.5) == pytest.approx(0.0, abs=1e-12)


def test_check_lemma_scaled_support_projector_is_equality():
    """B = c P with rho supported inside P saturates the bound."""
    rng = np.random.default_rng(41)
    dim, rank, scale = 6, 3, 1.7
    basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    proj = basis[:, :rank] @ basis[:, :rank].conj().T
    small = random_density_matrix(rank, rng)
    rho = basis[:, :rank] @ small @ basis[:, :rank].conj().T
    margin = check_lemma(scale * proj, rho, 2.0)
    assert margin == pytest.approx(0.0, abs=1e-10)


def test_check_lemma_random_batch():
    summary = run_lemma_trials(200, seed=6)
    assert summary.passed
    assert summary.worst_margin >= -1e-10


def test_check_lemma_rejects_bad_density_matrices():
    rng = np.random.default_rng(2)
    op = random_psd(3, rng)
    with pytest.raises(InvalidDensityMatrix):
        check_lemma(op, np.eye(3), 2.0)  # trace 3
    with pytest.raises(InvalidDensityMatrix):
        check_lemma(op, np.array([[0.5, 0.4], [0.1, 0.5]]), 2.0)  # not Hermitian
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidDensityMatrix):
        check_lemma(random_psd(2, rng), bad, 2.0)  # negative eigenvalue
    with pytest.raises(BadParameter):
        check_lemma(op, random_density_matrix(3, rng), 1.0)  # power must exceed 1


def test_random_assignment_shapes_and_seeding():
    rng_a = np.random.default_rng(55)
    rng_b = np.random.default_rng(55)
    ops_a = random_assignment((2, 3), rng_a)
    ops_b = random_assignment((2, 3), rng_b)
    assert ops_a.dims == (2, 3)
    for mat_a, mat_b in zip(ops_a.ops, ops_b.ops):
        np.testing.assert_array_equal(mat_a, mat_b)


def _per_ket_sample(spec: SeparableSpec) -> MixedEnsemble:
    """The per-ket sampler that ``sample_separable`` replaced, kept as its stream reference:
    the weights, then one Haar ket per component and site, each drawn and normalized alone."""
    rng = np.random.default_rng(spec.seed)
    weights = rng.dirichlet(np.ones(spec.n_terms))

    def haar_ket(dim):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return vec / np.linalg.norm(vec)

    pures = tuple(
        PureSOP(spec.dims, (ProductTerm(1.0 + 0.0j, tuple(haar_ket(d) for d in spec.dims)),))
        for _ in range(spec.n_terms)
    )
    return MixedEnsemble(spec.dims, tuple(float(w) for w in weights), pures)


def test_sample_separable_repeats_the_per_ket_stream_bit_for_bit():
    """600 specs over dims 1..4, 2..5 sites and 1..6 components: the one-draw sampler gives
    the per-ket sampler's weights and kets exactly, per component and as the site stacks."""
    rng = np.random.default_rng(2024)
    for _ in range(600):
        n = int(rng.integers(2, 6))
        dims = tuple(int(d) for d in rng.integers(1, 5, n))
        spec = SeparableSpec(dims, int(rng.integers(1, 7)), int(rng.integers(0, 2**63 - 1)))
        got, want = sample_separable(spec), _per_ket_sample(spec)
        assert got.weights == want.weights
        assert len(got.pures) == len(want.pures) == spec.n_terms
        for site in range(n):
            stack = np.concatenate([pure.site_stack(site) for pure in want.pures])
            assert np.array_equal(got.term_axis.kets[site], stack), (spec, site)
            for pure_got, pure_want in zip(got.pures, want.pures):
                assert np.array_equal(pure_got.site_stack(site), pure_want.site_stack(site))
