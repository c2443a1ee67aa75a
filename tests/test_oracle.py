"""Tests for the randomized separability and operator-power oracles."""

import gc
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.cli import run
from witnesslab import oracle
from witnesslab.errors import BadParameter, DimensionMismatch, InvalidDensityMatrix, NonHermitian
from witnesslab.linalg import RowMap
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


@pytest.mark.parametrize("dims", [(2.5, 2), (2, 3.9), (True, 2), (2, np.bool_(True))])
def test_separable_spec_refuses_a_fractional_or_bool_dim(dims):
    """A fractional dim used to be truncated and a bool read as 1; an integral float
    reads as its int, as a state's dims do."""
    with pytest.raises(BadParameter, match="integral dim"):
        SeparableSpec(dims, 1, 0)
    assert SeparableSpec((2.0, np.int64(3)), 1, 0).dims == (2, 3)


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


@pytest.mark.parametrize(
    "run_trials,kwargs,message",
    [
        (run_separable_trials, {"trials": 2.5}, "trials must be an integer, got 2.5"),
        (run_separable_trials, {"trials": True}, "trials must be an integer, got True"),
        (run_separable_trials, {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (run_separable_trials, {"max_n": 3.5}, "max_n must be an integer, got 3.5"),
        (run_separable_trials, {"max_dim": 2.5}, "max_dim must be an integer, got 2.5"),
        (run_separable_trials, {"max_terms": np.bool_(True)}, "max_terms must be an integer"),
        (run_lemma_trials, {"trials": 2.5}, "trials must be an integer, got 2.5"),
        (run_lemma_trials, {"trials": True}, "trials must be an integer, got True"),
        (run_lemma_trials, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
    ids=[
        "separable-fractional-trials", "separable-bool-trials", "separable-fractional-seed",
        "fractional-max-n", "fractional-max-dim", "bool-max-terms",
        "lemma-fractional-trials", "lemma-bool-trials", "lemma-fractional-seed",
    ],
)
def test_trial_runs_refuse_a_bool_or_a_fraction(run_trials, kwargs, message):
    """A fractional seed used to run the stream of its integer part and a fractional or bool
    trial count a truncated one; numpy integers are accepted and run as Python ints do."""
    with pytest.raises(BadParameter, match=re.escape(message)):
        run_trials(**{"trials": 3, "seed": 1, **kwargs})
    numpy_ints = {"trials": np.int64(3), "seed": np.uint32(1)}
    assert run_trials(**numpy_ints) == run_trials(trials=3, seed=1)
    limits = {"max_n": np.int32(3), "max_dim": np.int64(2), "max_terms": np.uint8(2)}
    assert run_separable_trials(**numpy_ints, **limits) == run_separable_trials(3, 1, 3, 2, 2)


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


#: stdout of two oracle commands, recorded before the chunk built its ensembles together.
_GOLDEN_ORACLE = {
    ("--trials", "500", "--lemma-trials", "50", "--seed", "3"): (
        "separable trials: 500\nviolations: 0\n"
        "worst margin1: 6.009e-01\nworst margin2: 5.667e-01\n"
        "lemma trials: 50\nlemma violations: 0\nworst lemma margin: 3.143e-01\nPASS\n"
    ),
    (
        "--trials", "300", "--lemma-trials", "20",
        "--max-n", "5", "--max-dim", "4", "--max-terms", "6", "--seed", "1",
    ): (
        "separable trials: 300\nviolations: 0\n"
        "worst margin1: 7.245e-01\nworst margin2: 9.972e-01\n"
        "lemma trials: 20\nlemma violations: 0\nworst lemma margin: 6.588e-01\nPASS\n"
    ),
}


def test_oracle_output_and_worst_margins_are_the_recorded_bytes(capsys):
    """Two oracle commands print their recorded stdout, and 640 trials at seed 7 (ten
    chunks) keep their recorded worst margins to the last bit."""
    for argv, want in _GOLDEN_ORACLE.items():
        assert run(["oracle", *argv]) == 0
        assert capsys.readouterr().out == want
    summary = run_separable_trials(640, 7)
    assert summary.violations == 0
    assert (repr(summary.worst_margin1), repr(summary.worst_margin2)) == (
        "0.6394676000447823",
        "0.6892722706734247",
    )


def _run_chunked(trials, seed, limits, check=lambda state, assignment: (1.0, 1.0)):
    """Run the separable trials with ``sample_separables`` and ``check_separable_bounds``
    recorded: every spec the chunks sample, the size of each chunk, and per checked trial
    its state.  The default check returns unit margins and evaluates nothing."""
    specs, chunks, states = [], [], []
    real_sample = oracle.sample_separables

    def sample(chunk):
        chunks.append(len(chunk))
        specs.extend(chunk)
        return real_sample(chunk)

    def record(state, assignment):
        states.append(state)
        return check(state, assignment)

    with mock.patch.object(oracle, "sample_separables", side_effect=sample), mock.patch.object(
        oracle, "check_separable_bounds", side_effect=record
    ):
        oracle.run_separable_trials(trials, seed, *limits)
    return specs, chunks, states


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    limits=st.tuples(st.integers(2, 5), st.integers(2, 4), st.integers(1, 6)),
    trials=st.sampled_from([1, 63, 64, 65, 129]),
)
def test_chunk_ensembles_are_the_per_ket_samples_bit_for_bit(seed, limits, trials):
    """Every trial's ensemble, sampled with its chunk, has the weights, kets, amplitudes,
    offsets and labels of the per-ket sampler on its spec, to the last bit."""
    specs, chunks, states = _run_chunked(trials, seed, limits)
    whole, rest = divmod(trials, oracle._TRIAL_CHUNK)
    assert chunks == [oracle._TRIAL_CHUNK] * whole + [rest] * (rest > 0)
    assert len(states) == len(specs) == trials
    for spec, got in zip(specs, states):
        want = _per_ket_sample(spec)
        assert got.dims == spec.dims and got.weights == want.weights
        assert got.kets.keys() == want.kets.keys()
        for got_array, want_array in [
            (got.amps, want.amps),
            (got.offsets, want.offsets),
            (got.labels, want.labels),
            *((got.kets[k], want.kets[k]) for k in want.kets),
        ]:
            assert got_array.dtype == want_array.dtype and got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes(), spec


@pytest.mark.parametrize("bad_trial", [0, 10, oracle._TRIAL_CHUNK + 10, 2 * oracle._TRIAL_CHUNK - 1])
def test_a_non_unit_ket_mid_chunk_raises_from_its_trial(bad_trial):
    """A ket whose norm comes out halved fails its chunk's batch check; then each trial
    checks its own kets, so the BadParameter comes from that trial, after every trial
    before it was checked."""
    seed, limits, trials = 4, (4, 3, 4), 3 * oracle._TRIAL_CHUNK
    specs, _, states = _run_chunked(trials, seed, limits)
    assert len(states) == trials
    spec = specs[bad_trial]
    rng = np.random.default_rng(spec.seed)
    rng.dirichlet(np.ones(spec.n_terms))
    draws = rng.standard_normal((spec.n_terms, 2 * sum(spec.dims)))
    dim = spec.dims[0]
    bad_ket = draws[0, :dim] + 1j * draws[0, dim : 2 * dim]
    real_norms = oracle._row_norms

    def norms(vecs):
        out = real_norms(vecs)
        if vecs.shape[1] == dim:
            out[np.all(vecs == bad_ket, axis=1)] /= 2.0
        return out

    checked = []

    def check(state, assignment):
        checked.append(state)
        return check_separable_bounds(state, assignment)

    with mock.patch.object(oracle, "_row_norms", side_effect=norms), mock.patch.object(
        oracle, "check_separable_bounds", side_effect=check
    ):
        with pytest.raises(BadParameter, match="unit-normalized"):
            sample_separable(spec)
        with pytest.raises(BadParameter, match="unit-normalized"):
            oracle.run_separable_trials(trials, seed, *limits)
    assert [state.weights for state in checked] == [
        _per_ket_sample(each).weights for each in specs[:bad_trial]
    ]


def _settled_peak(trials: int) -> int:
    """Traced peak of ``run_separable_trials(trials, 1)`` above the memory in use as it
    starts, from the same interpreter state on every call.

    A full collection empties CPython's free lists of small tuples, and the run refills
    them with traced tuples: ``tuple(map(int, dims))`` takes a ten-slot tuple and frees
    it, shrunk, into the list of its final size.  That refill grows with the trial count
    until each list holds 2,000 tuples, so the peak would depend on when the last full
    collection ran.  Each call therefore collects, fills the lists to their cap, and
    runs with the collector off: the trials leave no cyclic garbage."""
    gc.collect()
    refill = [tuple(range(size)) for size in range(1, 21) for _ in range(2100)]
    del refill
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run_separable_trials(trials, 1)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if enabled:
            gc.enable()


def test_separable_trial_memory_stays_constant_in_the_trial_count():
    """Only the worst margins outlive a chunk: after a warm-up, the traced peak of 640
    trials (ten chunks) exceeds that of their first 64 by less than 256 KiB (about 0 when
    measured), while a kept ensemble takes a few KiB."""
    run_separable_trials(640, 1)
    tracemalloc.start()
    try:
        peaks = [_settled_peak(trials) for trials in (64, 640)]
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


def _per_pair_assignment(dims, rng) -> OperatorAssignment:
    """The per-site draw that ``random_assignment`` replaced, kept as its stream
    reference: a ``standard_normal((d, d))`` pair per site, real parts first."""
    return OperatorAssignment(
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
    )


def _assert_same_operators(got: OperatorAssignment, want: OperatorAssignment):
    """Site by site the same form (row map or read-only matrix) with the same bytes."""
    assert len(got._local) == len(want._local)
    for got_op, want_op in zip(got._local, want._local):
        assert isinstance(got_op, RowMap) == isinstance(want_op, RowMap)
        pairs = zip(got_op, want_op) if isinstance(want_op, RowMap) else [(got_op, want_op)]
        for got_array, want_array in pairs:
            assert got_array.dtype == want_array.dtype and got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
            assert not got_array.flags.writeable


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    limits=st.tuples(st.integers(2, 5), st.integers(2, 4), st.integers(1, 6)),
    trials=st.sampled_from([1, 63, 64, 65, 129]),
)
def test_chunk_operators_are_each_trials_own_draw_bit_for_bit(seed, limits, trials):
    """Every trial's assignment, built with its chunk's stacks, has the operators that
    ``random_assignment`` and the per-site pair draws give from the trial's generator
    after its four integer draws, in the same forms, to the last bit."""
    built, chunks = [], []
    real_assignments = oracle._assignments

    def assignments(site_dims, draws):
        chunks.append(len(draws))
        built.extend(real_assignments(site_dims, draws))
        return built[-len(draws) :]

    with mock.patch.object(oracle, "_assignments", side_effect=assignments), mock.patch.object(
        oracle, "check_separable_bounds", return_value=(1.0, 1.0)
    ):
        oracle.run_separable_trials(trials, seed, *limits)
    whole, rest = divmod(trials, oracle._TRIAL_CHUNK)
    assert chunks == [oracle._TRIAL_CHUNK] * whole + [rest] * (rest > 0)
    max_n, max_dim, max_terms = limits
    for trial, got in enumerate(built):
        rngs = []
        for _ in range(2):
            rng = np.random.default_rng([seed, trial])
            dims = tuple(rng.integers(2, max_dim + 1, int(rng.integers(2, max_n + 1))).tolist())
            rng.integers(1, max_terms + 1), rng.integers(0, 2**63 - 1)
            rngs.append(rng)
        assert got.dims == dims
        _assert_same_operators(got, random_assignment(dims, rngs[0]))
        _assert_same_operators(got, _per_pair_assignment(dims, rngs[1]))
        assert rngs[0].standard_normal() == rngs[1].standard_normal()


def test_a_sparse_stack_entry_becomes_the_row_map_a_matrix_would():
    """A drawn matrix with one nonzero per row is kept as the RowMap that
    ``OperatorAssignment(ops)`` reads from it, beside a dense one of the same dim."""
    sparse = np.array([[0, 2 - 1j, 0], [0, 0, 0], [0.5j, 0, 0]])
    dense = np.arange(9).reshape(3, 3) * (1 - 2j)
    qubit = np.array([[0, 1j], [3.0, 0]])
    site_dims = [(3, 2), (3,)]
    draws = [
        np.concatenate([part for m in (sparse, qubit) for part in (m.real.flat, m.imag.flat)]),
        np.concatenate([dense.real.ravel(), dense.imag.ravel()]),
    ]
    got = oracle._assignments(site_dims, draws)
    assert [type(op) for op in got[0]._local] == [RowMap, RowMap]
    _assert_same_operators(got[0], OperatorAssignment([sparse, qubit]))
    _assert_same_operators(got[1], OperatorAssignment([dense]))
    assert isinstance(got[1]._local[0], np.ndarray)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_a_non_finite_operator_in_a_chunk_raises_before_the_chunk_is_checked(entry):
    """A non-finite draw in the second chunk raises OperatorAssignment's ValueError after
    the first chunk's 64 trials were checked and before any of its own is."""
    real_assignments = oracle._assignments

    def assignments(site_dims, draws):
        if len(checked) == oracle._TRIAL_CHUNK:
            draws[5] = draws[5].copy()
            draws[5][0] = entry  # a real part: 1j * inf would warn first
        return real_assignments(site_dims, draws)

    checked = []
    with mock.patch.object(oracle, "_assignments", side_effect=assignments), mock.patch.object(
        oracle, "check_separable_bounds", side_effect=lambda *args: checked.append(1) or (1.0, 1.0)
    ):
        with pytest.raises(ValueError, match="operator has non-finite entries"):
            oracle.run_separable_trials(3 * oracle._TRIAL_CHUNK, 2)
    assert len(checked) == oracle._TRIAL_CHUNK
    with pytest.raises(ValueError, match="operator has non-finite entries"):
        OperatorAssignment([np.full((2, 2), entry)])


@pytest.mark.parametrize("dims", [(0, 2), (2, -1)])
def test_random_assignment_refuses_an_empty_or_negative_dim(dims):
    with pytest.raises(DimensionMismatch, match="local dims must be >= 1"):
        random_assignment(dims, np.random.default_rng(0))


#: repr of run_lemma_trials(1000, seed).worst_margin, recorded before lemma trials ran in chunks.
_LEMMA_WORST = {0: "0.29641420816077524", 1: "0.37821379610225203", 2: "0.231593909191796"}


@pytest.mark.parametrize("seed", sorted(_LEMMA_WORST))
def test_lemma_worst_margins_are_the_recorded_values(seed):
    summary = run_lemma_trials(1000, seed)
    assert summary.violations == 0
    assert repr(summary.worst_margin) == _LEMMA_WORST[seed]


def _lemma_trial(seed: int, trial: int):
    """Trial ``trial``'s (B, rho, p), drawn one matrix at a time from its generator."""
    rng = np.random.default_rng([seed, trial, 7])
    op = random_psd(oracle.LEMMA_DIM, rng)
    rho = random_density_matrix(oracle.LEMMA_DIM, rng)
    return op, rho, oracle.LEMMA_POWERS[int(rng.integers(len(oracle.LEMMA_POWERS)))]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.sampled_from([1, 63, 64, 65, 129]))
def test_chunk_lemma_margins_are_check_lemma_bit_for_bit(seed, trials):
    """Every lemma trial, checked with its chunk, has the B, rho, p and the margin that
    ``check_lemma`` gives on the trial's matrices drawn alone, to the last bit."""
    chunks, margins = [], []
    real_margins = oracle._lemma_margins

    def lemma_margins(ops, rhos, powers):
        chunks.append((ops, rhos, powers))
        margins.extend(real_margins(ops, rhos, powers))
        return margins[-len(powers) :]

    with mock.patch.object(oracle, "_lemma_margins", side_effect=lemma_margins):
        summary = run_lemma_trials(trials, seed)
    assert [len(powers) for _, _, powers in chunks] == [
        min(oracle._TRIAL_CHUNK, trials - start) for start in range(0, trials, oracle._TRIAL_CHUNK)
    ]
    ops, rhos = (np.concatenate([chunk[i] for chunk in chunks]) for i in range(2))
    powers = [p for _, _, chunk_powers in chunks for p in chunk_powers]
    for trial in range(trials):
        op, rho, power = _lemma_trial(seed, trial)
        assert ops[trial].tobytes() == op.tobytes() and rhos[trial].tobytes() == rho.tobytes()
        assert powers[trial] == power
        assert repr(margins[trial]) == repr(check_lemma(op, rho, power))
    assert repr(summary.worst_margin) == repr(min(margins))


def test_a_stack_with_diagonal_operators_gives_each_its_own_margin():
    """An exactly diagonal B among dense ones goes through eigh, not psd_eigh's diagonal
    path as alone, and still has its margin alone, across powers."""
    trials = [_lemma_trial(3, trial) for trial in range(6)]
    ops = [op for op, _, _ in trials]
    ops[1] = np.diag([0.5, 0.0, 2.0, 1.0, 0.25, 3.0]).astype(complex)
    ops[4] = np.eye(oracle.LEMMA_DIM, dtype=complex)
    rhos, powers = [rho for _, rho, _ in trials], [1.5, 2.0, 3.0, 2.0, 1.5, 3.0]
    got = oracle._lemma_margins(np.stack(ops), np.stack(rhos), powers)
    assert [repr(m) for m in got] == [
        repr(check_lemma(op, rho, p)) for op, rho, p in zip(ops, rhos, powers)
    ]


def _break(kind: str, op, rho):
    if kind == "hermiticity":
        rho = rho + np.triu(np.full(rho.shape, 1e-3), 1)
    elif kind == "trace":
        rho = 2.0 * rho
    elif kind == "spectrum":  # Hermitian, of trace 1, with rho_11 - 1 < 0 on its diagonal
        rho = rho + np.diag([1.0, -1.0] + [0.0] * (len(rho) - 2))
    elif kind == "non-finite":
        rho = rho.copy()
        rho[0, 0] = np.nan
    else:  # a non-Hermitian B
        op = op + np.triu(np.full(op.shape, 1e-3), 1)
    return op, rho


@pytest.mark.parametrize("bad_trial", [0, 10, oracle._TRIAL_CHUNK + 1, 2 * oracle._TRIAL_CHUNK - 1])
@pytest.mark.parametrize("kind", ["hermiticity", "trace", "spectrum", "non-finite", "operator"])
def test_an_invalid_lemma_trial_raises_check_lemmas_error(kind, bad_trial):
    """A trial made invalid inside its chunk raises the error check_lemma raises on it,
    message and all, ahead of a later invalid trial of another kind."""
    real_margins = oracle._lemma_margins
    seen = []

    def lemma_margins(ops, rhos, powers):
        ops, rhos = ops.copy(), rhos.copy()
        for k in range(len(powers)):
            trial = len(seen) + k
            if trial == bad_trial:
                ops[k], rhos[k] = want = _break(kind, ops[k], rhos[k])
                expected.append((*want, powers[k]))
            elif trial == bad_trial + 3:
                later = "trace" if kind != "trace" else "operator"
                ops[k], rhos[k] = _break(later, ops[k], rhos[k])
        seen.extend(powers)
        return real_margins(ops, rhos, powers)

    expected = []
    with mock.patch.object(oracle, "_lemma_margins", side_effect=lemma_margins):
        with pytest.raises(Exception) as raised:
            run_lemma_trials(3 * oracle._TRIAL_CHUNK, 5)
    with pytest.raises(Exception) as alone:
        check_lemma(*expected[0])
    assert type(raised.value) is type(alone.value)
    assert str(raised.value) == str(alone.value)
    wanted = {
        "hermiticity": (InvalidDensityMatrix, "Hermiticity defect 1.000e-03"),
        "trace": (InvalidDensityMatrix, "trace (2"),
        "spectrum": (InvalidDensityMatrix, "negative eigenvalue"),
        "non-finite": (ValueError, "operator has non-finite entries"),
        "operator": (NonHermitian, "Hermiticity defect 1.000e-03 exceeds"),
    }[kind]
    assert type(alone.value) is wanted[0] and str(alone.value).startswith(wanted[1])


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_check_lemma_refuses_a_non_finite_power(power):
    """A NaN power used to give a NaN or zero margin, never counted as a violation."""
    rng = np.random.default_rng(4)
    with pytest.raises(BadParameter, match="power must be finite"):
        check_lemma(random_psd(3, rng), random_density_matrix(3, rng), power)
    with pytest.raises(BadParameter, match="power must be finite"):
        check_lemma(np.eye(3), np.eye(3) / 3, power)
