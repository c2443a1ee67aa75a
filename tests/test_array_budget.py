"""The per-array byte budget, ``linalg.ARRAY_BYTES_CAP``, at each route's boundary.

Each case is run at its last admitted size and at its first refused one,
under ``tracemalloc``: the refused size raises :class:`DimensionCap` before
any large array is allocated, and the admitted one stays within a small
multiple of the budget.  Sizes the budget newly admits (full dimensions
past 2^14 on the eigenbasis route and for white noise, past 2^11 for
multi-term states) are checked against exact sums or the full-space
reference, which share no code with the engine, and a mixture of many
product states or of many two-term components is taken in chunks of
components that fit the budget.
"""

import math
import tracemalloc

import numpy as np
import pytest

from witnesslab import oracle
from witnesslab.errors import DimensionCap
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form
from witnesslab.linalg import ARRAY_BYTES_CAP, annihilation_op, qubit_lowering_op
from witnesslab.states import MixedEnsemble, ProductTerm, PureSOP, StateFamily, build_state
from witnesslab.witness import OperatorAssignment, canonical_assignment, evaluate, rhs_condition2

import full_space


def _product(n: int) -> PureSOP:
    """One product term of n Haar-random qubit kets (the eigenbasis route)."""
    rng = np.random.default_rng(n)
    kets = tuple(oracle.haar_ket(2, rng) for _ in range(n))
    return PureSOP((2,) * n, (ProductTerm(1.0, kets),))


def _tilted(n: int):
    """LSeparable with one tilted qubit: the eigenbasis route over 2-term vectors, D = 2^n."""
    params = {"n": n, "l": 1, "theta": 0.5, "thetas": [0.3]}
    state = build_state(StateFamily("LSeparable", params))
    return evaluate(state, canonical_assignment("lowering", state.dims))


def _eigenbasis(n: int):
    state = _product(n)
    return evaluate(state, canonical_assignment("lowering", state.dims))


def _white_noise(n: int):
    """White-noise NoisyGHZ: the factorized route plus a 2^n noise grid."""
    params = {"n": n, "theta": 0.5, "p": 0.6, "noise": "white"}
    state = build_state(StateFamily("NoisyGHZ", params))
    return evaluate(state, canonical_assignment("lowering", state.dims))


def _squeezed(terms: int):
    """NModeSqueezed with n=2 and ``terms`` Fock levels: terms x terms pair matrices."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 2, "x": 0.99, "cutoff": terms - 1}))
    return evaluate(state, canonical_assignment("annihilation", state.dims))


def _four_mode_annihilation(cutoff: int):
    """ModifiedFourMode's annihilation operators, dims (c+1, c+1, c+2, c+2): at the refused
    cutoff 2047, dim 2049 comes after two operators of dim 2048 that fit."""
    state = build_state(StateFamily("ModifiedFourMode", {"x": 0.9, "cutoff": cutoff}))
    return canonical_assignment("annihilation", state.dims)


@pytest.mark.parametrize(
    "run, admitted",
    [
        (_tilted, 21),  # 2 x 2 terms x D/2 complex eigenbasis block: D = 2^21
        (_eigenbasis, 23),  # D floats: D = 2^23
        (_white_noise, 23),
        (_squeezed, 2048),  # terms x terms complex: 2048 terms
        (annihilation_op, 2048),  # d x d complex: d = 2048
        (_four_mode_annihilation, 2046),  # the same d, each refused before its row map is built
    ],
)
def test_each_route_refuses_past_the_budget_before_allocating(run, admitted):
    """The last admitted size peaks within 4x the budget; the next one raises under 1 MiB."""
    for size, refused in ((admitted, False), (admitted + 1, True)):
        tracemalloc.start()
        try:
            if refused:
                with pytest.raises(DimensionCap):
                    run(size)
            else:
                run(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2**20 if refused else 4 * ARRAY_BYTES_CAP), (size, peak)


def test_a_state_refused_from_its_dims_builds_no_term_group():
    """MixedSingleOut n=400 under lowering is refused by rhs2's grid check, from the dims
    and the axis offsets alone: evaluate raises under 1 MiB and builds no term group."""
    params = {"n": 400, "theta": 0.3, "thetas": [0.2] * 400}
    state = build_state(StateFamily("MixedSingleOut", params))
    assignment = canonical_assignment("lowering", state.dims)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap, match=r"grid of ~10\^120\.4 entries"):
            evaluate(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "groups" not in vars(state)
    assert peak < 2**20, peak


def test_the_refused_annihilation_operator_names_its_dim():
    """The refusal names the first dim past the budget, as the d x d matrix would be sized."""
    with pytest.raises(DimensionCap, match=r"^annihilation operator of dim 2049: 4198401 entries"):
        _four_mode_annihilation(2047)


def _poisson_binomial(probs) -> np.ndarray:
    """P(s): the probability that s of the independent events with these probabilities occur."""
    dist = np.array([1.0])
    for p in probs:
        dist = np.convolve(dist, [1.0 - p, p])
    return dist


@pytest.mark.parametrize("ops, level", [("lowering", 1), ("raising", 0)])
def test_eigenbasis_rhs2_of_a_20_qubit_product_is_a_poisson_binomial_sum(ops, level):
    """A^dag A = |level><level| on every site, so S = s/n on a basis state with s sites
    at ``level``, and the product state puts Poisson-binomial weight on s."""
    n = 20
    state = _product(n)
    probs = [abs(ket[level]) ** 2 for ket in state.terms[0].factors]
    dist = _poisson_binomial(probs)
    want = math.fsum(dist[s] * (s / n) ** (n / 2) for s in range(n + 1))
    got = rhs_condition2(state, canonical_assignment(ops, state.dims))
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_white_noise_rhs2_at_20_qubits_is_a_binomial_sum():
    """With lowering operators S is 0 on |0...0> and 1 on |1...1>, and white noise
    weighs the s/n eigenvalue by C(n, s) / 2^n."""
    n, theta, p = 20, 0.4, 0.7
    params = {"n": n, "theta": theta, "p": p, "noise": "white"}
    state = build_state(StateFamily("NoisyGHZ", params))
    noise = math.fsum(math.comb(n, s) * (s / n) ** (n / 2) for s in range(n + 1)) / 2**n
    want = p * math.sin(theta) ** 2 + (1.0 - p) * noise
    got = rhs_condition2(state, canonical_assignment("lowering", state.dims))
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_eigenbasis_rhs2_of_many_components_stays_within_the_budget():
    """64 one-term components at D = 2^18 would make a 128 MiB components x D/2 block;
    the route takes them in chunks of 32 components (64 MiB), and rhs2 is the mean of
    the components' Poisson-binomial sums (lowering: S = s/n with s sites at |1>)."""
    n, count = 18, 64
    rng = np.random.default_rng(64)
    kets = rng.standard_normal((n, count, 2)) + 1j * rng.standard_normal((n, count, 2))
    kets /= np.linalg.norm(kets, axis=2, keepdims=True)
    state = MixedEnsemble.from_products((2,) * n, (1.0 / count,) * count, list(kets))
    assignment = canonical_assignment("lowering", state.dims)
    tracemalloc.start()
    try:
        got = rhs_condition2(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ARRAY_BYTES_CAP, peak
    sums = [
        math.fsum(dist[s] * (s / n) ** (n / 2) for s in range(n + 1))
        for dist in (_poisson_binomial(np.abs(kets[:, c, 1]) ** 2) for c in range(count))
    ]
    want = math.fsum(sums) / count
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_eigenbasis_rhs2_of_many_two_term_components_stays_within_the_budget():
    """MixedSingleOut at n = 18 has 18 two-term components, 144 MiB of 2 x 2 terms x
    D/2 complex blocks: the route takes them in chunks of 8 components, and rhs2 times
    n matches MIXED_C2."""
    n = 18
    params = {"n": n, "theta": 0.4, "thetas": [0.1 + 0.07 * i for i in range(n)]}
    state = build_state(StateFamily("MixedSingleOut", params))
    assignment = canonical_assignment("lowering", state.dims)
    tracemalloc.start()
    try:
        got = n * rhs_condition2(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ARRAY_BYTES_CAP, peak
    want = closed_form(FormulaId.MIXED_C2, params)[1]
    assert abs(got - want) <= EXACT_TOL, (got, want)


def test_a_dim_1_site_0_does_not_size_the_eigenbasis_block():
    """A product of 23 qubits after a dim-1 site 0 has D = 2^23, admitted as without the
    dim-1 site: the block is sized by the first site of dim > 1, not by D / 1.  Site 0's
    A^dag A is 0, so S = s/24 with s qubits at |1>, a Poisson-binomial sum."""
    n, rng = 24, np.random.default_rng(24)
    kets = (np.ones(1, dtype=complex),) + tuple(oracle.haar_ket(2, rng) for _ in range(n - 1))
    state = PureSOP((1,) + (2,) * (n - 1), (ProductTerm(1.0, kets),))
    assignment = OperatorAssignment((np.zeros((1, 1)),) + (qubit_lowering_op(),) * (n - 1))
    tracemalloc.start()
    try:
        got = rhs_condition2(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ARRAY_BYTES_CAP, peak
    dist = _poisson_binomial([abs(ket[1]) ** 2 for ket in kets[1:]])
    want = math.fsum(dist[s] * (s / n) ** (n / 2) for s in range(n))
    assert abs(got - want) <= 1e-12 * want, (got, want)


def _tilted_under_random_operators(n: int):
    """LSeparable with one tilted qubit under random operators (non-diagonal A^dag A)."""
    params = {"n": n, "l": 1, "theta": 0.5, "thetas": [0.3]}
    state = build_state(StateFamily("LSeparable", params))
    return state, oracle.random_assignment(state.dims, np.random.default_rng(n))


def test_random_operators_on_a_multi_term_state_past_d_2048_stay_within_the_budget():
    """S is diagonal in the local eigenbases whatever the operators, so at D = 4096 the
    route keeps D floats and a 2 x 2 terms x D/2 block, with no D x D matrix: it peaks
    within 4x the budget."""
    state, assignment = _tilted_under_random_operators(12)
    tracemalloc.start()
    try:
        report = evaluate(state, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ARRAY_BYTES_CAP, peak
    assert all(math.isfinite(v) for v in (report.lhs, report.rhs1, report.rhs2))


def test_random_operators_on_a_multi_term_state_match_the_full_space_reference():
    """The same family at D = 1024 equals the full-space reference to 1e-10 relative."""
    state, assignment = _tilted_under_random_operators(10)
    got = rhs_condition2(state, assignment)
    want = full_space.rhs2(state, assignment)
    assert abs(got - want) <= 1e-10 * want, (got, want)
