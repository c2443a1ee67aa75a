"""Tests for the condition-evaluation engine."""

import math
from unittest import mock

import numpy as np
import pytest

from witnesslab import linalg, oracle, witness
from witnesslab.errors import (
    BadParameter,
    DimensionCap,
    DimensionMismatch,
    NumericalOverflow,
)
from witnesslab.formulas import EXACT_TOL, FormulaId, closed_form, numeric_form
from witnesslab.linalg import dag, kron_embed, qubit_lowering_op
from witnesslab.oracle import (
    SeparableSpec,
    random_assignment,
    random_pure_state,
    sample_separable,
)
from witnesslab.states import (
    MixedEnsemble,
    ProductTerm,
    PureSOP,
    StateFamily,
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
from full_space import sides, state_vector


def ghz(n, theta):
    return build_state(StateFamily("GHZ", {"n": n, "theta": theta}))


def four_mode(x, tail_tol=1e-15):
    return build_state(StateFamily("ModifiedFourMode", {"x": x}), tail_tol=tail_tol)


def test_ghz_product_expectation():
    """<prod |0><1|> = cos(theta) sin(theta); sqrt(3)/4 at pi/6."""
    value = product_expectation(ghz(3, math.pi / 6), OperatorAssignment.qubit_lowering(3))
    assert value == pytest.approx(math.sqrt(3) / 4, abs=1e-14)
    for theta in (0.2, 0.9, 2.5):
        value = product_expectation(ghz(4, theta), OperatorAssignment.qubit_lowering(4))
        assert value == pytest.approx(math.cos(theta) * math.sin(theta), abs=1e-13)


def test_lowering_annihilates_ground_product():
    value = product_expectation(ghz(3, 0.0), OperatorAssignment.qubit_lowering(3))
    assert value == pytest.approx(0.0, abs=1e-14)


def four_mode_series_moment(x, weight, tol=1e-16):
    """Independent truncated summation of (1-x^2) sum_m x^(2m) weight(m)."""
    q = x * x
    total, m = 0.0, 0
    while True:
        term = q**m * weight(m)
        total += term
        if m > 10 and term < tol * max(1.0, total):
            return (1.0 - q) * total
        m += 1


def test_four_mode_product_expectation_vs_series():
    """<a1 a2 a3 a4> at x = 0.5 is 2x/(1-x^2)^2 = 16/9, checked against
    an independent summation of the defining series."""
    x = 0.5
    state = four_mode(x)
    value = product_expectation(state, OperatorAssignment.annihilation(state.dims))
    series = four_mode_series_moment(x, lambda m: m * (m + 1)) / x
    assert series == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert value.real == pytest.approx(series, abs=1e-10)
    assert abs(value.imag) < 1e-12


def test_ghz_rhs_condition1():
    """Geometric-mean bound equals sin^2(theta); 0.25 at pi/6."""
    assert rhs_condition1(ghz(3, math.pi / 6), OperatorAssignment.qubit_lowering(3)) == (
        pytest.approx(0.25, abs=1e-14)
    )


def test_noisy_ghz_rhs_condition1_formula():
    """White noise shifts each site moment to p sin^2 + (1-p)/2."""
    lowering = OperatorAssignment.qubit_lowering(3)
    for theta, p in [(0.3, 0.8), (1.1, 0.4), (math.pi / 8, 0.95)]:
        state = build_state(
            StateFamily("NoisyGHZ", {"n": 3, "theta": theta, "p": p, "noise": "white"})
        )
        report = evaluate(state, lowering)
        want = p * math.sin(theta) ** 2 + (1.0 - p) / 2.0
        assert report.rhs1 == pytest.approx(want, abs=1e-14)
        # consistency with the p-rearranged inequality: same violation verdict
        rearranged = abs(math.cos(theta) * math.sin(theta)) > (
            math.sin(theta) ** 2 + (1.0 - p) / (2.0 * p)
        )
        assert report.detected1 == rearranged


def test_four_mode_rhs_condition1():
    """x(1+x^2)/(1-x^2)^2 = 10/9 at x = 0.5."""
    state = four_mode(0.5)
    value = rhs_condition1(state, OperatorAssignment.annihilation(state.dims))
    assert value == pytest.approx(10.0 / 9.0, abs=1e-10)


def test_ghz_rhs_condition2_matches_condition1():
    """For GHZ with lowering the two bounds coincide."""
    lowering = OperatorAssignment.qubit_lowering(3)
    state = ghz(3, math.pi / 6)
    assert rhs_condition2(state, lowering) == pytest.approx(0.25, abs=1e-12)
    for theta in np.linspace(0.1, 1.4, 7):
        state = ghz(5, float(theta))
        a5 = OperatorAssignment.qubit_lowering(5)
        assert abs(rhs_condition1(state, a5) - rhs_condition2(state, a5)) < 1e-9


def test_squeezed_conditions_coincide():
    for x in (0.2, 0.6, 0.9):
        state = build_state(StateFamily("NModeSqueezed", {"n": 3, "x": x}))
        ops = OperatorAssignment.annihilation(state.dims)
        assert abs(rhs_condition1(state, ops) - rhs_condition2(state, ops)) < 1e-9


def test_four_mode_rhs_condition2():
    """(x^4 + 6x^2 + 1)/(4(1-x^2)^2) = 2.5625/2.25 at x = 0.5."""
    state = four_mode(0.5)
    value = rhs_condition2(state, OperatorAssignment.annihilation(state.dims))
    assert value == pytest.approx(2.5625 / 2.25, abs=1e-10)


def test_two_group_rhs_condition2_equal_angles():
    """At theta1 = theta2 the doubled bound minus the lhs leaves 2 sin^4."""
    theta = 0.4
    state = build_state(
        StateFamily("TwoGroupGHZ", {"n": 4, "l": 2, "theta1": theta, "theta2": theta})
    )
    report = evaluate(state, OperatorAssignment.qubit_lowering(4))
    assert 2.0 * report.rhs2 - report.lhs == pytest.approx(
        2.0 * math.sin(theta) ** 4, abs=1e-12
    )


def test_evaluate_detects_ghz():
    report = evaluate(ghz(3, math.pi / 6), OperatorAssignment.qubit_lowering(3))
    assert report.detected1 and report.detected2
    assert report.lhs == pytest.approx(0.4330127, abs=1e-6)


def test_evaluate_balanced_ghz_not_detected():
    """cos = sin is the equality case: strict inequality fails."""
    report = evaluate(ghz(3, math.pi / 4), OperatorAssignment.qubit_lowering(3))
    assert not report.detected1 and not report.detected2


def test_two_group_l1_n3_detection_pattern():
    """Condition 1 fires near theta2 = 0, condition 2 never fires."""
    lowering = OperatorAssignment.qubit_lowering(3)
    detected1 = []
    for theta2 in np.linspace(1e-3, math.pi - 1e-3, 80):
        state = build_state(
            StateFamily(
                "TwoGroupGHZ",
                {"n": 3, "l": 1, "theta1": math.pi / 4, "theta2": float(theta2)},
            )
        )
        report = evaluate(state, lowering)
        assert not report.detected2
        detected1.append(report.detected1)
    assert detected1[0]
    assert any(detected1) and not all(detected1)


def test_flipped_ghz_with_matched_operators():
    """Raising on the flipped site restores the cos/sin detection region."""
    flipped = OperatorAssignment.qubit_flipped(4)
    state = build_state(StateFamily("FlippedGHZ", {"n": 4, "theta": 0.3}))
    report = evaluate(state, flipped)
    assert report.lhs == pytest.approx(abs(math.cos(0.3) * math.sin(0.3)), abs=1e-13)
    assert report.rhs1 == pytest.approx(math.sin(0.3) ** 2, abs=1e-13)
    assert report.detected1 and report.detected2


FAST_DENSE_CASES = [
    ("GHZ", {"n": 3, "theta": 0.7}, "lowering", None),
    ("GHZ", {"n": 8, "theta": 0.3}, "raising", None),
    ("FlippedGHZ", {"n": 4, "theta": 0.5}, "flipped", None),
    ("TwoGroupGHZ", {"n": 5, "l": 2, "theta1": 0.4, "theta2": 1.1}, "lowering", None),
    ("LSeparable", {"n": 6, "l": 2, "theta": 0.3, "thetas": [0.6, 0.9]}, "lowering", None),
    (
        "MixedSingleOut",
        {"n": 5, "theta": 0.25, "thetas": [0.1, 0.4, 0.9, 1.2, 0.7]},
        "lowering",
        None,
    ),
    ("NoisyGHZ", {"n": 4, "theta": 0.6, "p": 0.55, "noise": "white"}, "lowering", None),
    ("NoisyGHZ", {"n": 4, "theta": 0.6, "p": 0.55, "noise": "ground"}, "lowering", None),
    ("NModeSqueezed", {"n": 3, "x": 0.5, "cutoff": 7}, "annihilation", 1e-2),
    ("ModifiedFourMode", {"x": 0.5, "cutoff": 3}, "annihilation", 1e-2),
]


@pytest.mark.parametrize("family,params,ops,tail", FAST_DENSE_CASES)
def test_fast_equals_dense(family, params, ops, tail):
    """Factorized evaluations agree with the full-space reference on every family."""
    state = build_state(StateFamily(family, params), **({} if tail is None else {"tail_tol": tail}))
    assignment = canonical_assignment(ops, state.dims)
    lhs, rhs1, rhs2 = sides(state, assignment)
    assert abs(abs(product_expectation(state, assignment)) - lhs) < 1e-9
    assert abs(rhs_condition1(state, assignment) - rhs1) < 1e-9
    assert abs(rhs_condition2(state, assignment) - rhs2) < 1e-9


def test_report_values_real_nonnegative():
    """lhs and both bounds are real and nonnegative across random families."""
    rng = np.random.default_rng(4)
    lowering = OperatorAssignment.qubit_lowering(4)
    for _ in range(25):
        theta1, theta2 = rng.uniform(-math.pi, math.pi, 2)
        state = build_state(
            StateFamily(
                "TwoGroupGHZ", {"n": 4, "l": 2, "theta1": float(theta1), "theta2": float(theta2)}
            )
        )
        report = evaluate(state, lowering)
        for value in (report.lhs, report.rhs1, report.rhs2):
            assert value >= -1e-10


def test_bipartite_identity_and_hierarchy():
    """rhs2^2 = rhs1^2 + ((a-b)/2)^2 and condition 2 implies condition 1 at n=2."""
    from witnesslab.oracle import random_assignment, random_pure_state

    rng = np.random.default_rng(12)
    for _ in range(100):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        state = random_pure_state(dims, int(rng.integers(1, 4)), rng)
        assignment = random_assignment(dims, rng)
        report = evaluate(state, assignment)
        m_a, m_b = site_second_moments(state, assignment)
        assert report.rhs2**2 == pytest.approx(
            report.rhs1**2 + 0.25 * (m_a - m_b) ** 2, abs=1e-9 * max(1.0, report.rhs2**2)
        )
        if report.detected2:
            assert report.detected1


def test_local_phase_invariance():
    """Multiplying any A_k by a phase changes no report field."""
    state = ghz(3, 0.6)
    base = OperatorAssignment.qubit_lowering(3)
    phases = [np.exp(1j * phi) for phi in (0.3, -1.2, 2.8)]
    rotated = OperatorAssignment(tuple(ph * op for ph, op in zip(phases, base.ops)))
    rep_a, rep_b = evaluate(state, base), evaluate(state, rotated)
    for field in ("lhs", "rhs1", "rhs2", "margin1", "margin2"):
        assert getattr(rep_a, field) == pytest.approx(getattr(rep_b, field), abs=1e-12)
    assert (rep_a.detected1, rep_a.detected2) == (rep_b.detected1, rep_b.detected2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="4 operators for 3 subsystems"):
        product_expectation(ghz(3, 0.2), OperatorAssignment.qubit_lowering(4))


def test_dimension_mismatch_message_names_one_site():
    """400 squeezed modes of 110 levels against 74-level operators: the message
    names the first mismatching site and stays short, whatever n is."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 400, "x": 0.9}))
    assert state.dims == (110,) * 400
    with pytest.raises(DimensionMismatch) as info:
        site_second_moments(state, OperatorAssignment.annihilation((74,) * 400))
    message = str(info.value)
    assert message == "operator dim 74 != state dim 110 at site 0"
    assert len(message) < 200
    dims = (2, 2, 3, 2)
    state = oracle.random_pure_state(dims, 2, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch, match="operator dim 2 != state dim 3 at site 2"):
        rhs_condition1(state, OperatorAssignment.qubit_lowering(4))


def _rhs2_embeds(state, assignment):
    """rhs2 on the default route, and how many full-space embeds it made."""
    with mock.patch.object(witness, "kron_embed", wraps=kron_embed) as spy:
        value = rhs_condition2(state, assignment)
    return value, spy.call_count


def test_rhs2_route_follows_state_structure():
    """Label form with diagonal A^dag A takes the factorized route and embeds nothing,
    or n 1-D spectra for the white-noise grid; every other state takes the eigenbasis
    route with n embeds, and method="dense" forces that route, to the same bits."""
    lowering = OperatorAssignment.qubit_lowering(4)
    noisy = StateFamily("NoisyGHZ", {"n": 4, "theta": 0.6, "p": 0.55, "noise": "white"})
    for state, embeds in ((ghz(4, 0.4), 0), (build_state(noisy), 4)):
        assert witness._rhs2_route(state, lowering) == "factorized"
        assert _rhs2_embeds(state, lowering)[1] == embeds
    rng = np.random.default_rng(3)
    products = sample_separable(SeparableSpec((2, 2, 2, 2), 3, seed=5))
    ground = PureSOP.from_labels((2,) * 4, (1.0,), np.zeros((1, 4), dtype=np.int64))
    for state in (products, ground):
        assignment = random_assignment(state.dims, rng)
        assert witness._rhs2_route(state, assignment) == "eigenbasis"
        value, embeds = _rhs2_embeds(state, assignment)
        assert embeds == 4
        want = full_space.rhs2(state, assignment)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        assert value == rhs_condition2(state, assignment, method="dense")
    tilted = build_state(
        StateFamily("LSeparable", {"n": 4, "l": 1, "theta": 0.4, "thetas": [0.3]})
    )
    assert witness._rhs2_route(tilted, lowering) == "eigenbasis"
    value, embeds = _rhs2_embeds(tilted, lowering)
    assert embeds == 4
    assert value == rhs_condition2(tilted, lowering, method="dense")
    # "fast" is no longer a method of rhs2
    with pytest.raises(ValueError):
        rhs_condition2(tilted, lowering, method="fast")


@pytest.mark.parametrize("seed", [0, 1])
def test_eigenbasis_rhs2_matches_dense_on_the_oracle_stream(seed):
    """The first 300 trials of run_separable_trials' own stream, up to D = 4^5: auto
    rhs2 makes n embeds and equals the full-space reference to 1e-10 relative."""
    trials = []

    def record(state, assignment):
        trials.append((state, assignment))
        return 0.0, 0.0

    with mock.patch.object(oracle, "check_separable_bounds", side_effect=record):
        oracle.run_separable_trials(300, seed, max_n=5, max_dim=4, max_terms=6)
    assert len(trials) == 300 and max(np.prod(s.dims) for s, _ in trials) > 256
    for state, assignment in trials:
        value, embeds = _rhs2_embeds(state, assignment)
        assert embeds == len(state.dims)
        want = full_space.rhs2(state, assignment)
        assert abs(value - want) <= 1e-10 * max(1.0, abs(want)), (state.dims, value, want)


def test_eigenbasis_rhs2_with_white_noise_and_dim_one_sites():
    """A white-noise mixture of product states, dim-1 sites included, matches the
    full-space reference."""
    rng = np.random.default_rng(11)
    for dims in ((1, 3, 2, 1), (2, 3, 4), (3, 1)):
        products = sample_separable(SeparableSpec(dims, 4, seed=int(rng.integers(1000))))
        weights = tuple(0.7 * w for w in products.weights)
        noisy = MixedEnsemble(dims, weights, products.pures, white_noise_weight=0.3)
        for assignment in (random_assignment(dims, rng), OperatorAssignment.annihilation(dims)):
            value, embeds = _rhs2_embeds(noisy, assignment)
            assert embeds == len(dims)
            want = full_space.rhs2(noisy, assignment)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (dims, value, want)


def test_eigenbasis_rhs2_of_multi_term_states_under_random_operators():
    """300 random pure and mixed states of 2-4 terms per component, some with white
    noise, under random operators: the eigenbasis route equals the full-space
    reference to 1e-10 relative."""
    rng = np.random.default_rng(300)
    for _ in range(300):
        dims = tuple(int(d) for d in rng.integers(1, 4, int(rng.integers(2, 5))))
        pures = tuple(random_pure_state(dims, int(rng.integers(2, 5)), rng) for _ in range(3))
        count = int(rng.integers(1, 4))
        if count == 1 and rng.random() < 0.5:
            state = pures[0]
        else:
            weights = rng.dirichlet(np.ones(count + 1))
            noise = float(weights[-1]) if rng.random() < 0.5 else 0.0
            weights = weights[:-1] / weights[:-1].sum() * (1.0 - noise)
            state = MixedEnsemble(dims, tuple(weights), pures[:count], noise)
        assignment = random_assignment(dims, rng)
        assert witness._rhs2_route(state, assignment) == "eigenbasis"
        value = rhs_condition2(state, assignment)
        want = full_space.rhs2(state, assignment)
        assert abs(value - want) <= 1e-10 * max(1.0, abs(want)), (dims, value, want)


def test_eigenbasis_rhs2_checks_the_cap_before_any_spectrum():
    """A one-term product of 24 qubits (a 2^24-float grid, 128 MiB) raises DimensionCap
    with no local eigh done."""
    rng = np.random.default_rng(4)
    kets = tuple(oracle.haar_ket(2, rng) for _ in range(24))
    state = PureSOP((2,) * 24, (ProductTerm(1.0, kets),))
    assignment = random_assignment(state.dims, rng)
    with (
        mock.patch.object(witness, "psd_eigh", wraps=witness.psd_eigh) as eigh,
        pytest.raises(DimensionCap, match="eigenbasis"),
    ):
        evaluate(state, assignment)
    assert eigh.call_count == 0


def test_every_route_refuses_a_state_over_the_side_cap(monkeypatch):
    """Pair matrices over the byte budget raise DimensionCap on every route; 8 x 8 runs.

    The states and operators are built first: the builder and the
    annihilation operator check the same budget.
    """
    at_cap = build_state(StateFamily("NModeSqueezed", {"n": 2, "x": 0.1, "cutoff": 7}))
    over = build_state(StateFamily("NModeSqueezed", {"n": 2, "x": 0.1, "cutoff": 8}))
    assignment = OperatorAssignment.annihilation(over.dims)
    mixed = MixedEnsemble(over.dims, (0.5,), (over,), white_noise_weight=0.5)
    monkeypatch.setattr(linalg, "ARRAY_BYTES_CAP", 8 * 8 * 16)
    assert len(at_cap.amplitudes()) == 8
    evaluate(at_cap, OperatorAssignment.annihilation(at_cap.dims))
    for state in (over, mixed):
        for route in (
            lambda: product_expectation(state, assignment),
            lambda: site_second_moments(state, assignment),
            lambda: rhs_condition1(state, assignment),
            lambda: rhs_condition2(state, assignment),
            lambda: rhs_condition2(state, assignment, method="dense"),
        ):
            with pytest.raises(DimensionCap):
                route()


def test_evaluate_refuses_an_over_cap_state_before_lhs_and_rhs1():
    """rhs2 runs first, so its DimensionCap comes before any lhs or rhs1 work: at n=24
    under random operators (a grid of 2^24 floats), and at n=22 under lowering (a 2 x 2
    terms x 2^21 complex block per component)."""
    for n, assignment, match in (
        (24, random_assignment((2,) * 24, np.random.default_rng(24)), "route: grid of"),
        (22, OperatorAssignment.qubit_lowering(22), "route: block of"),
    ):
        state = build_state(
            StateFamily("MixedSingleOut", {"n": n, "theta": 0.3, "thetas": [0.2] * n})
        )
        with (
            mock.patch.object(witness, "product_expectation") as lhs,
            mock.patch.object(witness, "rhs_condition1") as rhs1,
            pytest.raises(DimensionCap, match=match),
        ):
            evaluate(state, assignment)
        assert lhs.call_count == 0 and rhs1.call_count == 0


def test_rhs_condition2_dimension_cap():
    """Random operators on a large Fock space leave no viable route: 4 squeezed modes
    of 27 levels make a 27 x 27 terms x 27^3 complex block."""
    state = build_state(StateFamily("NModeSqueezed", {"n": 4, "x": 0.65}))
    assert len(state.amplitudes()) ** 2 * np.prod(state.dims[1:]) > 2**22
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionCap, match="route: block of"):
        rhs_condition2(state, random_assignment(state.dims, rng))
    # a ket-form GHZ takes the eigenbasis route; its message writes 2^1000 in short form
    up, down = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    amp = complex(math.sqrt(0.5))
    ket_ghz = PureSOP((2,) * 1000, (ProductTerm(amp, (up,) * 1000), ProductTerm(amp, (down,) * 1000)))
    with pytest.raises(DimensionCap) as info:
        rhs_condition2(ket_ghz, OperatorAssignment.qubit_lowering(1000))
    assert len(str(info.value)) < 200


def test_report_json_schema():
    report = evaluate(ghz(3, 0.5), OperatorAssignment.qubit_lowering(3))
    payload = report.to_json()
    assert list(payload) == [
        "lhs",
        "rhs1",
        "rhs2",
        "margin1",
        "margin2",
        "detected1",
        "detected2",
        "epsilon",
    ]


def test_epsilon_semantics():
    """detected_i is exactly margin_i > epsilon for the epsilon used."""
    state = ghz(3, 0.5)
    lowering = OperatorAssignment.qubit_lowering(3)
    report = evaluate(state, lowering)
    assert report.detected1 == (report.margin1 > report.epsilon)
    assert report.detected2 == (report.margin2 > report.epsilon)
    # an epsilon larger than the margin suppresses detection
    muted = evaluate(state, lowering, epsilon=1.0)
    assert not muted.detected1 and not muted.detected2 and muted.epsilon == 1.0


@pytest.mark.parametrize("epsilon", [-1e-3, -1e-300, math.nan, math.inf, -math.inf])
def test_epsilon_must_be_finite_and_nonnegative(epsilon):
    """A negative epsilon would flag the product state |000> as entangled."""
    with pytest.raises(BadParameter):
        evaluate(ghz(3, 0.0), OperatorAssignment.qubit_lowering(3), epsilon=epsilon)
    assert evaluate(ghz(3, 0.0), OperatorAssignment.qubit_lowering(3), epsilon=0.0).epsilon == 0.0


def _dense_rhs2_cases():
    """(state, assignment) pairs: pure, mixed and white-noise, with diagonal and non-diagonal A^dag A."""
    rng = np.random.default_rng(2024)
    for _ in range(6):
        dims = tuple(int(d) for d in rng.integers(2, 4, int(rng.integers(2, 5))))
        pure = random_pure_state(dims, int(rng.integers(1, 4)), rng)
        weights = rng.dirichlet(np.ones(4))
        mixed = MixedEnsemble(
            dims,
            tuple(weights[:3]),
            tuple(random_pure_state(dims, 2, rng) for _ in range(3)),
            float(weights[3]),
        )
        for state in (pure, mixed):
            yield state, random_assignment(dims, rng)
            yield state, OperatorAssignment.annihilation(dims)
    for n in (3, 4, 5):
        noisy = build_state(
            StateFamily("NoisyGHZ", {"n": n, "theta": float(rng.uniform(0, 1.5)), "p": 0.4,
                                     "noise": "white"})
        )
        yield noisy, OperatorAssignment.qubit_lowering(n)
        yield noisy, random_assignment(noisy.dims, rng)
    for family, params in (
        ("LSeparable", {"n": 5, "l": 2, "theta": 0.7, "thetas": [0.3, 1.1]}),
        ("MixedSingleOut", {"n": 4, "theta": 0.9, "thetas": [0.2, 0.5, 1.3, 0.8]}),
    ):
        state = build_state(StateFamily(family, params))
        yield state, OperatorAssignment.qubit_lowering(state.num_sites)
        yield state, random_assignment(state.dims, rng)


def test_dense_rhs2_matches_the_full_space_reference():
    """The spectral expectation equals the full-space reference's rhs2 to 1e-12 relative."""
    diagonal = non_diagonal = 0
    for state, assignment in _dense_rhs2_cases():
        squares = [dag(op) @ op for op in assignment.ops]
        if all(np.count_nonzero(sq - np.diag(np.diagonal(sq))) == 0 for sq in squares):
            diagonal += 1
        else:
            non_diagonal += 1
        want = sides(state, assignment)[2]
        got = rhs_condition2(state, assignment, method="dense")
        assert abs(got - want) <= 1e-12 * abs(want), (state.dims, got, want)
    assert diagonal >= 10 and non_diagonal >= 10


@pytest.mark.parametrize("n", [12, 16, 20])
def test_tilted_mixed_single_out_past_d_2048_matches_mixed_c2(n):
    """The eigenbasis route keeps S as its D real entries, so tilted MixedSingleOut
    runs past D = 2048; both sides match MIXED_C2 (times n)."""
    rng = np.random.default_rng(n)
    params = {"n": n, "theta": 0.4, "thetas": [float(t) for t in rng.uniform(0.1, 1.4, n)]}
    state = build_state(StateFamily("MixedSingleOut", params))
    assert witness._rhs2_route(state, OperatorAssignment.qubit_lowering(n)) == "eigenbasis"
    closed = closed_form(FormulaId.MIXED_C2, params)
    numeric = numeric_form(FormulaId.MIXED_C2, params)
    assert max(abs(c - m) for c, m in zip(closed, numeric)) <= EXACT_TOL, (closed, numeric)


@pytest.mark.parametrize("n", [12, 16])
def test_tilted_l_separable_past_d_2048_matches_a_popcount_sum(n):
    """Under lowering A_k^dag A_k = |1><1|, so S is popcount(i)/n on basis state i and
    rhs2 = sum_i (popcount(i)/n)^(n/2) |psi_i|^2, psi summed from the explicit terms."""
    state = build_state(
        StateFamily("LSeparable", {"n": n, "l": 2, "theta": 0.7, "thetas": [0.3, 1.1]})
    )
    lowering = OperatorAssignment.qubit_lowering(n)
    assert witness._rhs2_route(state, lowering) == "eigenbasis"
    psi = state_vector(state)
    popcount = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    want = math.fsum((popcount / n) ** (n / 2) * np.abs(psi) ** 2)
    got = evaluate(state, lowering).rhs2
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_overflowing_moment_is_a_typed_error():
    """n=400 squeezed modes overflow (A^dag A)^(n/2) to inf: evaluate names the side in
    a NumericalOverflow, with no RuntimeWarning; n=300 stays finite."""
    def squeezed(n):
        state = build_state(StateFamily("NModeSqueezed", {"n": n, "x": 0.9}))
        return state, OperatorAssignment.annihilation(state.dims)

    with pytest.raises(NumericalOverflow, match="^rhs2 is inf"):
        evaluate(*squeezed(400))
    report = evaluate(*squeezed(300))
    assert all(math.isfinite(v) for v in (report.lhs, report.rhs1, report.rhs2))
    assert report.rhs2 > 1e295


def test_python_float_overflow_is_a_typed_error(monkeypatch):
    """An OverflowError from Python float ** leaves evaluate as NumericalOverflow."""
    monkeypatch.setattr(witness, "rhs_condition1", lambda state, assignment: 1e200**2.0)
    with pytest.raises(NumericalOverflow, match="overflows double precision"):
        evaluate(ghz(3, 0.4), OperatorAssignment.qubit_lowering(3))


def test_large_complex_operators_give_hermitian_squares():
    """A^dag A is Hermitian by construction, so operators scaled by 1000 pass the
    Hermiticity check that the round-off of dag(A) @ A alone mostly fails."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 4, int(rng.integers(2, 5))))
        ops = tuple(1000 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                    for d in dims)
        assignment = OperatorAssignment(ops)
        with mock.patch.object(witness, "psd_eigh", wraps=witness.psd_eigh) as eigh:
            evaluate(random_pure_state(dims, 2, rng), assignment)
        assert eigh.call_count >= 1
        for call in eigh.call_args_list:
            squares = call.args[0]
            np.testing.assert_array_equal(squares, squares.conj().swapaxes(1, 2))


@pytest.mark.parametrize(
    "op",
    [1e160 * qubit_lowering_op(), 1e160 * np.ones((2, 2))],
    ids=["row-sparse", "dense"],
)
def test_overflowing_square_is_a_typed_error(op):
    """A finite operator whose A^dag A overflows raises NumericalOverflow naming
    its scale, on the diagonal form and on the d x d form, with no RuntimeWarning."""
    state = ghz(3, 0.4)
    for side in (evaluate, site_second_moments):
        with pytest.raises(NumericalOverflow, match=r"^A\^dag A .* largest modulus 1e\+160"):
            side(state, OperatorAssignment((op,) * 3))
