"""Acceptance suite: one test per advertised guarantee.

Each test prints a single pass/fail line, so running

    pytest -s tests/test_acceptance.py

doubles as the reproduction report.  Tolerances are pinned here and
nowhere else; the oracles (brute-force grid scans, independent series
summation, closed forms) are computed inside the tests.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from witnesslab.formulas import FormulaId, closed_form, numeric_form
from witnesslab.oracle import (
    random_assignment,
    random_pure_state,
    run_lemma_trials,
    run_separable_trials,
)
from witnesslab.scan import SweepSpec, find_threshold, sweep
from witnesslab.states import MixedEnsemble, StateFamily, build_state
from witnesslab.witness import (
    OperatorAssignment,
    evaluate,
    site_second_moments,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description}")


def ghz_sweep(n, ops, steps=201):
    # open interval: at sin(theta) = 0 or cos(theta) = 0 the state is a
    # product and both sides vanish, so the strict inequality cannot fire
    spec = SweepSpec(StateFamily("GHZ", {"n": n}), "theta", (1e-4, math.pi / 2 - 1e-4, steps), ops)
    return sweep(spec)


def test_criterion_1_ghz_detection_region():
    with criterion(1, "GHZ detection region for n in {3,5,8}, both operator choices, < 1 s"):
        start = time.perf_counter()
        sweeps = {
            (n, ops): ghz_sweep(n, ops) for n in (3, 5, 8) for ops in ("lowering", "raising")
        }
        elapsed = time.perf_counter() - start
        for (n, ops), rows in sweeps.items():
            for theta, rep in rows:
                c, s = abs(math.cos(theta)), abs(math.sin(theta))
                expected = (c > s + 1e-9) if ops == "lowering" else (s > c + 1e-9)
                assert (rep.detected1 and rep.detected2) == expected, (n, ops, theta)
                assert abs(rep.lhs - c * s) <= 1e-10
                bound = s * s if ops == "lowering" else c * c
                assert abs(rep.rhs1 - bound) <= 1e-10
                assert abs(rep.rhs2 - bound) <= 1e-10
        # product points themselves never fire
        for n in (3, 5, 8):
            for theta in (0.0, math.pi / 2):
                rep = evaluate(
                    build_state(StateFamily("GHZ", {"n": n, "theta": theta})),
                    OperatorAssignment.qubit_lowering(n),
                )
                assert not rep.detected1 and not rep.detected2
        assert elapsed < 1.0, f"sweeps took {elapsed:.2f}s"


def test_criterion_2_ground_noise_invariance():
    with criterion(2, "ground-noise mixing leaves detection indicators unchanged"):
        thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 101)
        lowering = OperatorAssignment.qubit_lowering(3)
        pure_flags = []
        for theta in thetas:
            rep = evaluate(
                build_state(StateFamily("GHZ", {"n": 3, "theta": float(theta)})), lowering
            )
            pure_flags.append((rep.detected1, rep.detected2))
        for p in (0.1, 0.5, 0.9):
            for theta, want in zip(thetas, pure_flags):
                state = build_state(
                    StateFamily(
                        "NoisyGHZ",
                        {"n": 3, "theta": float(theta), "p": p, "noise": "ground"},
                    )
                )
                rep = evaluate(state, lowering)
                assert (rep.detected1, rep.detected2) == want, (p, theta)


def test_criterion_3_white_noise_threshold():
    with criterion(3, "white-noise bound formula, p* = 0.7071, no detection for p <= 1/3"):
        lowering = OperatorAssignment.qubit_lowering(3)
        # bound formula to 1e-10
        for theta in np.linspace(0.0, math.pi / 2, 21):
            for p in (0.15, 0.5, 0.85):
                state = build_state(
                    StateFamily(
                        "NoisyGHZ",
                        {"n": 3, "theta": float(theta), "p": p, "noise": "white"},
                    )
                )
                rep = evaluate(state, lowering)
                want = p * math.sin(theta) ** 2 + (1.0 - p) / 2.0
                assert abs(rep.rhs1 - want) <= 1e-10

        # derived oracle: the best-case angle maximizes cos sin - sin^2,
        # a brute-force grid maximization gives (sqrt(2)-1)/2 at pi/8
        grid = np.linspace(0.0, math.pi / 2, 20001)
        gains = np.cos(grid) * np.sin(grid) - np.sin(grid) ** 2
        best = float(np.max(gains))
        assert abs(best - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-8
        assert abs(grid[int(np.argmax(gains))] - math.pi / 8) < 1e-3
        p_star_oracle = 1.0 / (1.0 + 2.0 * best)

        fam = StateFamily("NoisyGHZ", {"n": 3, "theta": math.pi / 8, "noise": "white"})
        spec = SweepSpec(fam, "p", (0.3, 0.99, 2), "lowering", 1)
        result = find_threshold(spec, (0.3, 0.99), 1e-4)
        assert abs(result.value - 0.7071) <= 1e-3
        assert abs(result.value - p_star_oracle) <= 1e-3

        # below p = 1/3 nothing is detectable at any angle
        for p in np.linspace(0.02, 1.0 / 3.0, 12):
            for theta in np.linspace(0.0, math.pi / 2, 41):
                state = build_state(
                    StateFamily(
                        "NoisyGHZ",
                        {"n": 3, "theta": float(theta), "p": float(p), "noise": "white"},
                    )
                )
                rep = evaluate(state, lowering)
                assert not rep.detected1 and not rep.detected2


def test_criterion_4_two_group_l1_n3():
    with criterion(
        4, "l=1, n=3 split: condition 2 never fires, condition 1 fires near 0, coefficients"
    ):
        fam = StateFamily("TwoGroupGHZ", {"n": 3, "l": 1, "theta1": math.pi / 4})
        spec = SweepSpec(fam, "theta2", (1e-3, math.pi - 1e-3, 500), "lowering")
        rows = sweep(spec)
        assert not any(rep.detected2 for _, rep in rows)
        flags1 = [rep.detected1 for _, rep in rows]
        assert flags1[0] and flags1[1]
        assert any(flags1) and not all(flags1)

        # recover the quadratic coefficients of the doubled condition-2 bound
        thetas = np.array([theta for theta, _ in rows])
        doubled = np.array([2.0 * rep.rhs2 for _, rep in rows])
        design = np.column_stack(
            [
                np.sin(thetas) ** 2,
                np.cos(thetas) ** 2,
                np.abs(np.cos(thetas) * np.sin(thetas)),
            ]
        )
        coef, *_ = np.linalg.lstsq(design, doubled, rcond=None)
        assert abs(coef[0] - 1.5443) <= 1e-3
        assert abs(coef[1] - 0.19245) <= 1e-3
        assert abs(coef[2]) <= 1e-6


def test_criterion_5_two_group_l2_n4():
    with criterion(5, "l=2, n=4 split: condition 1 silent on a 100x100 grid; theta* matches"):
        lowering = OperatorAssignment.qubit_lowering(4)
        for theta1 in np.linspace(0.0, math.pi, 100):
            for theta2 in np.linspace(0.0, math.pi, 100):
                state = build_state(
                    StateFamily(
                        "TwoGroupGHZ",
                        {"n": 4, "l": 2, "theta1": float(theta1), "theta2": float(theta2)},
                    )
                )
                rep = evaluate(state, lowering)
                assert not rep.detected1, (theta1, theta2)
        fam = StateFamily("TwoGroupGHZ", {"n": 4, "l": 2})
        spec = SweepSpec(fam, "theta1,theta2", (0.1, 1.0, 2), "lowering", 2)
        result = find_threshold(spec, (0.1, 1.0), 1e-5)
        assert abs(result.value - math.atan(1.0 / math.sqrt(2.0))) <= 1e-3


def test_criterion_6_l_separable_rule():
    with criterion(6, "l separable sites: detectable iff l < n/2 (pi/4 tilts)"):
        def detected_anywhere(n, l):
            grid = np.concatenate(
                [np.logspace(-5, -0.8, 40), np.linspace(0.2, math.pi / 2 * 0.999, 40)]
            )
            lowering = OperatorAssignment.qubit_lowering(n)
            for theta in grid:
                state = build_state(
                    StateFamily(
                        "LSeparable",
                        {"n": n, "l": l, "theta": float(theta), "thetas": [math.pi / 4] * l},
                    )
                )
                if evaluate(state, lowering).detected1:
                    return True
            return False

        for n, l in [(6, 1), (6, 2), (8, 3)]:
            assert detected_anywhere(n, l), (n, l)
        for n, l in [(6, 3), (6, 4), (8, 4)]:
            assert not detected_anywhere(n, l), (n, l)


def test_criterion_7_mixed_single_out():
    with criterion(7, "single-out mixture matches closed forms; asymptotic threshold factor"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            params = {
                "n": n,
                "theta": float(rng.uniform(-math.pi, math.pi)),
                "thetas": [float(t) for t in rng.uniform(-math.pi, math.pi, n)],
            }
            for tag in (FormulaId.MIXED_C1, FormulaId.MIXED_C2):
                closed = closed_form(tag, params)
                numeric = numeric_form(tag, params)
                assert max(abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1])) <= 1e-8

        # n = 8, first site tilted to pi/4, the rest aligned: engine-level
        # threshold vs the coarse large-n form |cos| > 2(n-1)|sin|
        fam = StateFamily("MixedSingleOut", {"n": 8, "thetas": [math.pi / 4] + [0.0] * 7})
        spec = SweepSpec(fam, "theta", (1e-3, 0.3, 2), "lowering", 1)
        exact = find_threshold(spec, (1e-3, 0.3), 1e-6).value
        asym = math.atan(1.0 / (2.0 * 7.0))
        ratio = max(exact / asym, asym / exact)
        assert ratio <= 2.0, ratio


def test_criterion_8_n_mode_squeezed():
    with criterion(8, "squeezed vacuum: lhs/rhs = 1/x, both conditions fire, bounds equal"):
        for n in (3, 4):
            for x in (0.1, 0.5, 0.9):
                state = build_state(StateFamily("NModeSqueezed", {"n": n, "x": x}))
                ops = OperatorAssignment.annihilation(state.dims)
                rep = evaluate(state, ops)
                assert abs(rep.lhs / rep.rhs1 - 1.0 / x) <= 1e-6
                assert rep.detected1 and rep.detected2
                assert abs(rep.rhs1 - rep.rhs2) <= 1e-9


def test_criterion_9_modified_four_mode():
    with criterion(9, "shifted four-mode state: closed forms, regions, x* = 0.1397, < 10 s"):
        start = time.perf_counter()
        for x in (0.1, 0.1397, 0.5):
            state = build_state(StateFamily("ModifiedFourMode", {"x": x}))
            rep = evaluate(state, OperatorAssignment.annihilation(state.dims))
            denom = (1.0 - x * x) ** 2
            assert abs(rep.lhs - 2.0 * x / denom) <= 1e-6
            assert abs(rep.rhs1 - x * (1.0 + x * x) / denom) <= 1e-6
            assert abs(rep.rhs2 - (x**4 + 6.0 * x**2 + 1.0) / (4.0 * denom)) <= 1e-6
        for x in np.linspace(0.02, 0.9, 20):
            state = build_state(StateFamily("ModifiedFourMode", {"x": float(x)}))
            assert evaluate(state, OperatorAssignment.annihilation(state.dims)).detected1
        spec = SweepSpec(
            StateFamily("ModifiedFourMode", {}), "x", (0.01, 0.5, 2), "annihilation", 2
        )
        result = find_threshold(spec, (0.01, 0.5), 1e-4)
        assert abs(result.value - 0.1397) <= 5e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_10_separable_oracle():
    with criterion(10, "10^4 random separable ensembles: zero bound violations, < 60 s"):
        start = time.perf_counter()
        summary = run_separable_trials(10_000, seed=20260808, max_n=4, max_dim=3, max_terms=4)
        elapsed = time.perf_counter() - start
        assert summary.violations == 0
        assert summary.worst_margin >= -1e-9
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_11_operator_power_inequality():
    with criterion(11, "10^3 random (B, rho, p) triples keep <B^p> >= <B>^p"):
        summary = run_lemma_trials(1_000, seed=31337)
        assert summary.violations == 0
        assert summary.worst_margin >= -1e-10


def test_criterion_12_bipartite_reduction():
    with criterion(12, "n = 2 reports satisfy the squared-bound identity and hierarchy"):
        rng = np.random.default_rng(424242)
        for trial in range(1_000):
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            if trial % 3 == 2:
                pures = tuple(
                    random_pure_state(dims, int(rng.integers(1, 3)), rng) for _ in range(2)
                )
                weights = rng.dirichlet(np.ones(2))
                state = MixedEnsemble(dims, tuple(float(w) for w in weights), pures)
            else:
                state = random_pure_state(dims, int(rng.integers(1, 4)), rng)
            assignment = random_assignment(dims, rng)
            rep = evaluate(state, assignment)
            m_a, m_b = site_second_moments(state, assignment)
            scale = max(1.0, rep.rhs2**2)
            assert abs(rep.rhs2**2 - (rep.rhs1**2 + 0.25 * (m_a - m_b) ** 2)) <= 1e-9 * scale
            if rep.detected2:
                assert rep.detected1
