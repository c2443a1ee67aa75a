"""Closed-form evaluators for the worked state families.

Every tag in :class:`FormulaId` names one printed relation for a specific
state family and operator choice, and :func:`closed_form` returns both
sides of that relation.  These serve as independent oracles for the
numerical witness engine: :func:`numeric_form` computes the same pair
from the engine, mapped onto the printed scale.

The printed relations are often algebraically rearranged versions of the
raw conditions (common factors cancelled, both sides cubed, a cross term
moved).  Each tag records the rearrangement it applies so that the
closed-form and engine values stay comparable; all rearrangements are
monotone, so violation regions are preserved.

Tags ending in ``_ASYMP_*`` are large-n approximations.  They are not
pointwise-exact and are only checked qualitatively, by comparing the
detection threshold they predict against the exact one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadParameter, MissingParameter
from .oracle import _check_integers, random_assignment, random_pure_state
from .scan import bisect_margin
from .states import DEFAULT_TAIL_TOL, FAMILIES, StateFamily, build_state
from .witness import canonical_assignment, evaluate, site_second_moments


class FormulaId(str, Enum):
    GHZ_LHS = "GHZ_LHS"
    GHZ_RHS = "GHZ_RHS"
    NOISY_COND1 = "NOISY_COND1"
    TWOGROUP_C1 = "TWOGROUP_C1"
    TWOGROUP_C2 = "TWOGROUP_C2"
    TG_L1N3_C1 = "TG_L1N3_C1"
    TG_L1N3_C2 = "TG_L1N3_C2"
    TG_L2N4_C1 = "TG_L2N4_C1"
    TG_L2N4_C2 = "TG_L2N4_C2"
    TG_ASYMP_C1 = "TG_ASYMP_C1"
    TG_ASYMP_C2 = "TG_ASYMP_C2"
    LSEP_C1 = "LSEP_C1"
    MIXED_C1 = "MIXED_C1"
    MIXED_C2 = "MIXED_C2"
    MIXED_ASYMP_C1 = "MIXED_ASYMP_C1"
    MIXED_ASYMP_C2 = "MIXED_ASYMP_C2"
    SQZ_LHS = "SQZ_LHS"
    SQZ_RHS = "SQZ_RHS"
    MOD4_LHS = "MOD4_LHS"
    MOD4_RHS1 = "MOD4_RHS1"
    MOD4_RHS2 = "MOD4_RHS2"
    BIPARTITE_C1 = "BIPARTITE_C1"
    BIPARTITE_C2 = "BIPARTITE_C2"


#: Exact tags must agree with the engine this closely (absolute, both sides).
EXACT_TOL = 1e-8

#: Asymptotic tags must predict thresholds within this factor of exact ones.
ASYMPTOTIC_RATIO_BOUND = 2.0

#: Two-decimal constants printed for the l=1, n=3 group bound.
TG_L1N3_ROUNDED = (1.09, 1.24, 0.44)
CONSTANT_TOL = 0.01

#: Most parameter draws per exact tag in :func:`run_verification` (about two
#: minutes of engine time); more is refused with :class:`BadParameter`.
MAX_VERIFY_POINTS = 10_000


#: Last term index :func:`weighted_geometric_sum` adds before giving up.
SERIES_MAX_TERMS = 10_000_000


def weighted_geometric_sum(x: float, exponent: float, tol: float = 1e-12) -> float:
    """sum_m x^(2m) m^exponent, summed until the tail is provably below tol.

    Raises :class:`BadParameter` for x outside (0, 1), a negative exponent,
    or a series whose stopping rule cannot hold within
    :data:`SERIES_MAX_TERMS` terms; the last is decided before summing.
    """
    if not 0.0 < x < 1.0:
        raise BadParameter(f"series requires 0 < x < 1, got {x}")
    if not exponent >= 0.0:
        raise BadParameter(f"series requires exponent >= 0, got {exponent}")
    q = x * x
    peak = exponent / max(1e-12, -math.log(q))
    stop = 1e-3 * tol
    # Stopping at term m >= 1 needs m > peak and, as no earlier term exceeds
    # m^exponent, q^m < stop * (m + 1).  Once true both stay true for larger
    # m, so they are tested at the last term; the factor 2 covers round-off.
    last = SERIES_MAX_TERMS
    if peak >= last or q**last >= 2.0 * stop * (last + 1):
        raise BadParameter(f"series at x={x} needs more than {last} terms")
    total = 0.0
    m = 0
    while True:
        term = q**m * float(m) ** exponent
        total += term
        if m > peak and term < stop * max(1.0, total):
            return total
        m += 1
        if m > last:
            raise BadParameter("series did not converge")


def series_identity_check(x: float, moment: int) -> tuple[float, float]:
    """Truncated numeric sum of x^(2m) m^moment vs its closed form.

    Supports moment in {0, 1, 2}; the truncation tail is below 1e-14.
    """
    if moment not in (0, 1, 2):
        raise BadParameter(f"moment must be 0, 1 or 2, got {moment}")
    total = weighted_geometric_sum(x, moment, tol=1e-15)
    q = x * x
    closed = {
        0: 1.0 / (1.0 - q),
        1: q / (1.0 - q) ** 2,
        2: q * (1.0 + q) / (1.0 - q) ** 3,
    }[moment]
    return total, closed


def two_group_l1n3_coefficients() -> tuple[float, float, float]:
    """Exact values behind the printed 1.09, 1.24, 0.44 constants."""
    sin_sq = 1.0 + (2.0 / 3.0) ** 1.5
    cos_sq = (1.0 / 3.0) ** 1.5
    a = math.sqrt(sin_sq)
    b = math.sqrt(cos_sq)
    return 2.0 * a * b, a, b


# ---------------------------------------------------------------------------
# closed forms, one function per tag (or shared when two tags print the same
# condition)


def _ghz_sides(p: dict) -> tuple[float, float]:
    theta = p["theta"]
    return abs(math.cos(theta) * math.sin(theta)), math.sin(theta) ** 2


def _noisy_cond1(p: dict) -> tuple[float, float]:
    theta, prob = p["theta"], p["p"]
    if not 0.0 < prob < 1.0:
        raise BadParameter(f"p must lie in (0, 1), got {prob}")
    lhs = abs(math.cos(theta) * math.sin(theta))
    return lhs, math.sin(theta) ** 2 + (1.0 - prob) / (2.0 * prob)


def _two_group_c1(p: dict) -> tuple[float, float]:
    n, l = int(p["n"]), int(p["l"])
    c1, s1 = math.cos(p["theta1"]), math.sin(p["theta1"])
    c2, s2 = math.cos(p["theta2"]), math.sin(p["theta2"])
    lhs = abs(c1 * s1 * c2 * s2)
    rhs = abs(s1) ** (2.0 * l / n) * abs(s2) ** (2.0 * (n - l) / n)
    return lhs, rhs


def _two_group_c2(p: dict) -> tuple[float, float]:
    n, l = int(p["n"]), int(p["l"])
    c1, s1 = math.cos(p["theta1"]), math.sin(p["theta1"])
    c2, s2 = math.cos(p["theta2"]), math.sin(p["theta2"])
    lhs = abs(c1 * s1 * c2 * s2)
    rhs = (
        ((n - l) / n) ** (n / 2.0) * c1**2 * s2**2
        + (l / n) ** (n / 2.0) * c2**2 * s1**2
        + s1**2 * s2**2
    )
    return lhs, rhs


def _tg_l1n3_c1(p: dict) -> tuple[float, float]:
    theta2 = p["theta2"]
    return abs(math.cos(theta2)), (4.0 * abs(math.sin(theta2))) ** (1.0 / 3.0)


def _tg_l1n3_c2(p: dict) -> tuple[float, float]:
    cross, a, b = two_group_l1n3_coefficients()
    c2, s2 = abs(math.cos(p["theta2"])), abs(math.sin(p["theta2"]))
    return c2 * s2, cross * c2 * s2 + (a * s2 - b * c2) ** 2


def _tg_l2n4_c1(p: dict) -> tuple[float, float]:
    c1, s1 = math.cos(p["theta1"]), math.sin(p["theta1"])
    c2, s2 = math.cos(p["theta2"]), math.sin(p["theta2"])
    return abs(c1 * s1 * c2 * s2), abs(s1 * s2)


def _tg_l2n4_c2(p: dict) -> tuple[float, float]:
    # absolute values keep the moved cross term exact on every quadrant
    c1, s1 = math.cos(p["theta1"]), math.sin(p["theta1"])
    c2, s2 = math.cos(p["theta2"]), math.sin(p["theta2"])
    lhs = abs(c1 * s1 * c2 * s2)
    rhs = 0.5 * (abs(c1 * s2) - abs(c2 * s1)) ** 2 + 2.0 * s1**2 * s2**2
    return lhs, rhs


def _tg_asymp_c1(p: dict) -> tuple[float, float]:
    c1s1 = abs(math.cos(p["theta1"]) * math.sin(p["theta1"]))
    if c1s1 == 0.0:
        raise BadParameter("theta1 must not be a multiple of pi/2")
    return abs(math.cos(p["theta2"])), abs(math.sin(p["theta2"])) / c1s1


def _tg_asymp_c2(p: dict) -> tuple[float, float]:
    l = int(p["l"])
    c1s1 = abs(math.cos(p["theta1"]) * math.sin(p["theta1"]))
    if c1s1 == 0.0:
        raise BadParameter("theta1 must not be a multiple of pi/2")
    damp = math.exp(-l / 2.0)
    factor = damp + (1.0 - damp) * math.sin(p["theta1"]) ** 2
    return abs(math.cos(p["theta2"])), abs(math.sin(p["theta2"])) * factor / c1s1


def _lsep_c1(p: dict) -> tuple[float, float]:
    n, l = int(p["n"]), int(p["l"])
    theta = p["theta"]
    thetas = [float(t) for t in p["thetas"]]
    if len(thetas) != l:
        raise BadParameter(f"need {l} single-site angles, got {len(thetas)}")
    denom = 1.0
    for t in thetas:
        denom *= abs(math.cos(t)) * abs(math.sin(t)) ** (1.0 - 2.0 / n)
    if denom == 0.0:
        raise BadParameter("single-site angles must avoid multiples of pi/2")
    rhs = abs(math.sin(theta)) ** ((n - 2.0 * l) / n) / denom
    return abs(math.cos(theta)), rhs


def _mixed_sums(p: dict) -> tuple[int, float, float, float, float, float]:
    n = int(p["n"])
    theta = p["theta"]
    thetas = [float(t) for t in p["thetas"]]
    if len(thetas) != n:
        raise BadParameter(f"need {n} single-site angles, got {len(thetas)}")
    cross = sum(math.cos(t) * math.sin(t) for t in thetas)
    cos_sq = sum(math.cos(t) ** 2 for t in thetas)
    sin_sq = sum(math.sin(t) ** 2 for t in thetas)
    return n, theta, cross, cos_sq, sin_sq, math.sin(theta) ** 2


def _mixed_c1(p: dict) -> tuple[float, float]:
    n, theta, cross, _, _, s_sq = _mixed_sums(p)
    lhs = abs(math.cos(theta) * math.sin(theta) * cross)
    product = 1.0
    for t in p["thetas"]:
        product *= math.sin(float(t)) ** 2 + (n - 1) * s_sq
    return lhs, product ** (1.0 / n)


def _mixed_c2(p: dict) -> tuple[float, float]:
    n, theta, cross, cos_sq, sin_sq, s_sq = _mixed_sums(p)
    lhs = abs(math.cos(theta) * math.sin(theta) * cross)
    rhs = (
        ((n - 1) / n) ** (n / 2.0) * s_sq * cos_sq
        + (1.0 / n) ** (n / 2.0) * math.cos(theta) ** 2 * sin_sq
        + s_sq * sin_sq
    )
    return lhs, rhs


def _mixed_asymp_c1(p: dict) -> tuple[float, float]:
    n = int(p["n"])
    return abs(math.cos(p["theta"])), 2.0 * (n - 1) * abs(math.sin(p["theta"]))


def _mixed_asymp_c2(p: dict) -> tuple[float, float]:
    n = int(p["n"])
    factor = 2.0 / math.sqrt(math.e) * (n - 0.5) + 1.0
    return abs(math.cos(p["theta"])), factor * abs(math.sin(p["theta"]))


def _sqz_sides(p: dict) -> tuple[float, float]:
    n, x = int(p["n"]), float(p["x"])
    series = weighted_geometric_sum(x, n / 2.0)
    return (1.0 - x * x) * series / x, (1.0 - x * x) * series


def _mod4_c1_sides(p: dict) -> tuple[float, float]:
    x = float(p["x"])
    if not 0.0 < x < 1.0:
        raise BadParameter(f"x must lie in (0, 1), got {x}")
    denom = (1.0 - x * x) ** 2
    return 2.0 * x / denom, x * (1.0 + x * x) / denom


def _mod4_c2_sides(p: dict) -> tuple[float, float]:
    x = float(p["x"])
    if not 0.0 < x < 1.0:
        raise BadParameter(f"x must lie in (0, 1), got {x}")
    denom = (1.0 - x * x) ** 2
    return 2.0 * x / denom, (x**4 + 6.0 * x**2 + 1.0) / (4.0 * denom)


def _bipartite_c1(p: dict) -> tuple[float, float]:
    t, a, b = float(p["prod_moment"]), float(p["moment_a"]), float(p["moment_b"])
    return t * t, a * b


def _bipartite_c2(p: dict) -> tuple[float, float]:
    t, a, b = float(p["prod_moment"]), float(p["moment_a"]), float(p["moment_b"])
    return t * t, a * b + 0.25 * (a - b) ** 2


# ---------------------------------------------------------------------------
# engine-backed counterparts, mapped to the printed scale

#: Tail tolerance for CV states built for closed-form comparison.  The
#: moment-weighted sums amplify the discarded tail by ~cutoff^(n/2), so the
#: default 1e-10 state tail is not small enough for 1e-8 value agreement.
CV_COMPARE_TAIL_TOL = 1e-15


def _report(family: str, p: dict, ops="lowering", tail_tol=DEFAULT_TAIL_TOL, **fixed):
    """Engine report on ``family``; each required parameter comes from ``fixed``, else ``p``."""
    required = FAMILIES[family].required
    params = {name: fixed[name] if name in fixed else p[name] for name in required}
    state = build_state(StateFamily(family, params), tail_tol)
    return evaluate(state, canonical_assignment(ops, state.dims))


def _pick(report, condition: int) -> tuple[float, float]:
    return report.lhs, (report.rhs1 if condition == 1 else report.rhs2)


def _raw_sides(family: str, condition: int, ops="lowering", tail_tol=DEFAULT_TAIL_TOL):
    """Engine counterpart of a relation printed on the raw condition sides."""
    return lambda p: _pick(_report(family, p, ops, tail_tol), condition)


def _numeric_cv(family: str, condition: int):
    """Raw condition sides of a Fock-truncated family, measured with annihilation operators."""
    return _raw_sides(family, condition, "annihilation", CV_COMPARE_TAIL_TOL)


def _numeric_noisy(p: dict) -> tuple[float, float]:
    prob = float(p["p"])
    rep = _report("NoisyGHZ", p, noise="white")
    return rep.lhs / prob, rep.rhs1 / prob


def _numeric_tg_l1n3(p: dict, condition: int) -> tuple[float, float]:
    rep = _report("TwoGroupGHZ", p, n=3, l=1, theta1=math.pi / 4)
    if condition == 1:
        s2 = abs(math.sin(float(p["theta2"])))
        if s2 < 1e-12:
            raise BadParameter("theta2 must avoid multiples of pi")
        return 2.0 * rep.lhs / s2, 2.0 * rep.rhs1 / s2
    return 2.0 * rep.lhs, 2.0 * rep.rhs2


def _numeric_tg_l2n4(p: dict, condition: int) -> tuple[float, float]:
    rep = _report("TwoGroupGHZ", p, n=4, l=2)
    if condition == 1:
        return rep.lhs, rep.rhs1
    return rep.lhs, 2.0 * rep.rhs2 - rep.lhs


def _numeric_lsep(p: dict) -> tuple[float, float]:
    rep = _report("LSeparable", p)
    scale = abs(math.sin(float(p["theta"])))
    for t in p["thetas"]:
        scale *= abs(math.cos(float(t)) * math.sin(float(t)))
    if scale < 1e-12:
        raise BadParameter("angles too close to a removable singularity")
    return rep.lhs / scale, rep.rhs1 / scale


def _numeric_mixed(p: dict, condition: int) -> tuple[float, float]:
    lhs, rhs = _pick(_report("MixedSingleOut", p), condition)
    n = int(p["n"])
    return n * lhs, n * rhs


def _bipartite_instance(seed: int, dims) -> tuple:
    rng = np.random.default_rng([int(seed), 2])
    state = random_pure_state(tuple(int(d) for d in dims), n_terms=2, rng=rng)
    assignment = random_assignment(state.dims, rng)
    return state, assignment


def sample_bipartite_case(seed: int, dims=(2, 3)) -> dict:
    """Measure the moments a random bipartite case feeds into the n=2 bounds."""
    state, assignment = _bipartite_instance(seed, dims)
    rep = evaluate(state, assignment)
    m_a, m_b = site_second_moments(state, assignment)
    return {
        "seed": int(seed),
        "dims": tuple(int(d) for d in dims),
        "prod_moment": rep.lhs,
        "moment_a": float(m_a),
        "moment_b": float(m_b),
    }


def _numeric_bipartite(p: dict, condition: int) -> tuple[float, float]:
    state, assignment = _bipartite_instance(p["seed"], p["dims"])
    rep = evaluate(state, assignment)
    lhs, rhs = _pick(rep, condition)
    return lhs * lhs, rhs * rhs


# ---------------------------------------------------------------------------
# registry


class Asymptotic(NamedTuple):
    """An asymptotic tag's check: its closed-form threshold in ``var`` on
    ``bracket`` against ``exact_tag``'s at ``exact_params``."""

    exact_tag: FormulaId
    exact_params: dict
    asym_params: dict
    var: str
    bracket: tuple[float, float]


@dataclass(frozen=True)
class Formula:
    """One printed relation: its closed form and, for an exact tag, the engine counterpart.

    An exact tag has ``numeric`` and ``sampler``, and ``pinned`` names its
    canonical case, checked first by :func:`run_verification`.  An
    asymptotic tag has neither and an :class:`Asymptotic` check instead.
    """

    required: tuple[str, ...]
    note: str
    closed: Callable[[dict], tuple[float, float]]
    numeric: Callable[[dict], tuple[float, float]] | None = None
    sampler: Callable[[np.random.Generator], dict] | None = None
    # extra parameters the engine-side counterpart needs (e.g. the system
    # size when the printed formula is size-independent)
    numeric_required: tuple[str, ...] = ()
    pinned: dict | None = None
    asymptotic: Asymptotic | None = None


def _sample_theta(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _sample_ghz(rng) -> dict:
    return {"n": int(rng.integers(2, 7)), "theta": _sample_theta(rng)}


def _sample_noisy(rng) -> dict:
    return {
        "n": int(rng.integers(2, 6)),
        "theta": _sample_theta(rng),
        "p": float(rng.uniform(0.05, 0.95)),
    }


def _sample_two_group(rng) -> dict:
    n = int(rng.integers(3, 8))
    return {
        "n": n,
        "l": int(rng.integers(1, n)),
        "theta1": _sample_theta(rng),
        "theta2": _sample_theta(rng),
    }


def _sample_tg_theta2(rng) -> dict:
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return {"theta2": sign * float(rng.uniform(0.05, math.pi - 0.05))}


def _sample_tg_pair(rng) -> dict:
    return {"theta1": _sample_theta(rng), "theta2": _sample_theta(rng)}


def _sample_lsep(rng) -> dict:
    n = int(rng.integers(4, 9))
    l = int(rng.integers(1, min(4, n - 1)))
    return {
        "n": n,
        "l": l,
        "theta": float(rng.uniform(0.05, 1.5)),
        "thetas": [float(rng.uniform(0.1, 1.45)) for _ in range(l)],
    }


def _sample_mixed(rng) -> dict:
    n = int(rng.integers(3, 7))
    return {
        "n": n,
        "theta": _sample_theta(rng),
        "thetas": [_sample_theta(rng) for _ in range(n)],
    }


def _sample_sqz(rng) -> dict:
    return {"n": int(rng.integers(3, 6)), "x": float(rng.uniform(0.05, 0.85))}


def _sample_mod4(rng) -> dict:
    return {"x": float(rng.uniform(0.05, 0.85))}


def _sample_bipartite(rng) -> dict:
    return sample_bipartite_case(int(rng.integers(0, 2**31 - 1)))


_MIXED_PINNED = {"n": 4, "theta": 0.2, "thetas": [0.3, 0.5, 0.7, 0.9]}
_TG_ASYMP_EXACT = {"n": 40, "l": 1, "theta1": math.pi / 4}
_MIXED_ASYMP_EXACT = {"n": 8, "thetas": [math.pi / 4] + [0.0] * 7}

_REGISTRY: dict[FormulaId, Formula] = {
    FormulaId.GHZ_LHS: Formula(
        ("theta",), "raw condition-1 sides", _ghz_sides, _raw_sides("GHZ", 1), _sample_ghz,
        numeric_required=("n",), pinned={"n": 3, "theta": math.pi / 6},
    ),
    FormulaId.GHZ_RHS: Formula(
        ("theta",), "raw condition-2 sides (bounds coincide here)", _ghz_sides,
        _raw_sides("GHZ", 2), _sample_ghz,
        numeric_required=("n",), pinned={"n": 3, "theta": math.pi / 6},
    ),
    FormulaId.NOISY_COND1: Formula(
        ("theta", "p"), "both condition-1 sides divided by p", _noisy_cond1,
        _numeric_noisy, _sample_noisy,
        numeric_required=("n",), pinned={"n": 3, "theta": math.pi / 8, "p": 0.8},
    ),
    FormulaId.TWOGROUP_C1: Formula(
        ("n", "l", "theta1", "theta2"), "raw condition-1 sides", _two_group_c1,
        _raw_sides("TwoGroupGHZ", 1), _sample_two_group,
        pinned={"n": 4, "l": 2, "theta1": 0.4, "theta2": 0.4},
    ),
    FormulaId.TWOGROUP_C2: Formula(
        ("n", "l", "theta1", "theta2"), "raw condition-2 sides", _two_group_c2,
        _raw_sides("TwoGroupGHZ", 2), _sample_two_group,
        pinned={"n": 4, "l": 2, "theta1": 0.4, "theta2": 0.4},
    ),
    FormulaId.TG_L1N3_C1: Formula(
        ("theta2",), "both sides scaled by 2/|sin theta2| (equals cubing + clearing)",
        _tg_l1n3_c1, lambda p: _numeric_tg_l1n3(p, 1), _sample_tg_theta2,
        pinned={"theta2": 0.3},
    ),
    FormulaId.TG_L1N3_C2: Formula(
        ("theta2",), "both condition-2 sides doubled", _tg_l1n3_c2,
        lambda p: _numeric_tg_l1n3(p, 2), _sample_tg_theta2, pinned={"theta2": math.pi / 4},
    ),
    FormulaId.TG_L2N4_C1: Formula(
        ("theta1", "theta2"), "raw condition-1 sides", _tg_l2n4_c1,
        lambda p: _numeric_tg_l2n4(p, 1), _sample_tg_pair,
        pinned={"theta1": 0.4, "theta2": 0.7},
    ),
    FormulaId.TG_L2N4_C2: Formula(
        ("theta1", "theta2"), "condition-2 sides doubled with the lhs cross term moved right",
        _tg_l2n4_c2, lambda p: _numeric_tg_l2n4(p, 2), _sample_tg_pair,
        pinned={"theta1": 0.4, "theta2": 0.4},
    ),
    FormulaId.TG_ASYMP_C1: Formula(
        ("theta1", "theta2"), "large-n approximation of the group condition 1", _tg_asymp_c1,
        asymptotic=Asymptotic(
            FormulaId.TWOGROUP_C1, _TG_ASYMP_EXACT, {"theta1": math.pi / 4}, "theta2", (0.05, 1.5)
        ),
    ),
    FormulaId.TG_ASYMP_C2: Formula(
        ("l", "theta1", "theta2"), "large-n approximation of the group condition 2",
        _tg_asymp_c2,
        asymptotic=Asymptotic(
            FormulaId.TWOGROUP_C2, _TG_ASYMP_EXACT, {"l": 1, "theta1": math.pi / 4}, "theta2",
            (0.05, 1.5),
        ),
    ),
    FormulaId.LSEP_C1: Formula(
        ("n", "l", "theta", "thetas"),
        "both condition-1 sides divided by |sin theta| prod |cos_i sin_i|",
        _lsep_c1, _numeric_lsep, _sample_lsep,
        pinned={"n": 6, "l": 2, "theta": 0.3, "thetas": [math.pi / 4] * 2},
    ),
    FormulaId.MIXED_C1: Formula(
        ("n", "theta", "thetas"), "both condition-1 sides multiplied by n", _mixed_c1,
        lambda p: _numeric_mixed(p, 1), _sample_mixed, pinned=_MIXED_PINNED,
    ),
    FormulaId.MIXED_C2: Formula(
        ("n", "theta", "thetas"), "both condition-2 sides multiplied by n", _mixed_c2,
        lambda p: _numeric_mixed(p, 2), _sample_mixed, pinned=_MIXED_PINNED,
    ),
    FormulaId.MIXED_ASYMP_C1: Formula(
        ("n", "theta"), "large-n, one tilted site approximation (condition 1)",
        _mixed_asymp_c1,
        asymptotic=Asymptotic(
            FormulaId.MIXED_C1, _MIXED_ASYMP_EXACT, {"n": 8}, "theta", (1e-3, 0.3)
        ),
    ),
    FormulaId.MIXED_ASYMP_C2: Formula(
        ("n", "theta"), "large-n, one tilted site approximation (condition 2)",
        _mixed_asymp_c2,
        asymptotic=Asymptotic(
            FormulaId.MIXED_C2, _MIXED_ASYMP_EXACT, {"n": 8}, "theta", (0.01, 0.3)
        ),
    ),
    FormulaId.SQZ_LHS: Formula(
        ("n", "x"), "raw condition-1 sides (series summed to tolerance)", _sqz_sides,
        _numeric_cv("NModeSqueezed", 1), _sample_sqz, pinned={"n": 3, "x": 0.5},
    ),
    FormulaId.SQZ_RHS: Formula(
        ("n", "x"), "raw condition-2 sides (bounds coincide here)", _sqz_sides,
        _numeric_cv("NModeSqueezed", 2), _sample_sqz, pinned={"n": 3, "x": 0.5},
    ),
    FormulaId.MOD4_LHS: Formula(
        ("x",), "raw condition-1 sides in closed form", _mod4_c1_sides,
        _numeric_cv("ModifiedFourMode", 1), _sample_mod4, pinned={"x": 0.5},
    ),
    FormulaId.MOD4_RHS2: Formula(
        ("x",), "raw condition-2 sides in closed form", _mod4_c2_sides,
        _numeric_cv("ModifiedFourMode", 2), _sample_mod4, pinned={"x": 0.5},
    ),
    FormulaId.BIPARTITE_C1: Formula(
        ("prod_moment", "moment_a", "moment_b"), "both condition-1 sides squared",
        _bipartite_c1, lambda p: _numeric_bipartite(p, 1), _sample_bipartite,
    ),
    FormulaId.BIPARTITE_C2: Formula(
        ("prod_moment", "moment_a", "moment_b"), "both condition-2 sides squared",
        _bipartite_c2, lambda p: _numeric_bipartite(p, 2), _sample_bipartite,
    ),
}
# MOD4_LHS and MOD4_RHS1 tag the two sides of one printed condition-1 relation
_REGISTRY[FormulaId.MOD4_RHS1] = _REGISTRY[FormulaId.MOD4_LHS]


def _entry(tag: FormulaId) -> Formula:
    return _REGISTRY[FormulaId(tag)]


def formula_params(tag: FormulaId) -> tuple[str, ...]:
    return _entry(tag).required


def rearrangement_note(tag: FormulaId) -> str:
    return _entry(tag).note


def is_exact(tag: FormulaId) -> bool:
    return _entry(tag).numeric is not None


def closed_form(tag: FormulaId, params: dict) -> tuple[float, float]:
    """Both sides of the printed relation for ``tag``, from closed forms only."""
    entry = _entry(tag)
    missing = [name for name in entry.required if name not in params]
    if missing:
        raise MissingParameter(f"{FormulaId(tag).value} needs parameters {missing}")
    lhs, rhs = entry.closed(params)
    return float(lhs), float(rhs)


def numeric_form(tag: FormulaId, params: dict) -> tuple[float, float]:
    """The same two sides measured with the witness engine (exact tags only)."""
    entry = _entry(tag)
    if entry.numeric is None:
        raise BadParameter(
            f"{FormulaId(tag).value} is an asymptotic form with no pointwise counterpart"
        )
    missing = [
        name for name in entry.required + entry.numeric_required if name not in params
    ]
    if missing:
        raise MissingParameter(f"{FormulaId(tag).value} needs parameters {missing}")
    lhs, rhs = entry.numeric(params)
    return float(lhs), float(rhs)


def sample_params(tag: FormulaId, rng: np.random.Generator) -> dict:
    """Random valid parameters for an exact tag."""
    entry = _entry(tag)
    if entry.sampler is None:
        raise BadParameter(f"{FormulaId(tag).value} has no parameter sampler")
    return entry.sampler(rng)


# ---------------------------------------------------------------------------
# verification table


@dataclass(frozen=True)
class CrossCheckRow:
    tag: FormulaId
    kind: str  # "exact" | "asymptotic" | "constants"
    cases: int
    error: float
    tolerance: float
    passed: bool
    note: str

    def to_json(self) -> dict:
        return {**asdict(self), "tag": self.tag.value}


def closed_form_threshold(
    tag: FormulaId, params: dict, var: str, bracket: tuple[float, float], tol: float = 1e-9
) -> float:
    """Bisect the closed-form margin lhs - rhs over one parameter."""

    def margin(value: float) -> float:
        lhs, rhs = closed_form(tag, {**params, var: value})
        return lhs - rhs

    message = f"{FormulaId(tag).value}: no sign change on {bracket}"
    return bisect_margin(margin, bracket, tol, message).value


def _exact_row(tag: FormulaId, rng: np.random.Generator, points: int) -> CrossCheckRow:
    entry = _entry(tag)
    cases = [] if entry.pinned is None else [entry.pinned]
    while len(cases) < points:
        cases.append(entry.sampler(rng))
    worst = 0.0
    for params in cases:
        closed = closed_form(tag, params)
        numeric = numeric_form(tag, params)
        worst = max(worst, abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1]))
    return CrossCheckRow(
        tag=tag,
        kind="exact",
        cases=len(cases),
        error=worst,
        tolerance=EXACT_TOL,
        passed=worst <= EXACT_TOL,
        note=entry.note,
    )


def _asymptotic_row(tag: FormulaId) -> CrossCheckRow:
    setup = _entry(tag).asymptotic
    exact_root = closed_form_threshold(
        setup.exact_tag, setup.exact_params, setup.var, setup.bracket
    )
    asym_root = closed_form_threshold(tag, setup.asym_params, setup.var, setup.bracket)
    ratio = exact_root / asym_root
    error = max(ratio, 1.0 / ratio)
    return CrossCheckRow(
        tag=tag,
        kind="asymptotic",
        cases=1,
        error=error,
        tolerance=ASYMPTOTIC_RATIO_BOUND,
        passed=error <= ASYMPTOTIC_RATIO_BOUND,
        note=f"threshold ratio vs {setup.exact_tag.value} at {setup.exact_params}",
    )


def _constants_row() -> CrossCheckRow:
    cross, a, b = two_group_l1n3_coefficients()
    printed_cross, printed_a, printed_b = TG_L1N3_ROUNDED
    error = max(abs(cross - printed_cross), abs(a - printed_a), abs(b - printed_b))
    return CrossCheckRow(
        tag=FormulaId.TG_L1N3_C2,
        kind="constants",
        cases=3,
        error=error,
        tolerance=CONSTANT_TOL,
        passed=error <= CONSTANT_TOL,
        note="printed two-decimal constants vs exact coefficients",
    )


def run_verification(seed: int = 0, points: int = 20) -> list[CrossCheckRow]:
    """Cross-check every formula tag against the witness engine.

    Exact tags get ``points`` parameter draws (pinned canonical cases
    first); asymptotic tags are checked through the detection threshold
    they predict.  The rounded printed constants get their own row.
    """
    _check_integers(seed=seed, points=points)
    if points < 1:
        raise BadParameter(f"points must be >= 1, got {points}")
    if points > MAX_VERIFY_POINTS:
        raise BadParameter(f"points must be <= {MAX_VERIFY_POINTS}, got {points}")
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([int(seed), 1])
    rows = []
    for tag in FormulaId:
        if is_exact(tag):
            rows.append(_exact_row(tag, rng, points))
        else:
            rows.append(_asymptotic_row(tag))
    rows.append(_constants_row())
    return rows
