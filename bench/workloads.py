"""Seeded witnesslab command streams for the four benchmark workloads.

A workload is an endless stream of blocks; a block is a short list of
``witnesslab`` argv lists.  Block ``i`` of a workload depends only on the
seed and ``i``.  Every block of a workload has the same structure (which
family, which sizes, how many grid points, in which order); the seed
draws only continuous parameters such as angles, tilts, x values and
brackets.  Runs stop at block boundaries, so every run measures the same
mix of work whatever the seed, and the seed varies the inputs.

Why these workloads (the layer each one stresses):

- ``families``: ``scan``/``threshold`` on the basis-ket families.  Every
  condition-2 evaluation takes the eigenvector fast path and costs about
  1 ms, so interpreter overhead dominates.
- ``tilted``: ``detect`` and short ``scan`` on LSeparable and
  MixedSingleOut with random tilts, n = 6..9.  Tilted kets are not
  eigenvectors, so every rhs2 call takes the dense route and ``eigh``
  dominates.  n = 10 (about 1 s per evaluation) is left out.
- ``fock``: ``detect`` and short ``scan`` on NModeSqueezed (n = 2..4) and
  ModifiedFourMode at x in [0.85, 0.95], cutoffs of about 70 to 225.  The
  terms x terms pair matrices dominate.
- ``oracle``: ``oracle`` commands of a thousand separable trials each,
  where every trial is a small full-space dense rhs2 evaluation.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("families", "tilted", "fock", "oracle")

#: Separable and operator-power trials in one ``oracle`` command.
ORACLE_TRIALS = 1000
ORACLE_LEMMA_TRIALS = 100

#: Bisection tolerance of every ``threshold`` command.
THRESHOLD_TOL = 1e-6

#: Grid points of the short tilted scans, by system size.
TILTED_SCAN_STEPS = {6: 8, 7: 6, 8: 4, 9: 3}


def family_json(family: str, **params) -> str:
    return json.dumps({"family": family, "params": params}, separators=(",", ":"))


def _r(value: float) -> float:
    # six decimals keep argv readable; the value is then exact input
    return round(float(value), 6)


def _grid(lo: float, hi: float, steps: int) -> str:
    return f"{_r(lo)!r},{_r(hi)!r},{int(steps)}"


def _scan(family: str, params: dict, param: str, grid: str, ops: str) -> tuple[str, ...]:
    return (
        "scan", "--family", family_json(family, **params), "--param", param,
        "--grid", grid, "--ops", ops,
    )


def _detect(family: str, params: dict, ops: str) -> tuple[str, ...]:
    return ("detect", "--family", family_json(family, **params), "--ops", ops)


def _bracket(rng: np.random.Generator, root: float, below, above, lo_min, hi_max):
    """Bracket around ``root`` whose bisection step count is unambiguous.

    Widths within 1e-6 (in log2 units) of a power-of-two multiple of the
    tolerance are redrawn, so ``2 + ceil(log2(width / tol))`` cannot be
    off by one through rounding in the bisection.
    """
    while True:
        lo = _r(max(lo_min, root - rng.uniform(*below)))
        hi = _r(min(hi_max, root + rng.uniform(*above)))
        steps = math.log2((hi - lo) / THRESHOLD_TOL)
        if abs(steps - round(steps)) > 1e-6:
            return lo, hi


def _threshold(family: str, params: dict, param: str, condition: int, bracket, ops: str):
    return (
        "threshold", "--family", family_json(family, **params), "--param", param,
        "--condition", str(condition), "--bracket", f"{bracket[0]!r},{bracket[1]!r}",
        "--tol", repr(THRESHOLD_TOL), "--ops", ops, "--format", "json",
    )


def _families_block(rng: np.random.Generator) -> list[tuple[str, ...]]:
    def theta_grid(steps):
        return _grid(rng.uniform(0.01, 0.3), rng.uniform(1.2, 1.55), steps)

    n_tg = int(rng.integers(3, 8))
    theta_noisy = _r(rng.uniform(0.2, 0.6))
    # condition-1 root of white-noise GHZ in p: 1 / (1 + 2 (|cos sin| - sin^2))
    c, s = math.cos(theta_noisy), math.sin(theta_noisy)
    p_root = 1.0 / (1.0 + 2.0 * (abs(c * s) - s * s))
    cv_grid = _grid(rng.uniform(0.1, 0.2), rng.uniform(0.5, 0.6), 20)
    return [
        _scan("GHZ", {"n": int(rng.integers(3, 7))}, "theta", theta_grid(40), "lowering"),
        _scan("FlippedGHZ", {"n": int(rng.integers(3, 7))}, "theta", theta_grid(40), "flipped"),
        _scan(
            "TwoGroupGHZ",
            {"n": n_tg, "l": int(rng.integers(1, n_tg)), "theta2": _r(rng.uniform(0.1, 1.4))},
            "theta1", theta_grid(30), "lowering",
        ),
        _scan(
            "TwoGroupGHZ", {"n": n_tg, "l": int(rng.integers(1, n_tg))},
            "theta1,theta2", theta_grid(30), "lowering",
        ),
        _scan(
            "NoisyGHZ", {"n": int(rng.integers(3, 6)), "theta": theta_noisy, "noise": "white"},
            "p", _grid(rng.uniform(0.05, 0.3), rng.uniform(0.7, 0.95), 30), "lowering",
        ),
        _scan(
            "NoisyGHZ",
            {"n": int(rng.integers(3, 6)), "p": _r(rng.uniform(0.3, 0.9)), "noise": "ground"},
            "theta", theta_grid(30), "lowering",
        ),
        _scan("NModeSqueezed", {"n": int(rng.integers(2, 5))}, "x", cv_grid, "annihilation"),
        _scan("ModifiedFourMode", {}, "x", cv_grid, "annihilation"),
        _threshold(
            "GHZ", {"n": int(rng.integers(3, 7))}, "theta", int(rng.integers(1, 3)),
            _bracket(rng, math.pi / 4, (0.2, 0.6), (0.2, 0.6), 0.01, 1.55), "lowering",
        ),
        _threshold(
            "NoisyGHZ", {"n": int(rng.integers(3, 6)), "theta": theta_noisy, "noise": "white"},
            "p", 1, _bracket(rng, p_root, (0.2, 0.5), (0.1, 0.2), 0.02, 0.98), "lowering",
        ),
        # condition-2 onset of the shifted four-mode state is at x ~ 0.1397
        _threshold(
            "ModifiedFourMode", {}, "x", 2,
            _bracket(rng, 0.1397, (0.06, 0.12), (0.2, 0.45), 0.01, 0.6), "annihilation",
        ),
    ]


def _tilts(rng: np.random.Generator, count: int) -> list[float]:
    return [_r(rng.uniform(0.1, 1.45)) for _ in range(count)]


def _tilted_params(rng: np.random.Generator, family: str, n: int) -> dict:
    if family == "LSeparable":
        l = int(rng.integers(1, 4))
        return {"n": n, "l": l, "theta": _r(rng.uniform(0.05, 1.5)), "thetas": _tilts(rng, l)}
    return {"n": n, "theta": _r(rng.uniform(0.05, 1.5)), "thetas": _tilts(rng, n)}


def _tilted_block(rng: np.random.Generator) -> list[tuple[str, ...]]:
    # 15 commands; the middle one by cost (the MixedSingleOut n=6 scan) is
    # well apart from its neighbours, so the median job time stays on one
    # kind of command instead of jumping between two
    block = []
    for family in ("LSeparable", "MixedSingleOut"):
        for n in TILTED_SCAN_STEPS:
            if (family, n) == ("LSeparable", 6):
                continue
            block.append(_detect(family, _tilted_params(rng, family, n), "lowering"))
        for n, steps in TILTED_SCAN_STEPS.items():
            params = _tilted_params(rng, family, n)
            del params["theta"]
            grid = _grid(rng.uniform(0.05, 0.4), rng.uniform(1.1, 1.5), steps)
            block.append(_scan(family, params, "theta", grid, "lowering"))
    return block


def _fock_block(rng: np.random.Generator) -> list[tuple[str, ...]]:
    # the cutoff, and with it the cost, grows steeply with x near 0.95, so
    # x moves by at most 0.001 around fixed centres: the seed changes the
    # inputs but hardly the work of a block
    block = []
    for centre in (0.855, 0.9, 0.944):
        for n in (2, 3, 4):
            x = _r(centre + rng.uniform(-0.001, 0.001))
            block.append(_detect("NModeSqueezed", {"n": n, "x": x}, "annihilation"))
        x = _r(centre + rng.uniform(-0.001, 0.001))
        block.append(_detect("ModifiedFourMode", {"x": x}, "annihilation"))
    grid = _grid(rng.uniform(0.855, 0.857), rng.uniform(0.943, 0.945), 3)
    block.append(_scan("NModeSqueezed", {"n": int(rng.integers(2, 5))}, "x", grid, "annihilation"))
    block.append(_scan("ModifiedFourMode", {}, "x", grid, "annihilation"))
    return block


def _oracle_block(rng: np.random.Generator) -> list[tuple[str, ...]]:
    return [(
        "oracle", "--trials", str(ORACLE_TRIALS), "--lemma-trials", str(ORACLE_LEMMA_TRIALS),
        "--seed", str(int(rng.integers(0, 2**31 - 1))),
    )]


_BLOCKS = {
    "families": _families_block,
    "tilted": _tilted_block,
    "fock": _fock_block,
    "oracle": _oracle_block,
}


def block(workload: str, seed: int, index: int) -> list[tuple[str, ...]]:
    """Block ``index`` of a workload's command stream for ``seed``."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])
    return _BLOCKS[workload](rng)


def warmup_command(workload: str, seed: int) -> tuple[str, ...]:
    """A small command that takes the workload's code paths once before timing."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), 2**32])
    if workload == "families":
        return _scan("GHZ", {"n": 3}, "theta", _grid(0.1, rng.uniform(1.2, 1.5), 10), "lowering")
    if workload == "tilted":
        return _detect("LSeparable", _tilted_params(rng, "LSeparable", 6), "lowering")
    if workload == "fock":
        return _detect("NModeSqueezed", {"n": 2, "x": _r(rng.uniform(0.85, 0.86))}, "annihilation")
    return (
        "oracle", "--trials", "10", "--lemma-trials", "1",
        "--seed", str(int(rng.integers(0, 2**31 - 1))),
    )


def flags(argv) -> dict:
    """``--flag value`` pairs of a generated argv (all flags take a value)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def evaluations(argv) -> int:
    """Witness evaluations a command performs, derived from its inputs alone.

    A sweep grid point, a bisection step, a separable trial and a
    ``detect`` each count one; operator-power (lemma) trials do not.
    """
    opts = flags(argv)
    if argv[0] == "scan":
        return int(opts["grid"].split(",")[2])
    if argv[0] == "threshold":
        lo, hi = (float(v) for v in opts["bracket"].split(","))
        return 2 + math.ceil(math.log2((hi - lo) / float(opts["tol"])))
    if argv[0] == "oracle":
        return int(opts["trials"])
    return 1
