"""Randomized ground-truth checks for the separability bounds.

Fully separable states can never violate either condition, so seeded
random mixtures of Haar-random product states, probed with random local
operators, form the strongest correctness property the engine has: any
positive detection margin on such a state is a bug (or a tolerance
violation), not physics.

The operator-power inequality <B>^p <= <B^p> (p > 1) that underpins the
bounds is exercised the same way, with random PSD operators and random
density matrices.

Both kinds of trial run in chunks of 64.  Each trial draws from its own
generator, each matrix family in one call with the stream of one draw per
matrix; the chunk then builds, checks and solves the matrices of each
local dim as one stack, every matrix with the bits it has alone.  A trial
whose matrix fails a chunk's check raises its own error, as it would
alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, InvalidDensityMatrix, WitnessLabError
from .linalg import DEFAULT_TOL, RowMap, as_operator, dag, psd_eigh, spectral_power
from .states import MixedEnsemble, ProductTerm, PureSOP, _check_dims, _check_kets
from .witness import OperatorAssignment, evaluate, fill_spectra

#: A separable-state margin below this counts as a genuine violation.
SEPARABLE_MARGIN_TOL = -1e-9

#: Same, for the operator-power inequality.
LEMMA_MARGIN_TOL = -1e-10

#: Dimension of the random operators and density matrices in lemma trials.
LEMMA_DIM = 6

#: Powers p drawn for the lemma trials.
LEMMA_POWERS = (1.5, 2.0, 3.0)

#: Trials, separable or lemma, whose matrices are built, checked and solved as one chunk.
_TRIAL_CHUNK = 64


def _check_integers(**values) -> None:
    """A bool, a fraction or a non-number is a BadParameter; numpy integers pass."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise BadParameter(f"{name} must be an integer, got {value!r}")


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure state via a normalized complex Gaussian vector."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _assignments(site_dims, draws) -> list[OperatorAssignment]:
    """One assignment per trial from its dims and its ``standard_normal(2 sum d^2)`` draw,
    which holds each site's d x d real parts, then its imaginary parts, in site order.

    The matrices of each local dim, across the trials, are one (m x d x d) complex stack,
    checked for finite entries once, with ``OperatorAssignment(ops)``'s error; a matrix
    with at most d nonzeros is read by :meth:`RowMap.of`, so each site keeps the form
    ``OperatorAssignment(ops)`` gives it, as a read-only view of its stack or a row map.
    """
    sites = np.array([d for dims in site_dims for d in dims], dtype=np.int64)
    sizes = 2 * sites**2
    starts = np.cumsum(sizes) - sizes
    values = np.concatenate(draws)
    pieces = {}
    for dim in dict.fromkeys(sites.tolist()):
        parts = values[starts[sites == dim, None] + np.arange(2 * dim * dim)]
        parts = parts.reshape(-1, 2, dim, dim)
        mats = parts[:, 0] + 1j * parts[:, 1]
        if not np.isfinite(mats).all():
            raise ValueError("operator has non-finite entries")
        mats.flags.writeable = False
        ops = list(mats)
        for j in np.flatnonzero(np.count_nonzero(mats, axis=(1, 2)) <= dim):
            rows = RowMap.of(mats[j])
            ops[j] = ops[j] if rows is None else rows
        pieces[dim] = iter(ops)
    return [
        OperatorAssignment.__new__(OperatorAssignment)._from_local(
            [next(pieces[d]) for d in dims]
        )
        for dims in site_dims
    ]


def random_assignment(dims, rng: np.random.Generator) -> OperatorAssignment:
    """One unconstrained complex Gaussian matrix per site, all drawn in one call: the
    one-trial case of :func:`_assignments`, with the stream of a ``standard_normal((d, d))``
    pair per site."""
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"local dims must be >= 1, got {tuple(dims)}")
    return _assignments([dims], [rng.standard_normal(2 * sum(d * d for d in dims))])[0]


def random_pure_state(dims, n_terms: int, rng: np.random.Generator) -> PureSOP:
    """Random normalized sum of ``n_terms`` Haar product terms (generically entangled)."""
    dims = tuple(int(d) for d in dims)
    terms = []
    for _ in range(n_terms):
        amp = complex(rng.standard_normal() + 1j * rng.standard_normal())
        terms.append(ProductTerm(amp, tuple(haar_ket(d, rng) for d in dims)))
    return PureSOP(dims, tuple(terms)).normalized()


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = mat @ dag(mat)
    return rho / np.trace(rho).real


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD operator with O(1) spectral radius."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    out = mat @ dag(mat)
    return out / dim


@dataclass(frozen=True)
class SeparableSpec:
    """Seeded description of one random fully separable ensemble."""

    dims: tuple[int, ...]
    n_terms: int
    seed: int

    def __post_init__(self):
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        if not 2 <= len(dims) <= 5:
            raise BadParameter(f"need 2..5 subsystems, got {len(dims)}")
        if any(not 1 <= d <= 4 for d in dims):
            raise BadParameter(f"local dims must be 1..4, got {dims}")
        _check_integers(n_terms=self.n_terms, seed=self.seed)
        if not 1 <= self.n_terms <= 6:
            raise BadParameter(f"n_terms must be 1..6, got {self.n_terms}")
        if self.seed < 0:
            raise BadParameter(f"seed must be >= 0, got {self.seed}")


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (rows x dim) array, bit for bit.

    Like ``np.linalg.norm``, it takes one BLAS dot of each row's strided
    real view with itself and one of its imaginary view; the order of a
    dot's sum depends on the stride, so other reductions differ in the
    last bit.
    """
    re, im = vecs.real[:, None, :], vecs.imag[:, None, :]
    squares = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    return np.sqrt(squares[:, 0, 0])


def sample_separables(specs) -> Iterator[MixedEnsemble]:
    """Flat-simplex mixtures of Haar-random product states, one per spec, in spec order;
    deterministic per seed.

    Each spec's generator draws the weights, then every ket in one call, in
    :func:`haar_ket`'s stream order (per component, per site: the real parts,
    then the imaginary parts).  The kets of each local dim, across all the specs,
    are normalized by one :func:`_row_norms` call, with the values of one
    :func:`haar_ket` call per ket, and checked as one batch.  The returned iterator
    builds each ensemble when it is read.  If a batch check fails, nothing is kept:
    each ensemble checks its own kets as it is built, so the first bad one raises.
    """
    specs = list(specs)
    weights, blocks = [], {}
    for spec in specs:
        rng = np.random.default_rng(spec.seed)
        weights.append(rng.dirichlet(np.ones(spec.n_terms)).tolist())
        draws = rng.standard_normal((spec.n_terms, 2 * sum(spec.dims)))
        start = 0
        for dim in spec.dims:
            blocks.setdefault(dim, []).append(draws[:, start : start + 2 * dim])
            start += 2 * dim
    pieces, checked = {}, True
    for dim, parts in blocks.items():
        block = np.concatenate(parts)
        vecs = block[:, :dim] + 1j * block[:, dim:]
        kets = vecs / _row_norms(vecs)[:, None]
        try:
            _check_kets([kets])
        except BadParameter:
            checked = False
        pieces[dim] = iter(np.split(kets, np.cumsum([len(part) for part in parts[:-1]])))
    stacks = [[next(pieces[dim]) for dim in spec.dims] for spec in specs]
    return (
        MixedEnsemble._products(spec.dims, weight, each, () if checked else each)
        for spec, weight, each in zip(specs, weights, stacks)
    )


def sample_separable(spec: SeparableSpec) -> MixedEnsemble:
    """Flat-simplex mixture of Haar-random product states; deterministic per seed
    (:func:`sample_separables` of this one spec)."""
    return next(sample_separables([spec]))


def check_separable_bounds(
    state: MixedEnsemble, assignment: OperatorAssignment
) -> tuple[float, float]:
    """Slack (rhs - lhs) of both bounds; negative beyond tolerance means violation."""
    report = evaluate(state, assignment)
    return report.rhs1 - report.lhs, report.rhs2 - report.lhs


def check_lemma(op, rho, power: float) -> float:
    """Slack <B^p> - <B>^p of the operator-power inequality, p > 1 and finite: the one-trial
    case of :func:`_lemma_margins`."""
    if power <= 1.0:
        raise BadParameter(f"power must exceed 1, got {power}")
    if not math.isfinite(power):
        raise BadParameter(f"power must be finite, got {power}")
    rho, op = as_operator(rho), np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.size == 0:  # as_operator's check
        raise DimensionMismatch(f"operator must be square, got shape {op.shape}")
    return _lemma_margins(op[None], rho[None], [power])[0]


def _lemma_margins(ops, rhos, powers) -> list[float]:
    """:func:`check_lemma` of each (op, rho, power) of the (m x d x d) stacks ``ops`` and
    ``rhos`` and the m powers, each with the bits it has alone.

    The density matrices take one Hermiticity, trace and ``eigvalsh`` check, and the
    operators of each power one :func:`psd_eigh`.  (``eigh`` returns an exactly diagonal
    matrix's eigenvalues exactly, and permuted unit vectors, so an exactly diagonal B in a
    stack of dense ones has the powered matrix it has alone.)  If a batch check fails,
    each triple is checked alone, so the first invalid one raises its own error.
    """
    try:
        return _stacked_margins(ops, rhos, powers)
    except (WitnessLabError, ValueError):
        return [
            _stacked_margins(ops[k : k + 1], rhos[k : k + 1], powers[k : k + 1])[0]
            for k in range(len(powers))
        ]


def _stacked_margins(ops, rhos, powers) -> list[float]:
    """:func:`_lemma_margins` with every check on the whole stack, raising what the first
    triple that fails it would raise alone."""
    if not np.isfinite(rhos).all():
        raise ValueError("operator has non-finite entries")
    defects = np.abs(rhos - rhos.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if (defects > DEFAULT_TOL).any():
        raise InvalidDensityMatrix(f"Hermiticity defect {defects[defects > DEFAULT_TOL][0]:.3e}")
    traces = np.trace(rhos, axis1=1, axis2=2)
    if (off := np.abs(traces - 1.0) > 1e-8).any():
        raise InvalidDensityMatrix(f"trace {complex(traces[off][0])} != 1")
    lowest = np.linalg.eigvalsh(rhos)[:, 0]
    if (negative := lowest < -DEFAULT_TOL).any():
        raise InvalidDensityMatrix(f"negative eigenvalue {lowest[negative][0]:.3e}")
    powered = np.empty_like(ops)
    for power in dict.fromkeys(powers):  # a scalar power, as alone: numpy squares for p = 2
        rows = np.array(powers) == power
        powered[rows] = spectral_power(psd_eigh(ops[rows]), power)
    means = np.trace(rhos @ ops, axis1=1, axis2=2).real.tolist()
    powered_means = np.trace(rhos @ powered, axis1=1, axis2=2).real.tolist()
    return [got - max(mean, 0.0) ** p for mean, got, p in zip(means, powered_means, powers)]


@dataclass(frozen=True)
class SeparableTrialSummary:
    trials: int
    violations: int
    worst_margin1: float
    worst_margin2: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def worst_margin(self) -> float:
        return min(self.worst_margin1, self.worst_margin2)


def run_separable_trials(
    trials: int,
    seed: int,
    max_n: int = 4,
    max_dim: int = 3,
    max_terms: int = 4,
) -> SeparableTrialSummary:
    """Seeded batch of random separable ensembles vs random operators.

    Per-trial generators are derived from (seed, trial index), so any
    subset of trials reproduces identically, serial or parallel.  The
    size limits must admit at least one :class:`SeparableSpec`.

    Trials run in chunks of 64.  Each trial's generator draws its spec and
    then all its operators in one call, with :func:`random_assignment`'s
    stream; :func:`_assignments` stacks the chunk's operators by local dim
    and checks each stack once, one :func:`~witnesslab.witness.fill_spectra`
    call computes the chunk's local spectra, and one
    :func:`sample_separables` call draws the chunk's ensembles.  Then each
    trial is one :func:`check_separable_bounds`, in trial order, with the
    margins it has alone.  Only the worst margins outlive a chunk.
    """
    _check_integers(trials=trials, seed=seed, max_n=max_n, max_dim=max_dim, max_terms=max_terms)
    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    if not 2 <= max_n <= 5:
        raise BadParameter(f"max_n must lie in 2..5, got {max_n}")
    if not 2 <= max_dim <= 4:
        raise BadParameter(f"max_dim must lie in 2..4, got {max_dim}")
    if not 1 <= max_terms <= 6:
        raise BadParameter(f"max_terms must lie in 1..6, got {max_terms}")
    violations = 0
    worst1 = worst2 = np.inf
    for start in range(0, int(trials), _TRIAL_CHUNK):
        specs, draws = [], []
        for trial in range(start, min(start + _TRIAL_CHUNK, int(trials))):
            rng = np.random.default_rng([int(seed), trial])
            n = int(rng.integers(2, max_n + 1))
            dims = tuple(rng.integers(2, max_dim + 1, n).tolist())
            specs.append(
                SeparableSpec(
                    dims=dims,
                    n_terms=int(rng.integers(1, max_terms + 1)),
                    seed=int(rng.integers(0, 2**63 - 1)),
                )
            )
            draws.append(rng.standard_normal(2 * sum(d * d for d in dims)))
        assignments = _assignments([spec.dims for spec in specs], draws)
        fill_spectra(assignments)
        ensembles = sample_separables(specs)
        assignments.reverse()
        while assignments:  # each trial's operators and their caches go once it is checked
            margin1, margin2 = check_separable_bounds(next(ensembles), assignments.pop())
            worst1 = min(worst1, margin1)
            worst2 = min(worst2, margin2)
            if margin1 < SEPARABLE_MARGIN_TOL or margin2 < SEPARABLE_MARGIN_TOL:
                violations += 1
    return SeparableTrialSummary(int(trials), violations, float(worst1), float(worst2))


@dataclass(frozen=True)
class LemmaTrialSummary:
    trials: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def run_lemma_trials(trials: int, seed: int) -> LemmaTrialSummary:
    """Seeded batch of (B, rho, p) triples for the operator-power inequality.

    Trials run in chunks of 64.  Each trial's ``[seed, trial, 7]`` generator
    draws B's and rho's Gaussian factors in one call, with the stream of
    :func:`random_psd` and :func:`random_density_matrix`, then the power;
    the chunk forms the matrices as stacks and takes every margin from one
    :func:`_lemma_margins` call, each the :func:`check_lemma` of its trial to
    the last bit.
    """
    _check_integers(trials=trials, seed=seed)
    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    violations = 0
    worst = np.inf
    for start in range(0, int(trials), _TRIAL_CHUNK):
        draws, powers = [], []
        for trial in range(start, min(start + _TRIAL_CHUNK, int(trials))):
            rng = np.random.default_rng([int(seed), trial, 7])
            draws.append(rng.standard_normal(4 * LEMMA_DIM**2))
            powers.append(LEMMA_POWERS[int(rng.integers(len(LEMMA_POWERS)))])
        # B's and rho's Gaussian factors, as random_psd and random_density_matrix draw them
        parts = np.reshape(draws, (-1, 2, 2, LEMMA_DIM, LEMMA_DIM))
        mats = parts[:, :, 0] + 1j * parts[:, :, 1]
        squares = mats @ mats.conj().swapaxes(-1, -2)
        ops = squares[:, 0] / LEMMA_DIM
        rhos = squares[:, 1] / np.trace(squares[:, 1], axis1=1, axis2=2).real[:, None, None]
        for margin in _lemma_margins(ops, rhos, powers):
            worst = min(worst, margin)
            if margin < LEMMA_MARGIN_TOL:
                violations += 1
    return LemmaTrialSummary(int(trials), violations, float(worst))
