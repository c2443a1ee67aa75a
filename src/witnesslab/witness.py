"""Evaluation of the two product-moment entanglement conditions.

For an n-partite state rho and one local operator A_k per subsystem the
engine computes

    lhs  = | < A_1 A_2 ... A_n > |
    rhs1 = prod_k < (A_k^dag A_k)^(n/2) > ^ (1/n)
    rhs2 = < ( (1/n) sum_k A_k^dag A_k )^(n/2) >

Every fully separable state satisfies lhs <= rhs1 and lhs <= rhs2, so a
value of lhs exceeding either bound (beyond tolerance) certifies
entanglement; non-violation is inconclusive.

Expectation values factorize over the sum-of-products state
representation: one terms x terms pair matrix per site, from
:meth:`~witnesslab.states.PureSOP.pair_matrix` and
:meth:`~witnesslab.states.PureSOP.site_gram`.  That is the one route of
lhs and rhs1; nothing full-space is built for them.  A pure component
with more than :data:`~witnesslab.linalg.MATRIX_SIDE_CAP` terms raises
:class:`DimensionCap` before any such matrix is built.

``rhs2`` needs the n/2 power of S = (1/n) sum_k A_k^dag A_k, a genuinely
multipartite operator.  One decision reads its route off the structure:
factorized when every site is in label form and every A_k^dag A_k is
exactly diagonal (each product term is then an eigenvector of S, so
term overlaps suffice), eigenbasis when every pure component is one
product term (S is diagonal in the local eigenbases), and dense for
every other state (the spectrum of the full-space S weighs the squared
overlaps).  The routes agree within round-off where they overlap.  The
tests check every side against a full-space reference built from the
definitions alone (``tests/full_space.py``).

Work is done once per evaluation, not once per side: each distinct local
operator's A^dag A, spectrum and moment (A^dag A)^(n/2) are kept on
the :class:`OperatorAssignment`, and the per-site overlaps on the state,
so lhs, rhs1, rhs2 and :func:`site_second_moments` share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .errors import BadParameter, DimensionCap, DimensionMismatch, NumericalOverflow
from .linalg import (
    MATRIX_SIDE_CAP,
    annihilation_op,
    as_operator,
    capped_dimension,
    dag,
    kron_embed,
    psd_eigh,
    qubit_lowering_op,
    qubit_raising_op,
    spectral_power,
)
from .states import PureSOP, State, dense_vector

#: Scale for the default detection tolerance, see :func:`evaluate`.
DEFAULT_EPSILON_SCALE = 1e-9


class _LocalOperator:
    """One local operator A and what the conditions derive from it, each computed once."""

    def __init__(self, op: np.ndarray, n: int):
        square = dag(op) @ op
        # Hermitian by construction; exact where A^dag A is diagonal
        self.square = 0.5 * (square + dag(square))
        self.n = n

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray | None]:
        return psd_eigh(self.square)

    @cached_property
    def moment(self) -> np.ndarray:
        """(A^dag A)^(n/2)."""
        return spectral_power(self.spectrum, self.n / 2.0)


@dataclass(frozen=True)
class OperatorAssignment:
    """One local operator per subsystem.

    The operators are kept as read-only copies, so the matrices derived
    from them and kept on the assignment cannot go stale.  Sites given
    the same array object share one copy and one :class:`_LocalOperator`,
    so its derived matrices are computed once for all of them.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(self.ops)
        copies: dict[int, np.ndarray] = {}
        for op in ops:
            if id(op) not in copies:
                mat = as_operator(np.array(op, dtype=complex))
                mat.flags.writeable = False
                copies[id(op)] = mat
        object.__setattr__(self, "ops", tuple(copies[id(op)] for op in ops))

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(op.shape[0] for op in self.ops)

    @cached_property
    def _local(self) -> tuple[_LocalOperator, ...]:
        """Per site, the local operator with its derived matrices (kept on the assignment)."""
        shared: dict[int, _LocalOperator] = {}
        for op in self.ops:
            if id(op) not in shared:
                shared[id(op)] = _LocalOperator(op, len(self.ops))
        return tuple(shared[id(op)] for op in self.ops)

    @classmethod
    def qubit_lowering(cls, n: int) -> "OperatorAssignment":
        """|0><1| on every site."""
        return cls((qubit_lowering_op(),) * n)

    @classmethod
    def qubit_raising(cls, n: int) -> "OperatorAssignment":
        """|1><0| on every site."""
        return cls((qubit_raising_op(),) * n)

    @classmethod
    def qubit_flipped(cls, n: int) -> "OperatorAssignment":
        """Raising on site 0, lowering elsewhere.

        Matches states whose site-0 spin is flipped relative to the rest,
        the single-flip GHZ variant.
        """
        return cls((qubit_raising_op(),) + (qubit_lowering_op(),) * (n - 1))

    @classmethod
    def annihilation(cls, dims) -> "OperatorAssignment":
        """Truncated annihilation operator on every mode."""
        ops = {int(d): annihilation_op(int(d)) for d in dims}
        return cls(tuple(ops[int(d)] for d in dims))


#: Named operator choices: name -> (qubit subsystems only, assignment from the dims).
OPERATOR_CHOICES = {
    "lowering": (True, lambda dims: OperatorAssignment.qubit_lowering(len(dims))),
    "raising": (True, lambda dims: OperatorAssignment.qubit_raising(len(dims))),
    "flipped": (True, lambda dims: OperatorAssignment.qubit_flipped(len(dims))),
    "annihilation": (False, OperatorAssignment.annihilation),
}


def canonical_assignment(name: str, dims) -> OperatorAssignment:
    """Resolve one of the named operator choices against subsystem dims."""
    dims = tuple(int(d) for d in dims)
    if not isinstance(name, str) or name not in OPERATOR_CHOICES:
        raise DimensionMismatch(
            f"unknown operator choice {name!r}; known: {', '.join(OPERATOR_CHOICES)}"
        )
    qubits_only, assign = OPERATOR_CHOICES[name]
    if qubits_only and any(d != 2 for d in dims):
        raise DimensionMismatch(f"{name} operators require qubit subsystems, got {dims}")
    return assign(dims)


@dataclass(frozen=True)
class WitnessReport:
    """Both condition evaluations on one state with one operator choice."""

    lhs: float
    rhs1: float
    rhs2: float
    margin1: float
    margin2: float
    detected1: bool
    detected2: bool
    epsilon: float

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_assignment(state: State, assignment: OperatorAssignment) -> None:
    if assignment.dims != tuple(state.dims):
        raise DimensionMismatch(
            f"operator dims {assignment.dims} != state dims {tuple(state.dims)}"
        )


def _components(state: State) -> tuple[tuple[tuple[float, PureSOP], ...], float]:
    """(weight, pure) pairs and the white-noise weight.

    Every route calls this before it builds a terms x terms array, so the
    term cap is checked here.
    """
    if isinstance(state, PureSOP):
        comps, noise = ((1.0, state),), 0.0
    else:
        comps, noise = tuple(zip(state.weights, state.pures)), state.white_noise_weight
    for _, pure in comps:
        count = len(pure.amplitudes())
        if count > MATRIX_SIDE_CAP:
            raise DimensionCap(
                f"pure component has {count} product terms > cap {MATRIX_SIDE_CAP}"
            )
    return comps, noise


def _pure_product_expectation(pure: PureSOP, ops) -> complex:
    amps = pure.amplitudes()
    total = pure.pair_matrix(0, ops[0])
    for site in range(1, len(ops)):
        total *= pure.pair_matrix(site, ops[site])
    return complex(amps.conj() @ total @ amps)


def _pure_site_expectations(pure: PureSOP, site_ops) -> np.ndarray:
    """<M_k> for one operator per site, sharing the overlap bookkeeping."""
    amps = pure.amplitudes()
    n = pure.num_sites
    count = len(amps)
    # boolean as long as every gram multiplied in is (label-form sites)
    prefix = [np.ones((count, count), dtype=bool)]
    for k in range(n - 1):
        prefix.append(prefix[-1] * pure.site_gram(k))
    suffix = prefix[0]
    values = np.empty(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        env = prefix[k] * suffix
        values[k] = amps.conj() @ (env * pure.pair_matrix(k, site_ops[k])) @ amps
        suffix = suffix * pure.site_gram(k)
    return values


def _site_expectations(state: State, site_ops) -> np.ndarray:
    comps, noise = _components(state)
    values = np.zeros(len(state.dims), dtype=complex)
    for weight, pure in comps:
        values += weight * _pure_site_expectations(pure, site_ops)
    if noise:
        values += noise * np.array(
            [np.trace(op) / d for op, d in zip(site_ops, state.dims)], dtype=complex
        )
    return values


def product_expectation(state: State, assignment: OperatorAssignment) -> complex:
    """< A_1 A_2 ... A_n > on the given state."""
    _check_assignment(state, assignment)
    comps, noise = _components(state)
    value = sum(
        weight * _pure_product_expectation(pure, assignment.ops) for weight, pure in comps
    )
    if noise:
        traces = 1.0 + 0.0j
        for op, d in zip(assignment.ops, state.dims):
            traces *= np.trace(op) / d
        value += noise * traces
    return complex(value)


def site_second_moments(state: State, assignment: OperatorAssignment) -> np.ndarray:
    """< A_k^dag A_k > for every site, as real numbers."""
    _check_assignment(state, assignment)
    return _site_expectations(state, [local.square for local in assignment._local]).real


def rhs_condition1(state: State, assignment: OperatorAssignment) -> float:
    """Geometric mean bound: prod_k <(A_k^dag A_k)^(n/2)>^(1/n)."""
    _check_assignment(state, assignment)
    n = len(state.dims)
    values = _site_expectations(state, [local.moment for local in assignment._local])
    result = 1.0
    for value in values:
        result *= max(float(value.real), 0.0) ** (1.0 / n)
    return float(result)


def _rhs2_route(comps, local) -> str:
    """The rhs2 route the state's structure takes: "factorized", "eigenbasis" or "dense".

    Labels are read before any local spectrum, so a ket-form state asks
    for none here.
    """
    if all(np.all(pure.labels >= 0) for _, pure in comps) and all(
        op.spectrum[1] is None for op in local
    ):
        return "factorized"
    if all(len(pure.amplitudes()) == 1 for _, pure in comps):
        return "eigenbasis"
    return "dense"


def rhs_condition2(
    state: State,
    assignment: OperatorAssignment,
    method: str = "auto",
) -> float:
    """Operator-average bound: <((1/n) sum_k A_k^dag A_k)^(n/2)>.

    ``method="auto"`` takes the route :func:`_rhs2_route` reads off the
    structure (see the module docstring).  ``method="dense"`` forces the
    dense route on any state: a self-contained full-space reference, which
    the benchmark's correctness gate compares with.  It sums S in place
    from n :func:`~witnesslab.linalg.kron_embed` calls, and each pure
    component contributes ``sum_i f(l_i) |<v_i|psi>|^2`` over S's clamped
    spectrum with ``f(l) = l^(n/2)``; no power of S is formed.  White
    noise adds the mean of f over S's spectrum on the dense route, and
    over the outer sum of the local clamped spectra on the other two.
    Every route but a noiseless factorized one raises
    :class:`DimensionCap` when the full dimension exceeds
    :data:`~witnesslab.linalg.DIMENSION_CAP`, and every route when a pure
    component has more than :data:`~witnesslab.linalg.MATRIX_SIDE_CAP`
    terms.
    """
    _check_assignment(state, assignment)
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    n = len(state.dims)
    half = n / 2.0
    local = assignment._local
    comps, noise = _components(state)
    route = _rhs2_route(comps, local) if method == "auto" else "dense"
    if route != "factorized" or noise:
        capped_dimension(state.dims, f"the {route} rhs_condition2 route")
    value = 0.0
    if route == "dense":
        summed = kron_embed(local[0].square, 0, state.dims)
        for k in range(1, n):
            summed += kron_embed(local[k].square, k, state.dims)
        summed *= 1.0 / n  # bit-identical to /= n, which numpy computes by scaling with 1/n
        evals, vecs = psd_eigh(summed)
        powered = evals**half
        for weight, pure in comps:
            vec = dense_vector(pure)
            if vecs is not None:
                vec = dag(vecs) @ vec
            value += weight * float(powered @ (vec.real**2 + vec.imag**2))
        return value + noise * float(np.mean(powered)) if noise else value
    spectra = [op.spectrum for op in local]
    if noise:
        # ascending local spectra fix the mean's summation order
        grid = reduce(np.add.outer, [np.sort(evals) for evals, _ in spectra]).ravel()
        value = noise * float(np.mean((grid / n) ** half))
    if route == "factorized":
        for weight, pure in comps:
            amps = pure.amplitudes()
            sums = np.zeros(len(amps))
            for k, (evals, _) in enumerate(spectra):
                sums += evals[pure.site_labels(k)]
            powered = (sums / n) ** half
            weighed = pure.overlaps() * powered[None, :]
            value += weight * float((amps.conj() @ weighed @ amps).real)
    else:
        powered = (reduce(np.add.outer, [evals for evals, _ in spectra]).ravel() / n) ** half
        for weight, pure in comps:
            probs = np.abs(pure.amplitudes()) ** 2
            for k, (_, vecs) in enumerate(spectra):
                ket = pure.site_stack(k)[0]
                ket = ket if vecs is None else dag(vecs) @ ket
                probs = np.outer(probs, ket.real**2 + ket.imag**2).ravel()
            value += weight * float(powered @ probs)
    return value


def _check_epsilon(epsilon: float | None) -> float | None:
    """A detection tolerance is finite and >= 0 (None selects the default)."""
    if epsilon is None:
        return None
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise BadParameter(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


def _finite(side: str, value) -> float:
    """``value`` as a float; :class:`NumericalOverflow` naming ``side`` when it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericalOverflow(f"{side} is {value} in double precision: a moment overflows")
    return value


def evaluate(
    state: State,
    assignment: OperatorAssignment,
    epsilon: float | None = None,
) -> WitnessReport:
    """Evaluate both conditions and assemble a report.

    ``epsilon`` is the detection tolerance: a condition counts as violated
    only when its margin exceeds it.  When omitted it defaults to
    ``1e-9 * max(1, rhs1, rhs2)``, which keeps strict-inequality semantics
    at equality boundaries without misreading round-off as detection.
    A negative or non-finite ``epsilon`` raises :class:`BadParameter`, and
    a side that is not finite in double precision :class:`NumericalOverflow`.
    """
    epsilon = _check_epsilon(epsilon)
    # rhs2 first: its eigenbasis and dense routes can raise DimensionCap for
    # the full dimension, and lhs and rhs1 cost seconds on such large states.
    # A moment m^(n/2) overflows for large n and then meets zeros as NaN:
    # numpy's warnings on the way are kept back and each side is checked.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rhs2 = _finite("rhs2", rhs_condition2(state, assignment))
            lhs = _finite("lhs", abs(product_expectation(state, assignment)))
            rhs1 = _finite("rhs1", rhs_condition1(state, assignment))
    except OverflowError as exc:
        raise NumericalOverflow(f"a side overflows double precision: {exc}") from exc
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_SCALE * max(1.0, rhs1, rhs2)
    margin1 = lhs - rhs1
    margin2 = lhs - rhs2
    return WitnessReport(
        lhs=float(lhs),
        rhs1=float(rhs1),
        rhs2=float(rhs2),
        margin1=float(margin1),
        margin2=float(margin2),
        detected1=bool(margin1 > epsilon),
        detected2=bool(margin2 > epsilon),
        epsilon=float(epsilon),
    )
