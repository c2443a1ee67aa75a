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

``rhs2`` needs the n/2 power of a genuinely multipartite operator.  Its
route, one of three, follows from the structure alone: rhs2 is read off
the labels and term overlaps when every A_k^dag A_k is exactly diagonal
and every site is in label form (factorized), else off the local
spectra of the A_k^dag A_k when every pure component is one product
term (eigenbasis).  Every other state takes the dense route: the
spectrum of the full-space sum S of the embedded A_k^dag A_k weighs the
squared overlaps.  The routes agree within round-off where they overlap.
The tests check every side against a full-space reference built from
the definitions alone (``tests/full_space.py``).

Work is done once per evaluation, not once per side: each distinct local
operator's A^dag A, spectrum and moment (A^dag A)^(n/2) are kept on
the :class:`OperatorAssignment`, and the per-site overlaps on the state,
so lhs, rhs1, rhs2 and :func:`site_second_moments` share them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import BadParameter, DimensionCap, DimensionMismatch
from .linalg import (
    DIMENSION_CAP,
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
    total_dimension,
)
from .states import PureSOP, State, dense_vector

#: Scale for the default detection tolerance, see :func:`evaluate`.
DEFAULT_EPSILON_SCALE = 1e-9


class _LocalOperator:
    """One local operator A and what the conditions derive from it, each computed once."""

    def __init__(self, op: np.ndarray, n: int):
        self.square = dag(op) @ op
        self.n = n

    @cached_property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.square).real

    @cached_property
    def is_diagonal(self) -> bool:
        return np.count_nonzero(self.square) == np.count_nonzero(np.diagonal(self.square))

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
        return asdict(self)


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


def _factorized_rhs2(state: State, local, n: int) -> float | None:
    """Factorized route for rhs2; returns None, before any work, when it does not apply.

    It applies when every A_k^dag A_k is exactly diagonal and every site
    of every pure component is in label form.  Each product term is then
    an eigenvector of S = (1/n) sum_k A_k^dag A_k, with eigenvalue the
    mean of the diagonal entries its labels pick, so S^(n/2) acts by
    scalar powers and only term overlaps are needed.  White noise
    averages those powers over all label tuples.
    """
    comps, noise = _components(state)
    if not all(op.is_diagonal for op in local):
        return None
    if any(np.any(pure.labels < 0) for _, pure in comps):
        return None
    if noise and total_dimension(state.dims) > DIMENSION_CAP:
        return None
    half = n / 2.0
    value = 0.0
    for weight, pure in comps:
        amps = pure.amplitudes()
        sums = np.zeros(len(amps))
        for k, op in enumerate(local):
            sums += op.diagonal[pure.site_labels(k)]
        powered = np.maximum(sums / n, 0.0) ** half
        value += weight * float((amps.conj() @ (pure.overlaps() * powered[None, :]) @ amps).real)
    if noise:
        # ascending, as eigvalsh returns it: this fixes the mean's summation order
        spectrum = reduce(np.add.outer, [np.sort(op.diagonal) for op in local]).ravel()
        value += noise * float(np.mean(np.maximum(spectrum / n, 0.0) ** half))
    return value


def _eigenbasis_rhs2(state: State, local, n: int) -> float | None:
    """Eigenbasis route for rhs2; returns None, before any work, when it does not apply.

    It applies when every pure component is one product term a|u_1...u_n>: S is diagonal
    in the local eigenbases V_k, and f(eigenvalue) weighs |a|^2 prod_k |V_k^dag u_k|^2.
    """
    comps, noise = _components(state)
    if any(len(pure.amplitudes()) != 1 for _, pure in comps):
        return None
    capped_dimension(state.dims, "the eigenbasis rhs_condition2 route")
    spectra = [op.spectrum for op in local]
    sums = reduce(np.add.outer, [evals for evals, _ in spectra]).ravel()
    powered = (sums / n) ** (n / 2.0)
    value = noise * float(np.mean(powered)) if noise else 0.0
    for weight, pure in comps:
        probs = np.abs(pure.amplitudes()) ** 2
        for k, (_, vecs) in enumerate(spectra):
            ket = pure.site_stack(k)[0]
            ket = ket if vecs is None else dag(vecs) @ ket
            probs = np.outer(probs, ket.real**2 + ket.imag**2).ravel()
        value += weight * float(powered @ probs)
    return value


def rhs_condition2(
    state: State,
    assignment: OperatorAssignment,
    method: str = "auto",
) -> float:
    """Operator-average bound: <((1/n) sum_k A_k^dag A_k)^(n/2)>.

    ``method="auto"`` takes the factorized route or else the eigenbasis
    route where it applies (see the module docstring); every other state
    takes the dense route.  ``method="dense"`` forces the dense route on
    any state; the benchmark's correctness gate compares with it.

    The dense route sums the n embedded ``A_k^dag A_k`` in place into
    one full-space matrix S, one :func:`~witnesslab.linalg.kron_embed` per
    site, and takes S's clamped spectrum from
    :func:`~witnesslab.linalg.psd_eigh`.  Each pure component then
    contributes ``sum_i f(l_i) |<v_i|psi>|^2`` with ``f(l) = l^(n/2)``
    (elementwise on ``|psi_i|^2`` when S is exactly diagonal), and white
    noise ``mean_i f(l_i)``; no power of S is formed.  It raises
    :class:`DimensionCap` when the full dimension exceeds
    :data:`~witnesslab.linalg.DIMENSION_CAP`, as the eigenbasis route does
    before any spectrum.  Every route raises it for a pure component over
    :data:`~witnesslab.linalg.MATRIX_SIDE_CAP` terms.
    """
    _check_assignment(state, assignment)
    n = len(state.dims)
    if method == "auto":
        for route in (_factorized_rhs2, _eigenbasis_rhs2):
            value = route(state, assignment._local, n)
            if value is not None:
                return float(value)
    elif method != "dense":
        raise ValueError(f"unknown method {method!r}")
    capped_dimension(state.dims, "the dense rhs_condition2 route")
    local = assignment._local
    summed = kron_embed(local[0].square, 0, state.dims)
    for k in range(1, n):
        summed += kron_embed(local[k].square, k, state.dims)
    summed *= 1.0 / n  # bit-identical to /= n, which numpy computes by scaling with 1/n
    evals, vecs = psd_eigh(summed)
    powered = evals ** (n / 2.0)
    comps, noise = _components(state)
    value = 0.0
    for weight, pure in comps:
        vec = dense_vector(pure)
        if vecs is not None:
            vec = dag(vecs) @ vec
        value += weight * float(powered @ (vec.real**2 + vec.imag**2))
    if noise:
        value += noise * float(np.mean(powered))
    return value


def _check_epsilon(epsilon: float | None) -> float | None:
    """A detection tolerance is finite and >= 0 (None selects the default)."""
    if epsilon is None:
        return None
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise BadParameter(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


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
    A negative or non-finite ``epsilon`` raises :class:`BadParameter`.
    """
    epsilon = _check_epsilon(epsilon)
    # rhs2 first: its eigenbasis and dense routes can raise DimensionCap for
    # the full dimension, and lhs and rhs1 cost seconds on such large states
    rhs2 = rhs_condition2(state, assignment)
    lhs = abs(product_expectation(state, assignment))
    rhs1 = rhs_condition1(state, assignment)
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
