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
:meth:`~witnesslab.states.PureSOP.site_gram`.  That is the route of lhs
and rhs1 unless the state is a mixture of product states (below);
nothing full-space is built for them.  Memory has one bound,
:data:`~witnesslab.linalg.ARRAY_BYTES_CAP` (64 MiB) per array: every
route checks its largest array against it before building it.

``rhs2`` needs the n/2 power of S = (1/n) sum_k A_k^dag A_k, a genuinely
multipartite operator.  One decision reads its route off the structure:
factorized when every site is in label form and every A_k^dag A_k is
exactly diagonal (each product term is then an eigenvector of S, so
term overlaps suffice), eigenbasis when every pure component is one
product term (S is diagonal in the local eigenbases), and dense for
every other state (the spectrum of the full-space S weighs the squared
overlaps).  When every A_k^dag A_k is kept as its diagonal (below), the
dense route keeps S as its D diagonal entries too, which are then its
spectrum; otherwise S is a D x D matrix.  The routes agree within
round-off where they overlap.  The tests check every side against a
full-space reference built from the definitions alone
(``tests/full_space.py``).

The eigenbasis route serves all three sides, from one structure read:
the state's :attr:`~witnesslab.states.PureSOP.product_stacks`, the
weights p_c = w_c |a_c|^2 and one (components x d_k) ket stack U_k per
site.  lhs is sum_c p_c prod_k <u_ck|A_k|u_ck>, one contraction per
site.  Each site's kets are rotated into the eigenbasis V_k of
A_k^dag A_k once, R_k = U_k V_k^*, and rhs1 and rhs2 share that
rotation: rhs1's site moment is p . (|R_k|^2 @ lambda_k^(n/2)), and rhs2
weighs the outer product of the |R_k|^2 rows, over all components at
once, by the n/2 power of the summed local spectra.

Work is done once per evaluation, not once per side: each distinct local
operator's A^dag A, spectrum and moment (A^dag A)^(n/2) are kept on
the :class:`OperatorAssignment` (the d x d spectra of one dim from one
:func:`~witnesslab.linalg.psd_eigh` call over their stack), and the
per-site overlaps and rotations on the state, so lhs, rhs1, rhs2 and
:func:`site_second_moments` share them.

When every row of A has at most one nonzero (every named operator
choice: lowering, raising, flipped, annihilation), the columns of A have
disjoint supports and A^dag A is diagonal, with entries sum_i |A_ij|^2.
It is then kept as that real 1-D diagonal, which is its own clamped
spectrum, and its moment as the 1-D diagonal power: no matrix product,
eigensolver or d x d matrix.  Wherever the engine meets an operator, a
1-D array stands for the diagonal operator it lists.  A^dag A that
overflows double precision raises :class:`NumericalOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .errors import BadParameter, DimensionMismatch, NumericalOverflow
from .linalg import (
    ARRAY_BYTES_CAP,
    annihilation_op,
    as_operator,
    check_bytes,
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
    """One local operator A and what the conditions derive from it, each computed once.

    ``square`` (A^dag A) and ``moment`` ((A^dag A)^(n/2)) are 1-D, the
    diagonal of a diagonal operator, when every row of A has at most one
    nonzero; otherwise they are d x d matrices.
    """

    def __init__(self, op: np.ndarray, n: int):
        # more nonzeros than rows rules out one per row, without the per-row count
        if np.count_nonzero(op) <= len(op) and np.all(np.count_nonzero(op, axis=1) <= 1):
            # the columns have disjoint supports, so A^dag A is diagonal:
            # sum_i |A_ij|^2, real and non-negative by construction
            square = (op.real**2 + op.imag**2).sum(axis=0)
        else:
            square = dag(op) @ op
            # Hermitian by construction; exact where A^dag A is diagonal
            square = 0.5 * (square + dag(square))
        if not np.isfinite(square).all():
            scale = float(np.max(np.abs(op)))
            raise NumericalOverflow(
                f"A^dag A of an operator with largest modulus {scale:.3g} overflows double"
                " precision"
            )
        self.square = square
        self.n = n

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Clamped spectrum of A^dag A, unless :attr:`OperatorAssignment._spectra` filled it in."""
        if self.square.ndim == 1:
            return self.square, None
        return psd_eigh(self.square)

    @cached_property
    def moment(self) -> np.ndarray:
        """(A^dag A)^(n/2)."""
        if self.square.ndim == 1:
            # complex like the kets and amplitudes it meets, so no product with it casts
            return (self.square ** (self.n / 2.0)).astype(complex)
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
        # an A^dag A that overflows raises NumericalOverflow instead of a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for op in self.ops:
                if id(op) not in shared:
                    shared[id(op)] = _LocalOperator(op, len(self.ops))
        return tuple(shared[id(op)] for op in self.ops)

    @cached_property
    def _spectra(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """Per site, the clamped spectrum of A^dag A, kept on each local operator.

        The d x d squares of equal d go through one :func:`psd_eigh` of
        their stack; a 1-D square is its own spectrum.
        """
        groups: dict[int, list[_LocalOperator]] = {}
        for local in {id(local): local for local in self._local}.values():
            if local.square.ndim == 2:
                groups.setdefault(len(local.square), []).append(local)
        for group in groups.values():
            evals, vecs = psd_eigh(np.stack([local.square for local in group]))
            for i, local in enumerate(group):
                local.spectrum = (evals[i], None if vecs is None else vecs[i])
        return tuple(local.spectrum for local in self._local)

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
    """One operator per site, each of its site's dim; the message names one site, not all."""
    ops, dims = assignment.dims, tuple(state.dims)
    if ops == dims:
        return
    if len(ops) != len(dims):
        raise DimensionMismatch(f"{len(ops)} operators for {len(dims)} subsystems")
    site = next(k for k, (op_dim, dim) in enumerate(zip(ops, dims)) if op_dim != dim)
    raise DimensionMismatch(f"operator dim {ops[site]} != state dim {dims[site]} at site {site}")


def _noise(state: State) -> float:
    return 0.0 if isinstance(state, PureSOP) else state.white_noise_weight


def _components(state: State) -> tuple[tuple[tuple[float, PureSOP], ...], float]:
    """(weight, pure) pairs and the white-noise weight.

    Every route calls this before it builds a terms x terms array, so
    their size is checked here.
    """
    comps = ((1.0, state),) if isinstance(state, PureSOP) else tuple(zip(state.weights, state.pures))
    for _, pure in comps:
        check_bytes(len(pure.amplitudes()) ** 2, 16, "pure component: terms x terms pair matrix of")
    return comps, _noise(state)


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
        # the trace of a 1-D (diagonal) operator is its sum
        traces = [np.sum(op) if op.ndim == 1 else np.trace(op) for op in site_ops]
        values += noise * np.array(
            [trace / d for trace, d in zip(traces, state.dims)], dtype=complex
        )
    return values


def _product_site_expectations(state: State, spectra, power: float) -> np.ndarray:
    """<(A_k^dag A_k)^power> for every site of a mixture of product states.

    Read off each site's clamped spectrum and the squared overlaps of the
    site's kets with its eigenvectors (the rotation rhs2 shares).
    """
    products, noise = state.product_stacks, _noise(state)
    values = np.empty(len(spectra))
    for k, (evals, vecs) in enumerate(spectra):
        powered = evals**power
        values[k] = products.probs @ (products.squared_overlaps(k, vecs) @ powered)
        if noise:
            values[k] += noise * powered.sum() / state.dims[k]
    return values


def product_expectation(state: State, assignment: OperatorAssignment) -> complex:
    """< A_1 A_2 ... A_n > on the given state."""
    _check_assignment(state, assignment)
    products = state.product_stacks
    if products is None:
        comps, noise = _components(state)
        value = sum(
            weight * _pure_product_expectation(pure, assignment.ops) for weight, pure in comps
        )
    else:
        # sum_c p_c prod_k <u_ck|A_k|u_ck>, one contraction per site
        noise, values = _noise(state), products.probs
        for stack, op in zip(products.stacks, assignment.ops):
            values = values * (stack.conj() * (stack @ op.T)).sum(1)
        value = values.sum()
    if noise:
        traces = 1.0 + 0.0j
        for op, d in zip(assignment.ops, state.dims):
            traces *= np.trace(op) / d
        value += noise * traces
    return complex(value)


def site_second_moments(state: State, assignment: OperatorAssignment) -> np.ndarray:
    """< A_k^dag A_k > for every site, as real numbers."""
    _check_assignment(state, assignment)
    if state.product_stacks is not None:
        return _product_site_expectations(state, assignment._spectra, 1.0)
    return _site_expectations(state, [local.square for local in assignment._local]).real


def rhs_condition1(state: State, assignment: OperatorAssignment) -> float:
    """Geometric mean bound: prod_k <(A_k^dag A_k)^(n/2)>^(1/n)."""
    _check_assignment(state, assignment)
    n = len(state.dims)
    if state.product_stacks is None:
        values = _site_expectations(state, [local.moment for local in assignment._local]).real
    else:
        values = _product_site_expectations(state, assignment._spectra, n / 2.0)
    result = 1.0
    for value in values:
        result *= max(float(value), 0.0) ** (1.0 / n)
    return float(result)


def _rhs2_route(state: State, assignment: OperatorAssignment) -> str:
    """The rhs2 route the state's structure takes: "factorized", "eigenbasis" or "dense".

    Labels are read before any local spectrum, so a ket-form state asks
    for none here.  The eigenbasis route is the one lhs and rhs1 take
    too when :attr:`~witnesslab.states.PureSOP.product_stacks` is set.
    """
    pures = (state,) if isinstance(state, PureSOP) else state.pures
    if all(pure.labels.min() >= 0 for pure in pures) and all(
        vecs is None for _, vecs in assignment._spectra
    ):
        return "factorized"
    if state.product_stacks is not None:
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
    spectrum with ``f(l) = l^(n/2)``; no power of S is formed.  When every
    A_k^dag A_k is 1-D (every named operator choice), the embeds and S are
    the D real diagonal entries, S's spectrum with no eigensolver, and a
    component adds ``f(S) . |psi|^2``; otherwise S is D x D.  The
    eigenbasis route, which lhs and rhs1 take too, weighs the outer
    product over the sites of each component's ``|R_k|^2`` row (the
    rotation rhs1 shares) by ``f`` of the summed local spectra, for all
    components at once.  White noise adds the mean of f over S's
    spectrum on the dense route, and over the outer sum of the local
    clamped spectra on the other two.  :class:`DimensionCap` is raised
    before an array over the byte budget
    :data:`~witnesslab.linalg.ARRAY_BYTES_CAP` is built: terms x terms
    complex pair matrices (terms <= 2048), the dense route's D x D complex
    S (D <= 2048) or its diagonal S and terms x D complex full-space
    vectors (checked together before the first embed: D <= 2^21 for
    two-term components), or the D floats of the eigenbasis or white-noise
    grid (D <= 2^23); the eigenbasis route takes its components in chunks
    of at most that many bytes of components x D floats.
    """
    _check_assignment(state, assignment)
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    n = len(state.dims)
    half = n / 2.0
    comps, noise = _components(state)
    route = _rhs2_route(state, assignment) if method == "auto" else "dense"
    value = 0.0
    if route == "dense":
        dim = total_dimension(state.dims)
        squares = [local.square for local in assignment._local]
        if all(square.ndim == 1 for square in squares):
            # S is diagonal too: its D real entries, from 1-D embeds, are its spectrum
            check_bytes(dim, 8, "the dense rhs_condition2 route: diagonal S of")
        else:
            check_bytes(dim**2, 16, "the dense rhs_condition2 route: S of")
            squares = [np.diag(square) if square.ndim == 1 else square for square in squares]
        for _, pure in comps:
            # dense_vector's own check, made before any D-sized array is built
            check_bytes(len(pure.amplitudes()) * dim, 16, "dense_vector: terms x D array of")
        summed = kron_embed(squares[0], 0, state.dims)
        for k in range(1, n):
            summed += kron_embed(squares[k], k, state.dims)
        summed *= 1.0 / n  # bit-identical to /= n, which numpy computes by scaling with 1/n
        evals, vecs = psd_eigh(summed)
        powered = evals**half
        for weight, pure in comps:
            vec = dense_vector(pure)
            if vecs is not None:
                vec = dag(vecs) @ vec
            value += weight * float(powered @ (vec.real**2 + vec.imag**2))
        return value + noise * float(np.mean(powered)) if noise else value
    if route == "eigenbasis":
        # one float per full-space basis state; checked before any local spectrum
        check_bytes(total_dimension(state.dims), 8, "the eigenbasis rhs_condition2 route: grid of")
    spectra = assignment._spectra
    if noise:
        check_bytes(total_dimension(state.dims), 8, "white noise in rhs_condition2: grid of")
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
        products = state.product_stacks
        powered = (reduce(np.add.outer, [evals for evals, _ in spectra]).ravel() / n) ** half
        # sum_c p_c (x_k |R_kc|^2) . powered, for components in chunks of rows x D floats
        # within the budget (D <= 2^23 leaves room for one row)
        rows = ARRAY_BYTES_CAP // (8 * len(powered))
        for start in range(0, len(products.probs), rows):
            block = products.probs[start : start + rows, None]
            for k, (_, vecs) in enumerate(spectra):
                squared = products.squared_overlaps(k, vecs)[start : start + rows]
                block = (block[:, :, None] * squared[:, None, :]).reshape(len(block), -1)
            value += float((block @ powered).sum())
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
