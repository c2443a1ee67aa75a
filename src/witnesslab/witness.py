"""Evaluation of the two product-moment entanglement conditions.

For an n-partite state rho and one local operator A_k per subsystem the
engine computes

    lhs  = | < A_1 A_2 ... A_n > |
    rhs1 = prod_k < (A_k^dag A_k)^(n/2) > ^ (1/n)
    rhs2 = < ( (1/n) sum_k A_k^dag A_k )^(n/2) >

Every fully separable state satisfies lhs <= rhs1 and lhs <= rhs2, so a
value of lhs exceeding either bound (beyond tolerance) certifies
entanglement; non-violation is inconclusive.

Every side reads the state as its :class:`~witnesslab.states.TermAxis`
(its term groups, dims, ket sites and white-noise weight): per group of
equal term count and per site, one (G x t x t) block of <u_j|M|u_j'>,
one contraction for any term count.  A group reads a label site's labels
through its label match or its table gather (``TermGroup.match``, ``.at``).
lhs is sum_c w_c a_c^dag (prod_k P_k) a_c.  At an eigen site, a label site
whose own A^dag A is diagonal, each term is an eigenvector: rhs1 and the
second moments read it as sum_j' r_cj' v_j', v the eigenvalues gathered at
the labels and r = w (a^dag O) o a from the term overlaps O, and weigh any
other site's one block by the eigen sites' match and the other sites'
grams.  A non-diagonal A^dag A enters through its clamped spectrum
(lambda, V), as conj(u~_j) . lambda^p u~_j' of the kets read in V's
columns, u~ = V^dag u, kept for rhs2 too.  rhs2 is sum_c w_c a_c^dag R_c
a_c, R_jj' = <t_j|f(S)|t_j'>, f(s) = s^(n/2), S = (1/n) sum_k A_k^dag A_k,
which is diagonal in the product of the local eigenbases.  Its route is
read off the structure: factorized when every site is an eigen site (each
term is an eigenvector of S, so rhs2 is r summed against f), and
eigenbasis otherwise, S's D diagonal entries contracted with each site's
ket pairs.  The tests check every side against ``tests/full_space.py``.

Each distinct local operator's spectrum depends on that operator alone,
is computed once and kept on the :class:`OperatorAssignment`;
:func:`fill_spectra` computes those of many assignments at once, with the
same bits.  An operator is a d x d matrix or, with at most one nonzero per
row (every named choice), its row map A = sum_i w_i |i><c_i|
(:class:`~witnesslab.linalg.RowMap`, given as one or read from a matrix),
for which no d x d matrix is built: A^dag A is |w|^2 summed into the
columns c, a real 1-D diagonal that is its own spectrum; a ket site
applies A as w * u[c]; and lhs takes all the label sites of a group whose
operators are row maps as one block, nonzero where every site maps j's
label to j''s.  Powered spectra stay 1-D: :func:`~witnesslab.states.stack_pairs`
and :func:`~witnesslab.linalg.kron_embed` read a 1-D array as the diagonal it
lists.  Every array is checked against :data:`~witnesslab.linalg.ARRAY_BYTES_CAP`
before it is built, and an A^dag A that overflows double precision raises
:class:`NumericalOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import BadParameter, DimensionMismatch, NumericalOverflow, WitnessLabError
from .linalg import (
    ARRAY_BYTES_CAP,
    CheckedRowMap,
    RowMap,
    annihilation_rows,
    as_operator,
    check_bytes,
    kron_embed,
    psd_eigh,
    qubit_lowering_rows,
    qubit_raising_rows,
    total_dimension,
)
from .states import State, stack_pairs

#: Scale for the default detection tolerance, see :func:`evaluate`.
DEFAULT_EPSILON_SCALE = 1e-9


def _local_spectra(assignments) -> list[tuple[tuple[np.ndarray, np.ndarray | None], ...]]:
    """Per assignment, per site, the clamped spectrum ``(evals, vecs)`` of A^dag A, once
    per distinct operator; each spectrum depends on its own operator alone.

    A row map's A^dag A is 1-D, its diagonal, and its own spectrum with
    ``vecs=None``.  The distinct d x d operators of one dim, across all the
    assignments, take one stacked A^dag A, Hermitian by construction: the
    squares that are exactly diagonal keep their diagonals (``vecs=None``),
    and the rest take one :func:`psd_eigh`.  :class:`NumericalOverflow` names
    the first operator, in assignment and site order, whose square is not finite.
    """
    spectra = {}  # id(op) -> (evals, vecs), for each operator whose square is finite
    stacks: dict[int, list[np.ndarray]] = {}  # d -> the distinct d x d operators
    # an A^dag A that overflows raises NumericalOverflow instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for op in {id(op): op for a in assignments for op in a._local}.values():
            if not isinstance(op, RowMap):
                stacks.setdefault(len(op), []).append(op)
            # the columns have disjoint supports, so A^dag A is diagonal:
            # sum_i |A_ij|^2, real and non-negative by construction
            elif np.isfinite(square := op.square()).all():
                spectra[id(op)] = (square, None)
        for members in stacks.values():
            ops = np.stack(members)
            squares = np.matmul(ops.conj().swapaxes(1, 2), ops)
            # Hermitian by construction; exact where A^dag A is diagonal
            squares = 0.5 * (squares + squares.conj().swapaxes(1, 2))
            finite = np.isfinite(squares).all(axis=(1, 2))
            diagonal = np.count_nonzero(squares, axis=(1, 2)) == np.count_nonzero(
                squares.diagonal(axis1=1, axis2=2), axis=1
            )
            for rows in (finite & diagonal, finite & ~diagonal):
                if rows.any():
                    evals, vecs = psd_eigh(squares[rows])
                    for j, row in enumerate(np.flatnonzero(rows)):
                        spectra[id(members[row])] = (evals[j], None if vecs is None else vecs[j])
    bad = next((op for a in assignments for op in a._local if id(op) not in spectra), None)
    if bad is not None:
        scale = float(np.max(np.abs(bad.weights if isinstance(bad, RowMap) else bad)))
        raise NumericalOverflow(
            f"A^dag A of an operator with largest modulus {scale:.3g} overflows double precision"
        )
    return [tuple(spectra[id(op)] for op in a._local) for a in assignments]


class OperatorAssignment:
    """One local operator per subsystem, each a d x d matrix or a
    :class:`~witnesslab.linalg.RowMap` ``A = sum_i w_i |i><c_i|``.

    Each distinct operator is kept once, in one form: sites given the same
    object share it, and so do sites of one dim under a named constructor,
    so what is derived from it is computed once for all of them.  A row map
    is checked and kept as read-only copies of its arrays, unless it is a
    :class:`~witnesslab.linalg.CheckedRowMap` (as every named choice's is); a
    matrix with at most one nonzero per row is read into its row map, and any
    other matrix is kept as a read-only copy.  ``ops`` is the dense, read-only
    tuple, built on first access.
    """

    def __init__(self, ops):
        ops = tuple(ops)
        local: dict[int, RowMap | np.ndarray] = {}
        for op in ops:
            if id(op) in local:
                continue
            if isinstance(op, RowMap):
                local[id(op)] = op if isinstance(op, CheckedRowMap) else op.checked()
            else:
                mat = as_operator(np.array(op, dtype=complex))
                mat.flags.writeable = False
                rows = RowMap.of(mat)
                local[id(op)] = mat if rows is None else rows
        self._from_local(local[id(op)] for op in ops)

    def _from_local(self, local) -> "OperatorAssignment":
        """Keep these operators, one per site, as they are, every assignment's one way in:
        each a checked row map or a finite, read-only d x d complex array with two or more
        nonzeros in some row."""
        self._local = tuple(local)
        return self

    @cached_property
    def ops(self) -> tuple[np.ndarray, ...]:
        """One read-only d x d array per site, shared by the sites that share an operator."""
        distinct = {id(op): op for op in self._local}
        dense = {key: op.dense() if isinstance(op, RowMap) else op for key, op in distinct.items()}
        for mat in dense.values():
            mat.flags.writeable = False
        return tuple(dense[id(op)] for op in self._local)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(op.shape[0] for op in self._local)

    @cached_property
    def _spectra(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """Per site, the clamped spectrum ``(evals, vecs)`` of A^dag A, once per operator:
        the one-assignment case of :func:`fill_spectra`, unless that filled it in."""
        return _local_spectra((self,))[0]

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """(sites x largest dim) every site's clamped spectrum of A^dag A, zero-padded."""
        padded = np.zeros((len(self._local), max(self.dims)))
        for site, (evals, _) in enumerate(self._spectra):
            padded[site, : len(evals)] = evals
        return padded

    @cached_property
    def _row_sites(self) -> list[int]:
        """The sites whose operator is a row map."""
        return [k for k, op in enumerate(self._local) if isinstance(op, RowMap)]

    @cached_property
    def _row_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, weights)`` (sites x largest dim): every site's row map, zero-padded
        (zeros at a site whose operator is d x d)."""
        cols = np.zeros((len(self._local), max(self.dims)), dtype=np.int64)
        weights = np.zeros(cols.shape, dtype=complex)
        for k in self._row_sites:
            cols[k, : self.dims[k]], weights[k, : self.dims[k]] = self._local[k]
        return cols, weights

    @cached_property
    def _traces(self) -> tuple[complex, ...]:
        """tr(A_k) for every site, read once per assignment for white noise."""
        return tuple(op.trace() for op in self._local)

    @classmethod
    def qubit_lowering(cls, n: int) -> "OperatorAssignment":
        """|0><1| on every site."""
        return cls((qubit_lowering_rows(),) * n)

    @classmethod
    def qubit_raising(cls, n: int) -> "OperatorAssignment":
        """|1><0| on every site."""
        return cls((qubit_raising_rows(),) * n)

    @classmethod
    def qubit_flipped(cls, n: int) -> "OperatorAssignment":
        """Raising on site 0, lowering elsewhere.

        Matches states whose site-0 spin is flipped relative to the rest,
        the single-flip GHZ variant.
        """
        return cls((qubit_raising_rows(),) + (qubit_lowering_rows(),) * (n - 1))

    @classmethod
    def annihilation(cls, dims) -> "OperatorAssignment":
        """Truncated annihilation operator on every mode, each dim refused before it is built."""
        dims = [int(d) for d in dims]
        rows = {d: annihilation_rows(d) for d in dict.fromkeys(dims)}
        return cls(rows[d] for d in dims)


def fill_spectra(assignments) -> None:
    """Compute the local spectra of several assignments at once and keep them on each,
    each with the bits its operator gives alone (:func:`_local_spectra`).  If that raises a
    :class:`WitnessLabError`, nothing is kept: each assignment computes its own, and
    raises, when they are first read."""
    assignments = list(assignments)
    try:
        spectra = _local_spectra(assignments)
    except WitnessLabError:
        return
    for assignment, own in zip(assignments, spectra):
        vars(assignment)["_spectra"] = own


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


def _mix(values) -> np.ndarray:
    """The sum over the components of the term groups' weighted values, each group's of
    shape (G,) or (G x sites), added one at a time in group and component order."""
    if not values:
        return 0.0
    terms = values[0] if len(values) == 1 else np.concatenate(values)
    return terms[0] if len(terms) == 1 else np.add.accumulate(terms, axis=0)[-1]


def _site_moments(state: State, assignment: OperatorAssignment, power: float) -> np.ndarray:
    """<(A_k^dag A_k)^power> for every site, as real numbers: an eigen site's one
    :meth:`~witnesslab.states.TermGroup.diagonal` sum, any other site's block weighed by the
    eigen sites' label match once and the rest's grams (one for a one-term component) by
    prefix/suffix, and taken by one quadratic form."""
    _check_assignment(state, assignment)
    spectra = assignment._spectra
    powered = [evals**power for evals, _ in spectra]
    n = len(spectra)
    values = []
    for group in state.groups:
        eigen = [k for k in range(n) if k not in group.kets and spectra[k][1] is None]
        others = [k for k in range(n) if k not in eigen]
        moments = np.empty((n, len(group.amps)), dtype=complex)
        if eigen:  # each eigen site's powered eigenvalues at the terms' labels
            moments[eigen] = group.diagonal(group.at(assignment._diagonals, eigen) ** power)
        paired = group.amps.shape[1] > 1 and bool(others)
        if paired:
            suffix, prefix = True, [group.match(eigen)]
            for k in others[:-1]:
                prefix.append(prefix[-1] * group.gram(k))
        for i, k in reversed(list(enumerate(others))):
            block = stack_pairs(group.rotated(k, spectra[k][1]), powered[k])
            if paired:
                block *= prefix[i] * suffix  # a new block, so weighed in place
                suffix = suffix * group.gram(k)
            moments[k] = group.quadratic(block)
        values.append(moments.T)
    result = _mix(values)
    noise = state.white_noise_weight
    if noise:
        result = result + noise * np.array([f.sum() / d for f, d in zip(powered, state.dims)])
    return np.real(result)


def product_expectation(state: State, assignment: OperatorAssignment) -> complex:
    """< A_1 A_2 ... A_n > on the given state: per group, the label sites whose operators
    are row maps as one block, times every other site's pair block in site order."""
    _check_assignment(state, assignment)
    local, mapped = assignment._local, assignment._row_sites
    values = []
    for group in state.groups:
        fused = [k for k in mapped if k not in group.kets]
        total = group.row_block(fused, *assignment._row_tables) if fused else None
        rest = sorted(set(range(len(local))).difference(fused)) if fused else range(len(local))
        for site in rest:
            block = group.pair_block(site, local[site])
            total = block if total is None else np.multiply(total, block, out=total)
        values.append(group.quadratic(total))
    value = _mix(values)
    noise = state.white_noise_weight
    if noise:
        traces = 1.0 + 0.0j
        for trace, d in zip(assignment._traces, state.dims):
            traces *= trace / d
        value += noise * traces
    return complex(value)


def site_second_moments(state: State, assignment: OperatorAssignment) -> np.ndarray:
    """< A_k^dag A_k > for every site, as real numbers."""
    return _site_moments(state, assignment, 1.0)


def rhs_condition1(state: State, assignment: OperatorAssignment) -> float:
    """Geometric mean bound: prod_k <(A_k^dag A_k)^(n/2)>^(1/n)."""
    n = len(state.dims)
    result = 1.0
    for value in _site_moments(state, assignment, n / 2.0):
        result *= max(float(value), 0.0) ** (1.0 / n)
    return float(result)


def _rhs2_route(state: State, assignment: OperatorAssignment) -> str:
    """The rhs2 route the state's structure takes: "factorized" when every site is an eigen
    site, else "eigenbasis"; a state with a ket site asks for no local spectrum here."""
    if not state.kets and all(vecs is None for _, vecs in assignment._spectra):
        return "factorized"
    return "eigenbasis"


def _powered_grid(state: State, assignment: OperatorAssignment) -> np.ndarray:
    """f(S) = S^(n/2) on S's D diagonal entries in the local eigenbases: the clamped
    local spectra embedded with :func:`~witnesslab.linalg.kron_embed` and summed in
    site order, scaled once by 1/n."""
    dims, n = state.dims, len(state.dims)
    spectra = assignment._spectra
    grid = kron_embed(spectra[0][0], 0, dims)
    for k in range(1, n):
        grid += kron_embed(spectra[k][0], k, dims)
    # times 1/n, not /n: the two differ in the last bit for some n (3, 5, 7, 9 among
    # them), and the route's outputs were fixed with this one
    grid *= 1.0 / n
    grid **= n / 2.0
    return grid


def _eigenbasis_block(group, grid: np.ndarray, bases, lead: int, width: int) -> np.ndarray:
    """(G x t x t) block R_jj' = <t_j|f(S)|t_j'> of one term group from the grid f(S) in
    the local eigenbases ``bases``, in chunks of components of t x t x ``width``
    complex within the budget: the ket pairs of every site but ``lead`` as one
    (D/d x chunk t t) outer product, contracted with the grid by one real product
    of its real and imaginary parts, then with the lead site's pairs."""
    dims, terms = group.dims, group.amps.shape[1]
    chunk = max(1, ARRAY_BYTES_CAP // (16 * terms * terms * width))
    first, *rest = (*range(lead), *range(lead + 1, len(dims)))
    blocks = []
    for start in range(0, len(group.amps), chunk):
        rows = slice(start, start + chunk)
        pairs = [group.ket_pairs(k, bases[k], rows).reshape(-1, d).T for k, d in enumerate(dims)]
        part = np.array(pairs[first], dtype=complex, order="C")
        for k in rest:
            part = np.multiply(part[:, None, :], pairs[k], order="C").reshape(-1, part.shape[1])
        moments = (grid.reshape(dims[lead], -1) @ part.view(float)).view(complex)
        blocks.append(np.einsum("iq,iq->q", pairs[lead], moments))
    return np.concatenate(blocks).reshape(-1, terms, terms)


def rhs_condition2(
    state: State,
    assignment: OperatorAssignment,
    method: str = "auto",
) -> float:
    """Operator-average bound: <((1/n) sum_k A_k^dag A_k)^(n/2)>.

    Each term group adds w_c a_c^dag R_c a_c, R_jj' = <t_j|f(S)|t_j'>, f(l) =
    l^(n/2), and white noise its weight times the mean of f over S's D entries.
    ``method="auto"`` takes the route :func:`_rhs2_route` reads off the
    structure; ``method="dense"`` forces the eigenbasis route, which serves
    every state.  Factorized: each term is an eigenvector of S, so the group adds
    ``group.diagonal`` of f at its local eigenvalues.  Eigenbasis: S is diagonal in the
    product of the local eigenbases V_k, with D entries from n
    :func:`~witnesslab.linalg.kron_embed` calls, and :func:`_eigenbasis_block`
    gives R.  :class:`DimensionCap` is raised before an array over the budget is
    built: a grid of D floats past 2^23, or one component's t x t x D/d complex
    block, d the dim of the first site of dim > 1 (or the largest dim, if more).
    """
    _check_assignment(state, assignment)
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    route = _rhs2_route(state, assignment) if method == "auto" else "eigenbasis"
    dims, n = state.dims, len(state.dims)
    noise = state.white_noise_weight
    value = 0.0
    if route == "eigenbasis" or noise:
        # the grid and one component's block are checked before any D-sized array
        # or term group (and, for a state with ket sites, any local spectrum)
        dim = total_dimension(dims)
        check_bytes(dim, 8, f"the {route} rhs_condition2 route: grid of")
        if route == "eigenbasis":
            lead = next((k for k, d in enumerate(dims) if d > 1), 0)
            width = max(dim // dims[lead], *dims)
            terms = int(np.diff(state.offsets).max(initial=1))
            check_bytes(terms * terms * width, 16, f"the {route} rhs_condition2 route: block of")
        powered = _powered_grid(state, assignment)
        if noise:
            value = noise * float(np.mean(powered))
    values = []
    bases = [vecs for _, vecs in assignment._spectra] if route == "eigenbasis" else None
    for group in state.groups:
        if route == "factorized":
            # every term is an eigenvector of S: f of its local eigenvalues, summed in site order
            sums = np.add.accumulate(group.at(assignment._diagonals, range(n)), axis=0)[-1]
            values.append(group.diagonal((sums / n) ** (n / 2.0)).real)
        else:
            block = _eigenbasis_block(group, powered, bases, lead, width)
            values.append(group.quadratic(block).real)
    return value + float(_mix(values))


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
    # rhs2 first: its eigenbasis route can raise DimensionCap for the full
    # dimension, and lhs and rhs1 cost seconds on such large states.
    # A moment m^(n/2) overflows to inf for large n, and may meet zeros as NaN:
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
