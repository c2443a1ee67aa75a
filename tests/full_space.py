"""Full-space reference for both conditions, built from their definitions with numpy alone.

For an n-partite state with density matrix rho and one local operator
A_k per site, the three sides are

    lhs  = | tr(rho A_1 x A_2 x ... x A_n) |
    rhs1 = prod_k tr(rho E_k((A_k^dag A_k)^(n/2)))^(1/n)
    rhs2 = tr(rho ((1/n) sum_k E_k(A_k^dag A_k))^(n/2))

where E_k embeds a local operator at site k with np.kron and identities.
Matrix powers come from np.linalg.eigh of the Hermitian part, with the
eigenvalues clamped at zero.  The state is read only through its explicit
product terms (``PureSOP.terms``) and mixture weights, the operators as
plain arrays, and no witnesslab helper is called, so the engine's routes
are checked against code that shares none of their steps.  Every array
is full-space, so keep the dimension small (a few hundred); a state of
dimension over :data:`MAX_DIM` is refused with :class:`FullSpaceTooLarge`
before anything is allocated.

:func:`rhs2` reads rhs2 from the state vectors instead of rho: S's
eigenbasis from np.linalg.eigh, then sum_c w_c |V^dag psi_c|^2 . f(evals)
plus the white-noise weight times the mean of f, which reaches D = 1024.
"""

import math
from functools import reduce

import numpy as np

#: Largest full-space dimension D: a D x D complex matrix of 64 MiB, several of which
#: are alive at once.
MAX_DIM = 2048


class FullSpaceTooLarge(ValueError):
    """A state too large for the full-space reference."""


def _dim(dims) -> int:
    """D = prod(dims), refused above :data:`MAX_DIM` before any D x D array exists."""
    dim = math.prod(dims)
    if dim > MAX_DIM:
        raise FullSpaceTooLarge(
            f"full-space reference: D = {dim} over {MAX_DIM}, its D x D matrices would take"
            f" {16 * dim**2 / 2**20:,.0f} MiB each"
        )
    return dim


def state_vector(pure) -> np.ndarray:
    """sum_j a_j |u_j1> x ... x |u_jn> from the explicit product terms."""
    return sum(term.amplitude * reduce(np.kron, term.factors) for term in pure.terms)


def _density_matrix(state) -> np.ndarray:
    """rho of a pure state or of a mixture with an optional white-noise weight."""
    dim = _dim(state.dims)
    pures = getattr(state, "pures", (state,))
    weights = getattr(state, "weights", (1.0,))
    rho = np.eye(dim, dtype=complex) * getattr(state, "white_noise_weight", 0.0) / dim
    for weight, pure in zip(weights, pures):
        vec = state_vector(pure)
        rho += weight * np.outer(vec, vec.conj())
    return rho


def _embed(op: np.ndarray, site: int, dims) -> np.ndarray:
    left = np.eye(int(np.prod(dims[:site])))
    right = np.eye(int(np.prod(dims[site + 1 :])))
    return np.kron(np.kron(left, op), right)


def _power(mat: np.ndarray, power: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    return (vecs * np.maximum(evals, 0.0) ** power) @ vecs.conj().T


def _expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """tr(rho op)."""
    return complex(np.sum(rho * op.T))


def sides(state, assignment) -> tuple[float, float, float]:
    """(lhs, rhs1, rhs2) of one state and one operator per site."""
    dims = tuple(state.dims)
    n = len(dims)
    rho = _density_matrix(state)
    squares = [op.conj().T @ op for op in assignment.ops]
    lhs = abs(_expectation(rho, reduce(np.kron, assignment.ops)))
    rhs1 = 1.0
    for k, square in enumerate(squares):
        moment = _expectation(rho, _embed(_power(square, n / 2), k, dims)).real
        rhs1 *= max(moment, 0.0) ** (1.0 / n)
    mean = sum(_embed(square, k, dims) for k, square in enumerate(squares)) / n
    rhs2 = _expectation(rho, _power(mean, n / 2)).real
    return float(lhs), float(rhs1), float(rhs2)


def second_moments(state, assignment) -> list[float]:
    """tr(rho E_k(A_k^dag A_k)) for every site k."""
    rho = _density_matrix(state)
    return [
        _expectation(rho, _embed(op.conj().T @ op, k, state.dims)).real
        for k, op in enumerate(assignment.ops)
    ]


def rhs2(state, assignment) -> float:
    """tr(rho f(S)) with f(s) = s^(n/2), from S's eigenbasis and the state vectors."""
    dims = tuple(state.dims)
    n = len(dims)
    _dim(dims)
    squares = [op.conj().T @ op for op in assignment.ops]
    mean = sum(_embed(square, k, dims) for k, square in enumerate(squares)) / n
    evals, vecs = np.linalg.eigh((mean + mean.conj().T) / 2)
    powered = np.maximum(evals, 0.0) ** (n / 2)
    value = getattr(state, "white_noise_weight", 0.0) * powered.mean()
    for weight, pure in zip(getattr(state, "weights", (1.0,)), getattr(state, "pures", (state,))):
        coeffs = vecs.conj().T @ state_vector(pure)
        value += weight * (powered @ (coeffs.real**2 + coeffs.imag**2))
    return float(value)
