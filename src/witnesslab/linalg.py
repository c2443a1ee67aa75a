"""Dense complex linear algebra over small multipartite Hilbert spaces.

Conventions used throughout the package:

- kets are 1-D complex ndarrays, local operators are square 2-D complex
  ndarrays;
- subsystems are indexed from 0, and site 0 is the *leftmost* factor in
  every Kronecker product (so ``|e0 e1 ... >`` orders basis labels the same
  way as ``kron``).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionCap, DimensionMismatch, NegativeSpectrum, NonHermitian

#: Largest single array, in bytes, that a family builder or a route allocates
#: (64 MiB): 2^23 label entries, 2048 x 2048 complex, 2^23 floats (rhs2's grid
#: of S's entries at D = 2^23), or 2^22 complex (the eigenbasis rhs2 block of a
#: 2-term component, 2 x 2 terms x D/2, at D = 2^21).
ARRAY_BYTES_CAP = 2**26

#: Tolerance for Hermiticity checks and eigenvalue clamping.
DEFAULT_TOL = 1e-10


def dag(op: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return op.conj().T


def as_ket(vec) -> np.ndarray:
    """Coerce to a finite 1-D complex vector."""
    ket = np.asarray(vec, dtype=complex)
    if ket.ndim != 1 or ket.size == 0:
        raise DimensionMismatch(f"ket must be a nonempty 1-D vector, got shape {ket.shape}")
    if not np.all(np.isfinite(ket)):
        raise ValueError("ket has non-finite amplitudes")
    return ket


def _as_diagonal(diag) -> np.ndarray:
    """Coerce to a finite nonempty 1-D vector, the diagonal of a diagonal operator.

    Real input becomes float and stays real; complex input becomes complex.
    """
    vec = np.asarray(diag)
    vec = vec.astype(complex if np.iscomplexobj(vec) else float, copy=False)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionMismatch(f"diagonal must be a nonempty 1-D vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("operator has non-finite entries")
    return vec


def as_operator(op) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatch(f"operator must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("operator has non-finite entries")
    return mat


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-level system."""
    if not 0 <= index < dim:
        raise DimensionMismatch(f"basis index {index} outside dimension {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


class RowMap(NamedTuple):
    """A local operator with at most one nonzero per row, ``A = sum_i w_i |i><c_i|``.

    ``cols`` holds c_i and ``weights`` (complex) w_i for every row i; a
    row with no nonzero has weight 0 at column 0.  The arrays are read-only.
    """

    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, cols, weights) -> "RowMap":
        rows = cls(np.array(cols, dtype=np.int64), np.array(weights, dtype=complex))
        for array in rows:
            array.flags.writeable = False
        return rows

    def checked(self) -> "CheckedRowMap":
        """Read-only copies of this row map, which needs d >= 1 integer columns in [0, d)
        and d finite weights; :func:`as_operator`'s errors refuse any other."""
        if (kind := np.asarray(self.cols).dtype.kind) not in "iu":
            raise DimensionMismatch(f"row map columns must be integers in [0, d), got {kind!r}")
        cols, weights = rows = CheckedRowMap.build(self.cols, self.weights)  # the only copies
        if cols.ndim != 1 or cols.shape != weights.shape or cols.size == 0:
            shapes = f"got {cols.shape} and {weights.shape}"
            raise DimensionMismatch(f"row map needs d >= 1 columns and as many weights, {shapes}")
        if cols.view(np.uint64).max() >= cols.size:  # as unsigned, a negative one is past d
            raise DimensionMismatch(f"row map columns must be integers in [0, {cols.size})")
        if not np.isfinite(weights).all():
            raise ValueError("operator has non-finite entries")
        return rows

    @classmethod
    def of(cls, mat: np.ndarray) -> "RowMap | None":
        """The row map of a square matrix, or None when a row has two nonzeros."""
        # more nonzeros than rows rules out one per row, without the per-row count
        if np.count_nonzero(mat) > len(mat):
            return None
        nonzero = mat != 0
        if np.any(nonzero.sum(axis=1) > 1):
            return None
        cols = nonzero.argmax(axis=1)
        return cls.build(cols, mat[np.arange(len(mat)), cols])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cols), len(self.cols))

    def square(self) -> np.ndarray:
        """A^dag A, which is diagonal: ``|w_i|^2`` summed into column c_i, in row order."""
        weights = self.weights
        return np.bincount(self.cols, weights.real**2 + weights.imag**2, len(self.cols))

    def trace(self) -> complex:
        """``sum_i w_i [c_i = i]``, summed as numpy sums A's diagonal."""
        return np.where(self.cols == np.arange(len(self.cols)), self.weights, 0j).sum()

    def dense(self) -> np.ndarray:
        """The d x d matrix, a new array."""
        mat = np.zeros(self.shape, dtype=complex)
        mat[np.arange(len(self.cols)), self.cols] = self.weights
        return mat


class CheckedRowMap(RowMap):
    """A valid :class:`RowMap` whose read-only arrays are its own: what :meth:`RowMap.checked`
    returns and the named operators' builders make, so it needs no second check."""

    __slots__ = ()


def qubit_lowering_rows() -> CheckedRowMap:
    """|0><1| on a single qubit."""
    return CheckedRowMap.build([1, 0], [1.0, 0.0])


def qubit_raising_rows() -> CheckedRowMap:
    """|1><0| on a single qubit."""
    return CheckedRowMap.build([0, 0], [0.0, 1.0])


def qubit_lowering_op() -> np.ndarray:
    """|0><1| on a single qubit."""
    return qubit_lowering_rows().dense()


def qubit_raising_op() -> np.ndarray:
    """|1><0| on a single qubit."""
    return qubit_raising_rows().dense()


def check_annihilation_dim(dim: int) -> None:
    """A truncated annihilation operator needs dim >= 1, and its d x d complex matrix
    must fit the budget (:class:`DimensionCap` otherwise)."""
    if dim < 1:
        raise DimensionMismatch("annihilation operator needs dim >= 1")
    check_bytes(dim * dim, 16, f"annihilation operator of dim {dim}:")


def annihilation_rows(dim: int) -> CheckedRowMap:
    """Truncated bosonic annihilation operator as a row map: row m-1 to column m, weight
    sqrt(m); the last row is empty.  Refused like its matrix, before anything is built."""
    check_annihilation_dim(dim)
    weights = np.zeros(dim, dtype=complex)
    weights[:-1] = np.sqrt(np.arange(1, dim, dtype=float))
    return CheckedRowMap.build(np.arange(1, dim + 1) % dim, weights)


def annihilation_op(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, a|m> = sqrt(m)|m-1>."""
    return annihilation_rows(dim).dense()


def matelem(bra, op, ket) -> complex:
    """Matrix element <bra|op|ket>; the bra is conjugated here."""
    bra = as_ket(bra)
    ket = as_ket(ket)
    mat = as_operator(op)
    if mat.shape != (bra.size, ket.size):
        raise DimensionMismatch(
            f"operator {mat.shape} incompatible with <{bra.size}|.|{ket.size}>"
        )
    return complex(np.vdot(bra, mat @ ket))


def total_dimension(dims) -> int:
    return math.prod(int(d) for d in dims)


def check_bytes(entries: int, itemsize: int, what: str) -> None:
    """Raise :class:`DimensionCap` if an array of ``entries`` items of ``itemsize``
    bytes would exceed :data:`ARRAY_BYTES_CAP`; call it before allocating.

    The message is "<what> <entries> entries x <itemsize> B > cap <cap> B",
    with ``entries`` written as ``~10^x`` from 10^12 up.
    """
    if entries * itemsize > ARRAY_BYTES_CAP:
        shown = entries if entries < 10**12 else f"~10^{math.log10(entries):.1f}"
        raise DimensionCap(f"{what} {shown} entries x {itemsize} B > cap {ARRAY_BYTES_CAP} B")


def kron_embed(op, site: int, dims) -> np.ndarray:
    """Embed a local operator at one site of a multipartite space.

    Returns ``I ⊗ ... ⊗ op ⊗ ... ⊗ I`` with ``op`` at position ``site``
    (site 0 leftmost), always as a new array.  The operator is written
    into the block diagonal of a zeroed ``(left, d, right, left, d,
    right)`` array through a strided view, so no product with an
    identity is formed; the entries equal ``np.kron``'s exactly.

    A 1-D ``op`` stands for the diagonal operator it lists: the result is
    then the D entries of the embedded diagonal, ``op`` broadcast over
    ``(left, d, right)``, real for real ``op``, and equal to the diagonal
    of the embedded ``np.diag(op)``.  Raises :class:`DimensionCap`, before
    allocating, if the result exceeds :data:`ARRAY_BYTES_CAP`: D = 2048
    is the largest admitted D x D complex matrix, D = 2^23 the largest
    real diagonal.
    """
    dims = tuple(map(int, dims))
    op = np.asarray(op)
    mat = _as_diagonal(op) if op.ndim == 1 else as_operator(op)
    if not 0 <= site < len(dims):
        raise DimensionMismatch(f"site {site} outside {len(dims)} subsystems")
    if mat.shape[0] != dims[site]:
        raise DimensionMismatch(
            f"operator dim {mat.shape[0]} != subsystem dim {dims[site]} at site {site}"
        )
    total, left, right = math.prod(dims), math.prod(dims[:site]), math.prod(dims[site + 1 :])
    if mat.ndim == 1:
        check_bytes(total, mat.itemsize, "kron_embed: full-space diagonal of")
        out = np.empty((left, dims[site], right), dtype=mat.dtype)
        out[...] = mat[:, None]
        return out.reshape(total)
    check_bytes(total * total, 16, "kron_embed: full-space matrix of")
    out = np.zeros((left, dims[site], right) * 2, dtype=complex)
    # out[i, a, j, i, b, j] = op[a, b]: the view is indexed (i, j, a, b)
    np.einsum("iajibj->ijab", out)[...] = mat
    return out.reshape(total, total)


def psd_eigh(op) -> tuple[np.ndarray, np.ndarray | None]:
    """Clamped spectrum of a Hermitian positive-semidefinite matrix, or of a stack of them.

    ``op`` is one d x d matrix or an (m, d, d) stack; every check below
    applies to each matrix.  Returns ``(evals, vecs)`` with the eigenvalues
    clamped at zero (round-off from truncated operators routinely
    produces eigenvalues like -1e-15) and the eigenvectors as columns.
    When every matrix is exactly diagonal, the (real) diagonals are the
    spectrum, in diagonal order, with ``vecs=None``.  Eigenvalues
    below ``-DEFAULT_TOL * max(1, spectral radius)`` are treated as
    genuinely negative and raise :class:`NegativeSpectrum`; a Hermiticity
    defect above :data:`DEFAULT_TOL` raises :class:`NonHermitian`, and a
    non-finite entry ``ValueError``.
    """
    mat = np.asarray(op, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or mat.shape[-1] == 0:
        raise DimensionMismatch(f"operator must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("operator has non-finite entries")
    diagonal = mat.diagonal(axis1=-2, axis2=-1)
    # more nonzeros than diagonal entries rules out a diagonal matrix without counting them
    nonzero = np.count_nonzero(mat)
    is_diagonal = nonzero <= diagonal.size and nonzero == np.count_nonzero(diagonal)
    if is_diagonal:
        # mat - dag(mat) is then diag(2i Im d): the same defect, read off the diagonal
        defect = 2.0 * float(np.abs(diagonal.imag).max())
    else:
        defect = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if defect > DEFAULT_TOL:
        raise NonHermitian(f"Hermiticity defect {defect:.3e} exceeds tol {DEFAULT_TOL:.3e}")
    evals, vecs = (diagonal.real, None) if is_diagonal else np.linalg.eigh(mat)
    # the floor is at most -DEFAULT_TOL, so only an eigenvalue below that needs the radius
    if evals.min() < -DEFAULT_TOL:
        lowest = evals.min(axis=-1)
        negative = np.ravel(lowest < -DEFAULT_TOL * np.maximum(1.0, np.abs(evals).max(axis=-1)))
        if negative.any():
            first = float(np.ravel(lowest)[negative][0])
            raise NegativeSpectrum(f"eigenvalue {first:.3e} below -tol for tol {DEFAULT_TOL:.3e}")
    return np.maximum(evals, 0.0), vecs


def psd_power(op, power: float) -> np.ndarray:
    """Fractional power of a Hermitian positive-semidefinite matrix.

    Computed spectrally from :func:`psd_eigh`, under its Hermiticity and
    negative-spectrum checks: the clamped eigenvalues are raised to
    ``power``.  An exactly diagonal matrix is raised elementwise.
    """
    mat = as_operator(op)
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power}")
    return spectral_power(psd_eigh(mat), power)


def spectral_power(spectrum, power: float) -> np.ndarray:
    """``V diag(evals^power) V^dag`` from a :func:`psd_eigh` spectrum ``(evals, V)`` of one
    matrix or of a stack, each matrix with the bits it has alone."""
    clamped, vecs = spectrum
    powered = clamped**power
    if vecs is None:
        out = np.zeros(powered.shape + powered.shape[-1:], dtype=complex)
        np.einsum("...ii->...i", out)[...] = powered
        return out
    return (vecs * powered[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
