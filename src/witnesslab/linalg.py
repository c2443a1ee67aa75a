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

import numpy as np

from .errors import DimensionCap, DimensionMismatch, NegativeSpectrum, NonHermitian

#: Largest full-space dimension the dense paths will materialize.
DIMENSION_CAP = 2**14

#: Largest side of a square matrix the factorized routes build: a pure
#: state's terms x terms pair matrices and a mode's annihilation operator.
#: One complex matrix of that side takes 64 MiB.
MATRIX_SIDE_CAP = 2048

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


def as_operator(op) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatch(f"operator must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator has non-finite entries")
    return mat


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-level system."""
    if not 0 <= index < dim:
        raise DimensionMismatch(f"basis index {index} outside dimension {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def qubit_lowering_op() -> np.ndarray:
    """|0><1| on a single qubit."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def qubit_raising_op() -> np.ndarray:
    """|1><0| on a single qubit."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def annihilation_op(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, a|m> = sqrt(m)|m-1>."""
    if dim < 1:
        raise DimensionMismatch("annihilation operator needs dim >= 1")
    if dim > MATRIX_SIDE_CAP:
        raise DimensionCap(f"annihilation operator dim {dim} exceeds cap {MATRIX_SIDE_CAP}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)).astype(complex), 1)


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


def capped_dimension(dims, what: str) -> int:
    """Full dimension of ``dims``; raises :class:`DimensionCap` above :data:`DIMENSION_CAP`.

    The message writes a size from 10^12 up as ``~10^x``, from ``math.log10``
    of the exact integer, so even 2^1100 is never converted to a float.
    """
    total = total_dimension(dims)
    if total > DIMENSION_CAP:
        size = total if total < 10**12 else f"~10^{math.log10(total):.1f}"
        raise DimensionCap(f"{what} needs full dimension {size} <= cap {DIMENSION_CAP}")
    return total


def kron_embed(op, site: int, dims) -> np.ndarray:
    """Embed a local operator at one site of a multipartite space.

    Returns ``I ⊗ ... ⊗ op ⊗ ... ⊗ I`` with ``op`` at position ``site``
    (site 0 leftmost), always as a new array.  The operator is written
    into the block diagonal of a zeroed ``(left, d, right, left, d,
    right)`` array through a strided view, so no product with an
    identity is formed; the entries equal ``np.kron``'s exactly.  Raises
    :class:`DimensionCap`, before allocating, if the full space exceeds
    :data:`DIMENSION_CAP`.
    """
    dims = tuple(int(d) for d in dims)
    mat = as_operator(op)
    if not 0 <= site < len(dims):
        raise DimensionMismatch(f"site {site} outside {len(dims)} subsystems")
    if mat.shape[0] != dims[site]:
        raise DimensionMismatch(
            f"operator dim {mat.shape[0]} != subsystem dim {dims[site]} at site {site}"
        )
    total = capped_dimension(dims, "kron_embed")
    left = total_dimension(dims[:site])
    right = total_dimension(dims[site + 1 :])
    out = np.zeros((left, dims[site], right) * 2, dtype=complex)
    # out[i, a, j, i, b, j] = op[a, b]: the view is indexed (i, j, a, b)
    np.einsum("iajibj->ijab", out)[...] = mat
    return out.reshape(total, total)


def kron_product(ops) -> np.ndarray:
    """Kronecker product ``ops[0] ⊗ ops[1] ⊗ ...`` with a size guard."""
    mats = [as_operator(op) for op in ops]
    if not mats:
        raise DimensionMismatch("need at least one operator")
    capped_dimension([m.shape[0] for m in mats], "kron_product")
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def psd_eigh(op) -> tuple[np.ndarray, np.ndarray | None]:
    """Clamped spectrum of a Hermitian positive-semidefinite matrix.

    Returns ``(evals, vecs)`` with the eigenvalues clamped at zero
    (round-off from truncated operators routinely produces eigenvalues
    like -1e-15) and the eigenvectors as columns.  An exactly diagonal
    matrix is its own eigendecomposition: its (real) diagonal is
    returned, in diagonal order, with ``vecs=None``.  Eigenvalues below
    ``-DEFAULT_TOL * max(1, spectral radius)`` are treated as genuinely
    negative and raise :class:`NegativeSpectrum`; a Hermiticity defect
    above :data:`DEFAULT_TOL` raises :class:`NonHermitian`.
    """
    mat = as_operator(op)
    diagonal = np.diagonal(mat)
    is_diagonal = np.count_nonzero(mat) == np.count_nonzero(diagonal)
    if is_diagonal:
        # mat - dag(mat) is then diag(2i Im d): the same defect, read off the diagonal
        defect = float(np.max(np.abs(2.0 * diagonal.imag)))
    else:
        defect = float(np.max(np.abs(mat - dag(mat))))
    if defect > DEFAULT_TOL:
        raise NonHermitian(f"Hermiticity defect {defect:.3e} exceeds tol {DEFAULT_TOL:.3e}")
    if is_diagonal:
        evals, vecs = diagonal.real, None
        lowest = float(np.min(evals))
    else:
        evals, vecs = np.linalg.eigh(mat)
        lowest = float(evals[0])
    radius = float(np.max(np.abs(evals)))
    if lowest < -DEFAULT_TOL * max(1.0, radius):
        raise NegativeSpectrum(f"eigenvalue {lowest:.3e} below -tol for tol {DEFAULT_TOL:.3e}")
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
    clamped, vecs = psd_eigh(mat)
    if vecs is None:
        return np.diag((clamped**power).astype(complex))
    return (vecs * clamped**power) @ dag(vecs)
