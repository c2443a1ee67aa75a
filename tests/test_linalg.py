"""Tests for the dense linear-algebra layer."""

import numpy as np
import pytest

from witnesslab.errors import DimensionCap, DimensionMismatch, NegativeSpectrum, NonHermitian
from witnesslab.linalg import (
    annihilation_op,
    as_ket,
    as_operator,
    basis_ket,
    dag,
    kron_embed,
    matelem,
    psd_eigh,
    psd_power,
    qubit_lowering_op,
    qubit_raising_op,
)


def random_psd(dim, rng, radius=1.0):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    out = mat @ dag(mat)
    return radius * out / np.max(np.abs(np.linalg.eigvalsh(out)))


def test_psd_power_identity_fixed_point():
    """Identity is a fixed point of every positive power."""
    np.testing.assert_allclose(psd_power(np.eye(3), 1.5), np.eye(3), atol=1e-14)


def test_psd_power_diagonal():
    """Square root acts entrywise on a diagonal matrix."""
    np.testing.assert_allclose(
        psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_psd_power_projector_fixed_point():
    """Rank-1 projectors are fixed points of fractional powers."""
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    proj = np.outer(vec, vec.conj())
    np.testing.assert_allclose(psd_power(proj, 1.5), proj, atol=1e-12)


@pytest.mark.parametrize("power", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_psd_power_spectrum(power):
    """Eigenvalues of B^p are the eigenvalues of B raised to p."""
    rng = np.random.default_rng(11)
    mat = random_psd(6, rng)
    got = np.sort(np.linalg.eigvalsh(psd_power(mat, power)))
    want = np.sort(np.linalg.eigvalsh(mat)) ** power
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_psd_power_group_property():
    """B^p B^q = B^(p+q) and B^1 = B."""
    rng = np.random.default_rng(23)
    mat = random_psd(5, rng)
    np.testing.assert_allclose(psd_power(mat, 1.0), mat, atol=1e-10)
    np.testing.assert_allclose(
        psd_power(mat, 0.7) @ psd_power(mat, 1.8), psd_power(mat, 2.5), atol=1e-9
    )


def test_psd_power_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        psd_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.5)


def test_psd_power_rejects_negative_spectrum():
    with pytest.raises(NegativeSpectrum):
        psd_power(np.diag([1.0, -0.5]), 1.5)


def test_psd_power_clamps_roundoff_negatives():
    """Eigenvalues like -1e-14 are clamped to zero, not rejected."""
    mat = np.diag([1.0, -1e-14])
    out = psd_power(mat, 1.5)
    assert np.linalg.eigvalsh(out)[0] >= 0.0


def test_matelem_basis_elements():
    """<0| (|0><1|) |1> = 1 and the projector expectation is 1."""
    zero, one = basis_ket(2, 0), basis_ket(2, 1)
    assert matelem(zero, qubit_lowering_op(), one) == pytest.approx(1.0)
    proj = np.outer(one, one.conj())
    assert matelem(one, proj, one) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [0, 1, 5, 10])
def test_matelem_ladder_action(m):
    """<m| a |m+1> = sqrt(m+1) on the truncated annihilation operator."""
    dim = 12
    a = annihilation_op(dim)
    got = matelem(basis_ket(dim, m), a, basis_ket(dim, m + 1))
    assert got == pytest.approx(np.sqrt(m + 1))


def test_matelem_conjugate_symmetry():
    """<u|H|v> = conj(<v|H|u>) for Hermitian H."""
    rng = np.random.default_rng(3)
    herm = random_psd(4, rng)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert matelem(u, herm, v) == pytest.approx(np.conj(matelem(v, herm, u)))


def test_matelem_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matelem(basis_ket(2, 0), np.eye(3), basis_ket(3, 1))


def test_non_contiguous_kets_and_operators_are_accepted():
    """Strided kets and transposed operators are valid input; non-finite ones are not."""
    ket = np.arange(6, dtype=complex)[::2]
    op = (np.arange(9.0) + 1j * np.arange(9.0)[::-1]).reshape(3, 3)
    np.testing.assert_array_equal(as_ket(ket), ket)
    np.testing.assert_array_equal(as_operator(op.T), op.T)
    assert matelem(ket, op.T, ket) == pytest.approx(np.vdot(ket, op.T.copy() @ ket))
    bad = op.copy()
    bad[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValueError):
        as_operator(bad.T)
    with pytest.raises(ValueError):
        as_ket(bad[:, 2])


def test_kron_embed_first_site():
    """|1><1| at site 0 of (2,2) hits |10> and |11> (site 0 leftmost)."""
    proj = np.diag([0.0, 1.0]).astype(complex)
    got = kron_embed(proj, 0, (2, 2))
    np.testing.assert_allclose(got, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-15)


def test_kron_embed_second_site():
    proj = np.diag([0.0, 1.0]).astype(complex)
    got = kron_embed(proj, 1, (2, 2))
    np.testing.assert_allclose(got, np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-15)


@pytest.mark.parametrize("site", [0, 1, 2])
def test_kron_embed_identity(site):
    got = kron_embed(np.eye(2), site, (2, 2, 2))
    np.testing.assert_allclose(got, np.eye(8), atol=1e-15)


def test_kron_embed_distinct_sites_commute():
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    a = kron_embed(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 0, dims)
    b = kron_embed(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1, dims)
    np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)


def test_kron_embed_dimension_cap():
    with pytest.raises(DimensionCap):
        kron_embed(np.eye(2), 0, (2,) * 20)


def test_kron_embed_wrong_local_dim():
    with pytest.raises(DimensionMismatch):
        kron_embed(np.eye(3), 0, (2, 2))


def test_kron_embed_equals_np_kron_reference():
    """Entry for entry the matrix np.kron builds, over dims 1..4 and every site."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        dims = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(1, 5))))
        for site, d in enumerate(dims):
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            left = int(np.prod(dims[:site]))
            right = int(np.prod(dims[site + 1 :]))
            want = np.kron(np.eye(left), np.kron(op, np.eye(right)))
            got = kron_embed(op, site, dims)
            assert got.dtype == complex and got.flags.c_contiguous
            assert np.array_equal(got, want), (dims, site)


def test_kron_embed_returns_a_new_array():
    """Also on a single site, so an in-place sum never writes into the operator."""
    op = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    got = kron_embed(op, 0, (2,))
    got += 1.0
    assert np.array_equal(op, [[1.0, 2.0], [3.0, 4.0]])


def test_kron_embed_checks_the_cap_before_allocating():
    """2^40 complex entries could not be allocated; the cap is checked first.

    The message writes a dimension past the float range (2^1100) in short form.
    """
    for n in (40, 1100):
        with pytest.raises(DimensionCap) as info:
            kron_embed(np.eye(2), 3, (2,) * n)
        assert len(str(info.value)) < 200


def test_psd_eigh_matches_psd_power():
    rng = np.random.default_rng(5)
    mat = random_psd(5, rng, radius=2.0)
    evals, vecs = psd_eigh(mat)
    np.testing.assert_allclose((vecs * evals**1.5) @ dag(vecs), psd_power(mat, 1.5), atol=1e-12)
    diag = np.diag([4.0, 0.0, 9.0]).astype(complex)
    evals, vecs = psd_eigh(diag)
    assert vecs is None
    assert np.array_equal(evals, [4.0, 0.0, 9.0])


def test_psd_eigh_clamps_and_rejects_like_psd_power():
    evals, _ = psd_eigh(np.diag([1.0, -1e-13]))
    assert np.array_equal(evals, [1.0, 0.0])
    with pytest.raises(NegativeSpectrum):
        psd_eigh(np.diag([1.0, -0.5]))
    with pytest.raises(NonHermitian):
        psd_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("imag, raises", [(4e-11, False), (6e-11, True)])
def test_diagonal_hermiticity_defect_is_twice_the_imaginary_part(imag, raises):
    """On a diagonal matrix, mat - mat^dag = 2i Im(diag): tol 1e-10 sits between 8e-11 and 1.2e-10."""
    mat = np.diag([1.0 + 1j * imag, 2.0])
    assert (np.max(np.abs(mat - dag(mat))) > 1e-10) == raises
    for fn in (psd_eigh, lambda m: psd_power(m, 1.5)):
        if raises:
            with pytest.raises(NonHermitian):
                fn(mat)
        else:
            fn(mat)


def test_ladder_operators_are_adjoints():
    np.testing.assert_allclose(dag(qubit_lowering_op()), qubit_raising_op(), atol=1e-15)
    a = annihilation_op(6)
    np.testing.assert_allclose(dag(a) @ a, np.diag(np.arange(6.0)), atol=1e-13)
