import hashlib

import numpy as np
import pytest

from triphase import su3
from triphase.errors import NotSpecialUnitary

SQRT3 = np.sqrt(3.0)


def test_lambda_hermitian_traceless():
    for mat in su3.LAMBDA:
        assert np.abs(mat - mat.conj().T).max() == 0.0
        assert abs(np.trace(mat)) == 0.0


def test_trace_orthonormality():
    gram = np.einsum("rij,sji->rs", su3.LAMBDA, su3.LAMBDA)
    assert np.abs(gram - 2.0 * np.eye(8)).max() < 1e-15


def test_commutators_reproduce_f():
    worst = 0.0
    for r in range(8):
        for s in range(8):
            comm = su3.LAMBDA[r] @ su3.LAMBDA[s] - su3.LAMBDA[s] @ su3.LAMBDA[r]
            recon = 2j * np.einsum("t,tij->ij", su3.F[r, s], su3.LAMBDA)
            worst = max(worst, np.abs(comm - recon).max())
    assert worst < 1e-14


def test_anticommutators_reproduce_d():
    worst = 0.0
    for r in range(8):
        for s in range(8):
            anti = su3.LAMBDA[r] @ su3.LAMBDA[s] + su3.LAMBDA[s] @ su3.LAMBDA[r]
            recon = (4.0 / 3.0) * (r == s) * np.eye(3) + 2.0 * np.einsum(
                "t,tij->ij", su3.D[r, s], su3.LAMBDA
            )
            worst = max(worst, np.abs(anti - recon).max())
    assert worst < 1e-14


def test_f_table_entries():
    # independent components, zero-based indices
    assert su3.F[0, 1, 2] == 1.0
    assert abs(su3.F[3, 4, 7] - SQRT3 / 2) < 1e-16
    assert abs(su3.F[5, 6, 7] - SQRT3 / 2) < 1e-16
    for idx in [(0, 3, 6), (1, 3, 5), (1, 4, 6), (2, 3, 4), (4, 0, 5), (5, 2, 6)]:
        assert su3.F[idx] == 0.5
    # total antisymmetry
    assert np.abs(su3.F + np.swapaxes(su3.F, 0, 1)).max() == 0.0
    assert np.abs(su3.F + np.swapaxes(su3.F, 1, 2)).max() == 0.0


def test_d_table_entries():
    third = 1.0 / SQRT3
    assert abs(su3.D[0, 0, 7] - third) < 1e-16
    assert abs(su3.D[7, 7, 7] + third) < 1e-16
    assert abs(su3.D[3, 3, 7] + third / 2) < 1e-16
    assert su3.D[0, 3, 5] == 0.5
    assert su3.D[1, 3, 6] == -0.5
    assert su3.D[2, 3, 3] == 0.5
    assert su3.D[2, 5, 5] == -0.5
    # total symmetry
    assert np.abs(su3.D - np.swapaxes(su3.D, 0, 1)).max() == 0.0
    assert np.abs(su3.D - np.swapaxes(su3.D, 1, 2)).max() == 0.0


def test_structure_tables_bytes_pinned():
    # every double of F and D, as the tables were first filled
    digests = [hashlib.sha256(table.tobytes()).hexdigest() for table in (su3.F, su3.D)]
    assert digests == [
        "84749aa508c06380c24b60a9b3cca219ec8302cdab222fe174bf9147fde6763e",
        "5632eb65e6664134c8bc301c947dbf8d688a8cc1f58ccb25b6c6018e32f11e6e",
    ]


def test_wedge_star_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 8))
        x, y = rng.standard_normal(2)
        for product in (su3.wedge, su3.star):
            left = product(x * a + y * b, c)
            assert np.abs(left - x * product(a, c) - y * product(b, c)).max() < 1e-12
        assert np.abs(su3.wedge(a, b) + su3.wedge(b, a)).max() < 1e-13
        assert np.abs(su3.star(a, b) - su3.star(b, a)).max() < 1e-13
        assert np.abs(su3.wedge(a, a)).max() < 1e-14


def test_wedge_batch_matches_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 8))
    b = rng.standard_normal((6, 8))
    batched = su3.wedge(a, b)
    for k in range(6):
        assert np.abs(batched[k] - su3.wedge(a[k], b[k])).max() == 0.0


def test_adjoint_is_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = su3.adjoint_of(su3.random_special_unitary(rng))
        assert np.abs(d @ d.T - np.eye(8)).max() < 1e-13
        assert abs(np.linalg.det(d) - 1.0) < 1e-12


def test_adjoint_identity():
    assert np.abs(su3.adjoint_of(np.eye(3)) - np.eye(8)).max() < 1e-15


def test_adjoint_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        first = su3.random_special_unitary(rng)
        second = su3.random_special_unitary(rng)
        err = np.abs(
            su3.adjoint_of(second @ first) - su3.adjoint_of(second) @ su3.adjoint_of(first)
        ).max()
        assert err < 1e-13


def test_adjoint_product_covariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = su3.adjoint_of(su3.random_special_unitary(rng))
        a, b = rng.standard_normal((2, 8))
        assert np.abs(d @ su3.wedge(a, b) - su3.wedge(d @ a, d @ b)).max() < 1e-12
        assert np.abs(d @ su3.star(a, b) - su3.star(d @ a, d @ b)).max() < 1e-12


def test_random_special_unitary_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = su3.random_special_unitary(rng)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(u) - 1.0) < 1e-13
        su3.assert_special_unitary(u)


def test_random_special_unitary_seeded():
    assert np.array_equal(su3.random_special_unitary(42), su3.random_special_unitary(42))


def test_assert_special_unitary_rejects():
    one_nan = np.eye(3, dtype=complex)
    one_nan[1, 2] = np.nan
    nan = np.full((3, 3), np.nan)
    # an inf entry must not first warn that A^dag A took inf * 0
    one_inf = np.eye(3, dtype=complex)
    one_inf[0, 0] = np.inf
    inf = np.full((3, 3), np.inf)
    for matrix in (np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), nan, one_nan, inf, one_inf):
        with pytest.raises(NotSpecialUnitary):
            su3.assert_special_unitary(matrix)
        with pytest.raises(NotSpecialUnitary):
            su3.adjoint_of(matrix)
