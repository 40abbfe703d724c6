"""SU(3) defining representation and the induced algebra on R^8.

Module-level constants:

``LAMBDA``
    The eight Gell-Mann matrices as a (8, 3, 3) complex array, normalized
    so that Tr(LAMBDA[r] @ LAMBDA[s]) = 2 delta_rs.
``F``, ``D``
    Dense (8, 8, 8) structure-constant tables.  F is totally antisymmetric
    and collects the commutator coefficients, D is totally symmetric and
    collects the anticommutator coefficients:

        [l_r, l_s] = 2i F[r, s, t] l_t
        {l_r, l_s} = (4/3) delta_rs + 2 D[r, s, t] l_t

Both tables are generated from the independent nonzero components by
explicit (anti)symmetrization, so every permutation is populated.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import NotSpecialUnitary

SQRT3 = np.sqrt(3.0)

LAMBDA = np.zeros((8, 3, 3), dtype=complex)
LAMBDA[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
LAMBDA[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
LAMBDA[2] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
LAMBDA[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
LAMBDA[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
LAMBDA[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
LAMBDA[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
LAMBDA[7] = np.diag([1, 1, -2]) / SQRT3

# Independent nonzero components, 1-based indices.
_F_INDEPENDENT = {
    (1, 2, 3): 1.0,
    (4, 5, 8): SQRT3 / 2,
    (6, 7, 8): SQRT3 / 2,
    (1, 4, 7): 0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (5, 1, 6): 0.5,
    (6, 3, 7): 0.5,
}

_D_INDEPENDENT = {
    (1, 1, 8): 1 / SQRT3,
    (2, 2, 8): 1 / SQRT3,
    (3, 3, 8): 1 / SQRT3,
    (8, 8, 8): -1 / SQRT3,
    (4, 4, 8): -1 / (2 * SQRT3),
    (5, 5, 8): -1 / (2 * SQRT3),
    (6, 6, 8): -1 / (2 * SQRT3),
    (7, 7, 8): -1 / (2 * SQRT3),
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
}

_PARITY = (1, -1, -1, 1, 1, -1)
# the signs of permutations(range(3)), which yields 012, 021, 102, 120, 201, 210


def _filled(independent, signs):
    """(8, 8, 8) table holding each independent component at every permutation
    of its indices, times that permutation's entry of signs."""
    table = np.zeros((8, 8, 8))
    for idx, value in independent.items():
        idx0 = tuple(i - 1 for i in idx)
        for perm, sign in zip(permutations(range(3)), signs):
            table[tuple(idx0[p] for p in perm)] = sign * value
    return table


F = _filled(_F_INDEPENDENT, _PARITY)
D = _filled(_D_INDEPENDENT, (1,) * 6)


def wedge(a, b):
    """Antisymmetric product (a ^ b)_r = F_rst a_s b_t.

    Both arguments may carry leading batch dimensions.
    """
    return np.einsum("rst,...s,...t->...r", F, a, b)


def star(a, b):
    """Symmetric product (a * b)_r = sqrt(3) D_rst a_s b_t.

    Both arguments may carry leading batch dimensions.
    """
    return SQRT3 * np.einsum("rst,...s,...t->...r", D, a, b)


def assert_special_unitary(matrix):
    """Raise NotSpecialUnitary unless A is unitary with det A = 1 within 1e-12."""
    a = np.asarray(matrix, dtype=complex)
    # tested first: A^dag A would take inf * 0, and det would warn on a NaN
    if not np.isfinite(a).all():
        raise NotSpecialUnitary("matrix has a non-finite entry")
    unitarity = np.abs(a.conj().T @ a - np.eye(3)).max()
    worst = max(unitarity, abs(np.linalg.det(a) - 1.0))
    if not (worst <= 1e-12):
        raise NotSpecialUnitary(f"max deviation from SU(3) is {worst:.3e}")


def adjoint_of(matrix):
    """Adjoint image D(A)_rs = Tr(l_r A l_s A^dag) / 2 of a special unitary A.

    The result is the real orthogonal 8x8 matrix that rotates eight-vectors
    the same way conjugation by A rotates l-expansions, and the map is a
    homomorphism: adjoint_of(A2 @ A1) = adjoint_of(A2) @ adjoint_of(A1).
    """
    a = np.asarray(matrix, dtype=complex)
    assert_special_unitary(a)
    adj = 0.5 * np.einsum("rij,jk,skl,il->rs", LAMBDA, a, LAMBDA, a.conj())
    return adj.real


def as_generator(seed):
    """A numpy Generator for a seed, or the Generator itself when given one."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_special_unitary(seed):
    """Haar-distributed SU(3) element for a seed (or an existing Generator).

    QR of a complex Gaussian matrix with the usual phase fix gives a Haar
    unitary; a final global phase brings the determinant to +1.
    """
    rng = as_generator(seed)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)
