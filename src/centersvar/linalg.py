"""Exact linear algebra over the rationals.

Matrices are lists of lists whose entries are ``int`` or ``fractions.Fraction``;
all routines are exact. ``det``, ``rref``, ``rank``, ``integer_kernel``,
``kernel_basis`` and ``inverse`` rest on one fraction-free Gauss–Jordan pass
(Bareiss 1968, Math. Comp. 22) over integers: each row is scaled to integers
by the lcm of its denominators, and every later entry is a minor of that
integer matrix, so each division by the previous pivot is exact.
``integer_kernel`` reads its integer vectors straight off that pass and
builds no ``Fraction``; ``kernel_basis`` divides the same results out over Q.
Plane maps are not solved for here: they are built in integers from brackets
(``projective.frame_matrix``, ``projective.homography_fit``), and neither is
the 3 x 3 Newton step of the n = 7 certification, which is one cofactor
vector (``numeric.exact_newton_polish``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = Sequence
Matrix = Sequence[Row]


def _eliminate(a: Matrix) -> tuple[list[list[int]], list[int], int, int, int]:
    """Fraction-free Gauss–Jordan elimination of an int/Fraction matrix.

    Returns (m, pivots, d, sign, scale). With S the integer matrix whose row i
    is row i of ``a`` times its lcm of denominators, ``scale`` the product of
    those lcms and ``sign`` the parity of the row swaps, ``m`` is d·RREF(a):
    every pivot entry equals d, the leading principal minor of S (rows in
    pivot order) on the pivot columns. For square, nonsingular ``a``,
    det(a) = sign·d / scale.
    """
    m, scale = [], 1
    for row in a:
        s = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for k in range(r, n_rows):
            if m[k][c]:
                break
        else:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        pivot_row, p = m[r], m[r][c]
        for i in range(n_rows):
            if i != r:
                f = m[i][c]
                # Exact: the result is a minor of the integer matrix (Sylvester).
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, prev, sign, scale


def det(rows: Matrix) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign, scale = _eliminate(rows)
    return Fraction(sign * d, scale) if len(pivots) == n else Fraction(0)


def rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m, pivots, d, _, _ = _eliminate(a)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(a: Matrix) -> int:
    return len(_eliminate(a)[1])


def _kernel(a: Matrix) -> tuple[list[list[int]], int]:
    """(vectors, d): one integer kernel vector per free column f of the
    elimination, with v[f] = d and v[p_r] = -m[r][f] at the pivot columns p_r,
    so that v / d is the kernel vector with entry f equal to 1."""
    m, pivots, d, _, _ = _eliminate(a)
    n_cols = len(a[0])
    vectors = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[f] = d
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        vectors.append(v)
    return vectors, d


def integer_kernel(a: Matrix) -> list[list[int]]:
    """Basis of the right kernel {v : A v = 0} in primitive integer vectors:
    the kernel_basis vectors, each scaled to integers with gcd 1."""
    basis = []
    for v in _kernel(a)[0]:
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column f,
    with entry f equal to 1 and the other free entries 0."""
    vectors, d = _kernel(a)
    return [[Fraction(x, d) for x in v] for v in vectors]


def inverse(a: Matrix) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]
