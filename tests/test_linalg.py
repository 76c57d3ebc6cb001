"""The fraction-free elimination of ``linalg`` against independent references.

The references are a ``Fraction`` Gauss–Jordan elimination and a Laplace
expansion of the determinant. Entries reach 10^30, so an inexact
(truncating) division anywhere in the elimination shows up as a mismatch.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar import linalg

SMALL = st.integers(-3, 3)
BIG = st.integers(-10 ** 30, 10 ** 30)
RATIONAL = st.builds(Fraction, BIG, st.integers(1, 10 ** 30))


def ref_rref(a):
    m = [[Fraction(x) for x in row] for row in a]
    pivots, r = [], 0
    for c in range(len(m[0])):
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_det(a):
    """Laplace expansion along the first row, minors memoized by their columns."""
    n, memo = len(a), {}

    def minor(cols):
        if not cols:
            return Fraction(1)
        if cols not in memo:
            row = a[n - len(cols)]
            memo[cols] = sum((-1) ** k * Fraction(row[c]) * minor(cols[:k] + cols[k + 1:])
                             for k, c in enumerate(cols) if row[c] != 0)
        return memo[cols]

    return Fraction(minor(tuple(range(n))))


def mat_vec(a, v):
    return [sum(Fraction(x) * y for x, y in zip(row, v)) for row in a]


@st.composite
def matrices(draw, square=False):
    n_rows = draw(st.integers(1, 8))
    n_cols = n_rows if square else draw(st.integers(1, 8))
    entry = draw(st.sampled_from([SMALL, BIG, RATIONAL]))
    m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(n_rows):
        how = draw(st.sampled_from(["keep", "keep", "zero", "combination"]))
        if how == "zero":
            m[i] = [0] * n_cols
        elif how == "combination" and i > 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(SMALL), draw(SMALL)
            m[i] = [s * x + t * y for x, y in zip(m[j], m[k])]
    return m


@settings(deadline=None)
@given(matrices())
def test_rref_rank_and_kernel_match_the_reference(a):
    m, pivots = ref_rref(a)
    assert linalg.rref(a) == (m, pivots)
    assert linalg.rank(a) == len(pivots)
    expected = []
    for f in (c for c in range(len(a[0])) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(len(a[0]))]
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        expected.append(v)
    kernel = linalg.kernel_basis(a)
    assert kernel == expected
    for v in kernel:
        assert mat_vec(a, v) == [0] * len(a)
    # the integer kernel: the same vectors, primitive and in ints
    free = [c for c in range(len(a[0])) if c not in pivots]
    integer = linalg.integer_kernel(a)
    assert len(integer) == len(free)
    for v, f, w in zip(integer, free, expected):
        assert all(type(x) is int for x in v) and gcd(*v) == 1
        assert [Fraction(x, v[f]) for x in v] == w


@settings(deadline=None)
@given(matrices(square=True), st.data())
def test_det_solve_and_inverse_match_the_reference(a, data):
    n = len(a)
    d = ref_det(a)
    assert linalg.det(a) == d
    b = data.draw(st.lists(BIG, min_size=n, max_size=n))
    x, inv = linalg.solve(a, b), linalg.inverse(a)
    if d == 0:
        assert x is None and inv is None and linalg.integer_solve(a, b) is None
        return
    numerators, den = linalg.integer_solve(a, b)
    assert all(type(v) is int for v in numerators + [den])
    assert [Fraction(v, den) for v in numerators] == x
    assert x == [row[n] for row in ref_rref([row + [bi] for row, bi in zip(a, b)])[0]]
    assert mat_vec(a, x) == b
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert inv == [row[n:] for row in ref_rref([row + e for row, e in zip(a, identity)])[0]]
    assert [mat_vec(a, col) for col in zip(*inv)] == identity


@settings(deadline=None)
@given(matrices(square=True).filter(lambda a: len(a) >= 2), st.data())
def test_det_changes_sign_under_a_row_swap(a, data):
    i, j = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=2, max_size=2,
                              unique=True))
    swapped = list(a)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert linalg.det(swapped) == -linalg.det(a)


def test_exact_edge_cases():
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert linalg.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    singular = [[1, 2], [2, 4]]
    assert linalg.det(singular) == 0
    assert linalg.solve(singular, [1, 1]) is None
    assert linalg.inverse(singular) is None
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])
