"""Seeded ambiguous instances, built in integers by the benchmark itself.

The construction is the P^4 one: a scene Z of n points in P^4 and two
rank-4 integer projections A', B' to P^3 with kernels a', b'. Then
X = A'Z and Y = B'Z are two world configurations that admit the ambiguous
center pair a = A'b', b = B'a'. Nothing here calls into ``centersvar``, so a
change to the program's own generator cannot change what the solve
workloads receive.

An instance is kept only when every exact genericity condition the solvers
rely on holds: every four points of X (and of Y) span P^3, and no three of
them are coplanar with their center. The second condition means the
projected images have no three collinear points, which implies that the
centers avoid every line through two world points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

Vector = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """Two world configurations with their true ambiguous center pair."""

    x: tuple[Vector, ...]
    y: tuple[Vector, ...]
    a: Vector
    b: Vector


def det(rows) -> int:
    """Integer determinant by cofactor expansion (rows of length <= 4)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * entry * det(minor)
    return total


def canonical(v) -> Vector:
    """Primitive integer vector with a positive first nonzero entry."""
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero vector is not a projective point")
    lead = next(c for c in v if c)
    if lead < 0:
        g = -g
    return tuple(c // g for c in v)


def kernel_4x5(m) -> Vector:
    """Generator of the right kernel of a 4 x 5 integer matrix (zero if rank < 4)."""
    cols = range(5)
    return tuple((-1) ** j * det([[row[c] for c in cols if c != j] for row in m])
                 for j in cols)


def mat_vec(m, v) -> Vector:
    return tuple(sum(r * c for r, c in zip(row, v)) for row in m)


def _rank3(u, v, w) -> bool:
    rows = (u, v, w)
    return any(det([[r[c] for c in cols] for r in rows])
               for cols in combinations(range(5), 3))


def _generic(points, center) -> bool:
    if any(det([points[i] for i in quad]) == 0 for quad in combinations(range(len(points)), 4)):
        return False
    return all(det([points[i] for i in tri] + [center])
               for tri in combinations(range(len(points)), 3))


def make_instance(n: int, bound: int, key: str) -> Instance:
    """The instance for ``key``: deterministic per key, integer entries in [-bound, bound]."""
    rng = random.Random(key)

    def draw(rows: int, cols: int):
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]

    while True:
        amat, bmat = draw(4, 5), draw(4, 5)
        aprime, bprime = kernel_4x5(amat), kernel_4x5(bmat)
        if not any(aprime) or not any(bprime) or canonical(aprime) == canonical(bprime):
            continue
        z = draw(n, 5)
        if not all(_rank3(aprime, bprime, p) for p in z):
            continue
        x = [mat_vec(amat, p) for p in z]
        y = [mat_vec(bmat, p) for p in z]
        a, b = mat_vec(amat, bprime), mat_vec(bmat, aprime)
        if not any(a) or not any(b):
            continue
        if _generic(x, a) and _generic(y, b):
            return Instance(tuple(map(canonical, x)), tuple(map(canonical, y)),
                            canonical(a), canonical(b))
