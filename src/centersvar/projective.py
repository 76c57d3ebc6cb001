"""Exact projective arithmetic: points, brackets, projections, homographies.

Points are stored in canonical form (primitive integer vector, first nonzero
entry positive), which turns projective equality into tuple equality and
makes every bracket an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .errors import CenterHit, DegenerateInput, Inconclusive, InvalidInput

Scalar = int | Fraction


def _to_fraction(x) -> Fraction:
    if isinstance(x, str):
        if "/" in x:
            num, den = x.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(x))
    return Fraction(x)


def canonical_coords(coords: Iterable) -> tuple[int, ...]:
    """Primitive integer vector with positive first nonzero entry.

    Plain ints take one pass: their gcd g, signed by the first nonzero entry,
    and one exact division by it unless g = 1. Any other coordinate (a
    Fraction, a "p/q" string, a float) first brings all of them to integers
    over the lcm of their denominators."""
    ints = coords if type(coords) is tuple else tuple(coords)
    if not all(type(c) is int for c in ints):
        fracs = [c if isinstance(c, (int, Fraction)) else _to_fraction(c) for c in ints]
        denom_lcm = math.lcm(*(f.denominator for f in fracs))
        ints = tuple(f.numerator * (denom_lcm // f.denominator) for f in fracs)
    g = math.gcd(*ints)
    if not g:
        raise InvalidInput("projective point must have a nonzero coordinate")
    if next(v for v in ints if v) < 0:
        g = -g
    return ints if g == 1 else tuple(v // g for v in ints)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^d, canonically scaled. Equality is projective equality."""

    coords: tuple[int, ...]

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", canonical_coords(coords))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def pp(*coords) -> ProjectivePoint:
    """Convenience constructor: ``pp(1, 0, 0, 0)``."""
    return ProjectivePoint(coords)


@dataclass(frozen=True)
class Configuration:
    """An ordered, labelled tuple of points sharing one ambient P^d.

    In P^3 it also holds derived data of its points, built when first read
    and kept out of ``__eq__``, ``__hash__`` and ``repr``: the cofactor
    vector of each index triple (``cofactors_of``), shared with every subset
    taken by ``subset`` or ``drop``, and the frame a resection reads
    (``resection_frame``).
    """

    points: tuple[ProjectivePoint, ...]

    def __init__(self, points: Iterable):
        pts = tuple(p if isinstance(p, ProjectivePoint) else ProjectivePoint(p) for p in points)
        if not pts:
            raise InvalidInput("configuration needs at least one point")
        d = pts[0].dim
        if any(p.dim != d for p in pts):
            raise InvalidInput("all points must share the ambient dimension")
        object.__setattr__(self, "points", pts)
        # the cofactor table of the set this one was taken from, keyed by
        # triples of its indices, and the map from this set's indices to those
        object.__setattr__(self, "_table", ({}, pts))
        object.__setattr__(self, "_index", range(len(pts)))

    @property
    def ambient_dim(self) -> int:
        return self.points[0].dim

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> ProjectivePoint:
        return self.points[i]

    def subset(self, indices: Sequence[int]) -> "Configuration":
        """The points at the given indices, in that order. The subset reads
        this set's cofactor vectors through its index map, so it builds
        none that this set has built."""
        sub = Configuration([self.points[i] for i in indices])
        object.__setattr__(sub, "_table", self._table)
        object.__setattr__(sub, "_index", tuple(self._index[i] for i in indices))
        return sub

    def drop(self, i: int) -> "Configuration":
        """Leave-one-out subconfiguration, preserving the order of the rest."""
        return self.subset([j for j in range(len(self.points)) if j != i])

    def cofactors_of(self, i: int, j: int, k: int) -> tuple[int, ...]:
        """``cofactors(p_i, p_j, p_k)`` of points of P^3: the integer vector c
        with c . z = [p_i p_j p_k z]. Each triple is built once per point set,
        when first read; consumers read increasing triples, so an unordered
        triple is built once."""
        idx = self._index
        key = (idx[i], idx[j], idx[k])
        table, pts = self._table
        c = table.get(key)
        if c is None:
            c = table[key] = cofactors(pts[key[0]].coords, pts[key[1]].coords, pts[key[2]].coords)
        return c

    @cached_property
    def resection_frame(self) -> tuple[tuple[int, ...], list[tuple[int, list[int]]]] | None:
        """(f, weights) for points y of P^3, or None when they lie in a plane.

        f is the first 4-subset of indices, in combinations order, with a
        nonzero bracket; weights lists (j, [w_k . y_j for each k]) for every j
        outside the frame, w_k the cofactor vector of the frame points other
        than y_{f_k}, which vanishes on them and not on y_{f_k}.
        """
        ys = [p.coords for p in self.points]
        frame = next((f for f in combinations(range(len(ys)), 4)
                      if sum(map(mul, self.cofactors_of(*f[:3]), ys[f[3]]))), None)
        if frame is None:
            return None
        w = [self.cofactors_of(*(g for g in frame if g != f)) for f in frame]
        return frame, [(j, [sum(map(mul, wk, yj)) for wk in w])
                       for j, yj in enumerate(ys) if j not in frame]

    def coordinate_matrix(self) -> list[list[int]]:
        """(d+1) x n matrix whose columns are the canonical points."""
        return [[p[i] for p in self.points] for i in range(self.ambient_dim + 1)]

    def transformed(self, m: Sequence[Sequence]) -> "Configuration":
        return Configuration(apply_matrix(m, p) for p in self.points)

    def __repr__(self) -> str:
        return f"Configuration(P^{self.ambient_dim}, {list(self.points)})"


class StabilityClass(Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


def _det3(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3 x 3 matrix, expanded along its first row in 2 x 2 minors."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cofactors(p: Sequence[int], q: Sequence[int], r: Sequence[int]) -> tuple[int, ...]:
    """The vector c with c . z = det(p, q, r, z) for every z in four coordinates.

    c_m is the signed 3 x 3 minor of the rows p, q, r with column m deleted
    (Laplace expansion of the 4 x 4 determinant along its last row); each
    minor expands along r in the 2 x 2 minors m_ij of p and q.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    r0, r1, r2, r3 = r
    m01, m02, m03 = p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p0 * q3 - p3 * q0
    m12, m13, m23 = p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p2 * q3 - p3 * q2
    return (-(r1 * m23 - r2 * m13 + r3 * m12), r0 * m23 - r2 * m03 + r3 * m02,
            -(r0 * m13 - r1 * m03 + r3 * m01), r0 * m12 - r1 * m02 + r2 * m01)


def cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    """u x v, the w with w . z = det(u, v, z); zero iff u and v are proportional."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def outer_sum(weights: Sequence[int], columns: Sequence[Sequence[int]],
              rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """sum_j weights[j] columns[j] rows[j]^T in integers: for rows dual to a
    frame f (rows[j] . f_k = 0 for k != j), a map sending f_j to columns[j]."""
    return [[sum(w * t[r] * u[c] for w, t, u in zip(weights, columns, rows))
             for c in range(len(rows[0]))] for r in range(len(columns[0]))]


def bracket(points: Sequence[ProjectivePoint]) -> int:
    """Determinant of the canonical coordinate rows of k points in P^{k-1}.

    The basic SL-invariant; multilinear and alternating in its arguments.
    Plane and space brackets expand in integer minors.
    """
    k = len(points)
    if any(p.dim != k - 1 for p in points):
        raise InvalidInput(f"bracket of {k} points needs ambient dimension {k - 1}")
    rows = [p.coords for p in points]
    if k == 3:
        return _det3(rows)
    if k == 4:
        return sum(c * v for c, v in zip(cofactors(*rows[:3]), rows[3]))
    return int(linalg.det(rows))


def apply_matrix(m: Sequence[Sequence], x: ProjectivePoint) -> ProjectivePoint:
    """Image of x under the linear map with matrix m (rows act on coords);
    int and Fraction entries are multiplied as they are."""
    if len(m[0]) != len(x.coords):
        raise ValueError("shape mismatch in apply_matrix")
    return ProjectivePoint([sum(map(mul, row, x.coords)) for row in m])


def project(x: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
    """Project x from center a, one dimension down.

    The canonical camera intersects the line through a and x with the chart
    where the last coordinate vanishes and drops that coordinate; if the
    last coordinate of a is zero it falls back to the first chart x_k = 0
    with a_k != 0. Deterministic for fixed a.
    """
    if x == a:
        raise CenterHit("cannot project a point from itself")
    d = a.dim
    if x.dim != d:
        raise InvalidInput("point and center must share the ambient space")
    k = d if a[d] != 0 else next(i for i in range(d + 1) if a[i] != 0)
    image = [a[k] * x[j] - x[k] * a[j] for j in range(d + 1) if j != k]
    return ProjectivePoint(image)


def _frame_weights(points: Sequence[ProjectivePoint]) -> tuple[int, list[int]]:
    """(D, c) for d + 2 points of P^d: the brackets D = [p_0 ... p_d] and c_j,
    D with p_j replaced by p_{d+1}, so p_{d+1} = sum_j (c_j / D) p_j (Cramer).
    Raises DegenerateInput unless D and every c_j are nonzero (a frame)."""
    d = points[0].dim
    if len(points) != d + 2:
        raise InvalidInput(f"a frame of P^{d} needs {d + 2} points")
    base, last = list(points[: d + 1]), points[d + 1]
    weights = [bracket(base[:j] + [last] + base[j + 1:]) for j in range(d + 1)]
    denominator = bracket(base)
    if denominator == 0 or 0 in weights:
        raise DegenerateInput("points do not form a projective frame")
    return denominator, weights


def normalizing_transform(points: Sequence[ProjectivePoint]) -> list[list[int]]:
    """Integer matrix mapping five points of P^3 onto the standard frame
    e_1, ..., e_4, (1:1:1:1): the inverse of the frame matrix (column j is
    p_j c_j / D, see _frame_weights) times prod_j c_j. Row i is the cofactor
    vector pi_i of the frame points other than p_i, with pi_i . p_i =
    (-1)^(3-i) D, times (-1)^(3-i) prod_{j != i} c_j. Raises DegenerateInput
    unless the points form a frame."""
    _, weights = _frame_weights(points)
    base = [p.coords for p in points[:4]]
    return [[(-1) ** (3 - i) * math.prod(weights[:i] + weights[i + 1:]) * v
             for v in cofactors(*(base[:i] + base[i + 1:]))] for i in range(4)]


def homography_fit(p: Configuration, q: Configuration) -> list[list[Fraction]] | None:
    """Exact homography H with H p_i = q_i (projectively) for all i, or None.

    H = B_q diag(c^q_j / (D_q c^p_j)) adj(B_p), with B the first three points
    as columns and (D, c) the frame weights of the first four, is built in
    integers over one denominator, and each correspondence is checked by an
    integer cross product. The integer weights c^q_j c^p_{j-1} c^p_{j-2} are
    divided by their gcd g first, which only rescales H, and g goes back into
    the numerators of the returned Fractions. No weight is zero, so H is
    invertible. The first four points of p must be in general position.
    """
    if p.ambient_dim != 2 or q.ambient_dim != 2:
        raise InvalidInput("homography_fit works on plane configurations")
    if p.n != q.n:
        raise InvalidInput("configurations must have equal length")
    if p.n < 4:
        raise InvalidInput("need at least four correspondences")
    try:
        dp, cp = _frame_weights(p.points[:4])
    except DegenerateInput:
        raise DegenerateInput("leading quadruple of the first configuration is degenerate")
    try:
        dq, cq = _frame_weights(q.points[:4])
    except DegenerateInput:
        return None
    bp = [pt.coords for pt in p.points[:3]]
    weights = [cq[j] * cp[j - 1] * cp[j - 2] for j in range(3)]
    g = math.gcd(*weights)
    h = outer_sum([v // g for v in weights], [pt.coords for pt in q.points[:3]],
                  [cross(bp[j - 2], bp[j - 1]) for j in range(3)])
    if any(any(cross([sum(map(mul, row, pi.coords)) for row in h], qi.coords))
           for pi, qi in zip(p.points, q.points)):
        return None
    denominator = dq * cp[0] * cp[1] * cp[2]
    return [[Fraction(v * g, denominator) for v in row] for row in h]


def collinear(a: ProjectivePoint, b: ProjectivePoint, c: ProjectivePoint) -> bool:
    """True iff the three points lie on a common line (any ambient P^d): every
    3 x 3 minor of their coordinate rows vanishes."""
    rows = (a.coords, b.coords, c.coords)
    return all(_det3([[row[m] for m in cols] for row in rows]) == 0
               for cols in combinations(range(len(a.coords)), 3))


def _max_coincidence(points: Sequence[ProjectivePoint]) -> int:
    counts: dict[tuple[int, ...], int] = {}
    for p in points:
        counts[p.coords] = counts.get(p.coords, 0) + 1
    return max(counts.values())


def _max_collinear(points: Sequence[ProjectivePoint]) -> int:
    """Largest number of points (with multiplicity) on one line."""
    best = _max_coincidence(points)
    for i, j in combinations(range(len(points)), 2):
        if points[i] == points[j]:
            continue
        count = sum(1 for p in points if collinear(p, points[i], points[j]))
        best = max(best, count)
    return best


def stability_class(p: Configuration) -> StabilityClass:
    """GIT stability of n labelled plane points, by the exact geometric criteria.

    n = 5: (semi)stable iff the points are distinct and at most 3 collinear.
    n = 6: semistable iff at most 2 coincide and at most 4 collinear;
           stable iff distinct and at most 3 collinear.
    n = 7: (semi)stable iff at most 2 coincide and at most 4 collinear.
    """
    n = p.n
    if p.ambient_dim != 2 or n not in (5, 6, 7):
        raise InvalidInput("stability_class supports 5, 6 or 7 plane points")
    coincide = _max_coincidence(p.points)
    in_line = _max_collinear(p.points)
    if n == 5:
        return StabilityClass.STABLE if coincide == 1 and in_line <= 3 else StabilityClass.UNSTABLE
    if n == 7:
        return StabilityClass.STABLE if coincide <= 2 and in_line <= 4 else StabilityClass.UNSTABLE
    if coincide == 1 and in_line <= 3:
        return StabilityClass.STABLE
    if coincide <= 2 and in_line <= 4:
        return StabilityClass.STRICTLY_SEMISTABLE
    return StabilityClass.UNSTABLE


@dataclass(frozen=True)
class Equivalence:
    """A verdict on two plane configurations: ``certainty`` names the route
    ("ExactWitness" or "InvariantSeparation"), ``witness`` the homography,
    which every True verdict carries."""

    equivalent: bool
    certainty: str
    witness: list[list[Fraction]] | None = None


def no_three_collinear(points: Sequence[ProjectivePoint]) -> bool:
    return not any(collinear(*t) for t in combinations(points, 3))


def _general_quadruple(c: Configuration) -> tuple[int, ...] | None:
    return next((combo for combo in combinations(range(c.n), 4)
                 if no_three_collinear([c[i] for i in combo])), None)


def decide_equivalence(p: Configuration, q: Configuration) -> Equivalence:
    """Exact equivalence verdict for two labelled plane configurations.

    The witness-homography route is decisive whenever some four
    corresponding points are in general position (a frame), and it decides
    every True verdict, each with its witness. Without a frame on either
    side, five, six or seven points can still be separated by their
    invariants, whose agreement is never a proof. A STABLE five- or six-point
    set always has a frame: with three of five points on a line L, the other
    two, d and e, and two points of L off the line de form one.
    """
    from .invariants import fano15, g5, t6  # invariants imports this module
    if p.n != q.n:
        raise InvalidInput("configurations must have the same number of points")
    n = p.n
    if n >= 4:
        combo = _general_quadruple(p)
        if combo is not None:
            if not no_three_collinear([q[i] for i in combo]):
                return Equivalence(False, "ExactWitness")
            order = list(combo) + [i for i in range(n) if i not in combo]
            h = homography_fit(Configuration([p[i] for i in order]),
                               Configuration([q[i] for i in order]))
            return Equivalence(h is not None, "ExactWitness", h)
        if _general_quadruple(q) is not None:
            return Equivalence(False, "ExactWitness")
    if n in (5, 6, 7):
        kind = {5: g5, 6: t6, 7: fano15}[n]
        if not kind(p).proportional(kind(q)):
            return Equivalence(False, "InvariantSeparation")
    raise Inconclusive("neither a witness nor invariant separation is available")


def center_admissible(x: Configuration, a: ProjectivePoint, mode: str = "Moduli") -> bool:
    """Whether a avoids the indeterminacy locus of the projection-to-moduli map.

    Moduli mode: the locus is the point set itself for n >= 6, and all lines
    through point pairs for n = 5. Goepel mode (n = 7 only): all such lines.
    """
    if mode not in ("Moduli", "Goepel"):
        raise InvalidInput(f"unknown admissibility mode {mode!r}")
    if mode == "Goepel" and x.n != 7:
        raise InvalidInput("Goepel admissibility only applies to n = 7")
    if a in x.points:
        return False
    return (mode == "Moduli" and x.n != 5) or not any(
        x[i] != x[j] and collinear(a, x[i], x[j]) for i, j in combinations(range(x.n), 2))


def gale_transform(p: Configuration) -> Configuration:
    """Association: the rows of a kernel basis of the coordinate matrix,
    read as n points of P^{n-d-2}.

    The kernel basis is put in reduced column echelon form, so the output is
    deterministic; as a moduli point it does not depend on that choice.
    """
    d, n = p.ambient_dim, p.n
    if n < d + 3:
        raise InvalidInput("gale transform needs n >= d + 3")
    c = p.coordinate_matrix()
    if linalg.rank(c) != d + 1:
        raise DegenerateInput("coordinate matrix must have rank d + 1")
    basis = linalg.kernel_basis(c)  # each vector has length n
    reduced, _ = linalg.rref(basis)  # canonical choice of kernel basis
    by_point = [[reduced[j][i] for j in range(len(reduced))] for i in range(n)]
    if any(all(x == 0 for x in row) for row in by_point):
        raise DegenerateInput("kernel basis has a zero row")
    return Configuration(by_point)
