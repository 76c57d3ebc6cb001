"""Exact projective arithmetic: points, brackets, cameras, homographies.

Points are stored in canonical form (primitive integer vector, first nonzero
entry positive), which turns projective equality into tuple equality and
makes every bracket an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
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
    """Primitive integer vector with positive first nonzero entry; ints and
    Fractions are read as they are, in integer arithmetic."""
    fracs = [c if isinstance(c, (int, Fraction)) else _to_fraction(c) for c in coords]
    if all(f == 0 for f in fracs):
        raise InvalidInput("projective point must have a nonzero coordinate")
    denom_lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
    """An ordered, labelled tuple of points sharing one ambient P^d."""

    points: tuple[ProjectivePoint, ...]

    def __init__(self, points: Iterable):
        pts = tuple(p if isinstance(p, ProjectivePoint) else ProjectivePoint(p) for p in points)
        if not pts:
            raise InvalidInput("configuration needs at least one point")
        d = pts[0].dim
        if any(p.dim != d for p in pts):
            raise InvalidInput("all points must share the ambient dimension")
        object.__setattr__(self, "points", pts)

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

    def drop(self, i: int) -> "Configuration":
        """Leave-one-out subconfiguration, preserving the order of the rest."""
        return Configuration(self.points[:i] + self.points[i + 1:])

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
    return ProjectivePoint([sum(r * c for r, c in zip(row, x.coords)) for row in m])


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


@dataclass(frozen=True)
class CameraMatrix:
    """Full-rank d x (d+1) matrix; its kernel is the camera center."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(_to_fraction(x) for x in row) for row in entries)
        d = len(rows)
        if any(len(r) != d + 1 for r in rows):
            raise InvalidInput("camera matrix must be d x (d+1)")
        if linalg.rank(rows) != d:
            raise InvalidInput("camera matrix must have full rank")
        object.__setattr__(self, "entries", rows)

    @property
    def center(self) -> ProjectivePoint:
        (kernel,) = linalg.kernel_basis(self.entries)
        return ProjectivePoint(kernel)

    def apply(self, x: ProjectivePoint) -> ProjectivePoint:
        v = linalg.mat_vec(self.entries, x.fractions())
        if all(c == 0 for c in v):
            raise CenterHit("point coincides with the camera center")
        return ProjectivePoint(v)


def canonical_camera(a: ProjectivePoint) -> CameraMatrix:
    """The camera realizing ``project(., a)`` as a matrix."""
    d = a.dim
    k = d if a[d] != 0 else next(i for i in range(d + 1) if a[i] != 0)
    rows = []
    for j in range(d + 1):
        if j == k:
            continue
        row = [Fraction(0)] * (d + 1)
        row[j] = Fraction(a[k])
        row[k] = Fraction(-a[j])
        rows.append(row)
    return CameraMatrix(rows)


def frame_matrix(points: Sequence[ProjectivePoint]) -> list[list[Fraction]]:
    """Matrix sending the standard frame e_1, ..., e_{d+1}, (1:...:1) to the
    given d+2 points of P^d. Raises DegenerateInput unless the points are in
    general position."""
    d = points[0].dim
    if len(points) != d + 2:
        raise InvalidInput(f"a frame of P^{d} needs {d + 2} points")
    base = [[Fraction(p[i]) for p in points[: d + 1]] for i in range(d + 1)]
    scales = linalg.solve(base, points[d + 1].fractions())
    if scales is None or any(s == 0 for s in scales):
        raise DegenerateInput("points do not form a projective frame")
    return [[base[i][j] * scales[j] for j in range(d + 1)] for i in range(d + 1)]


def normalizing_transform(points: Sequence[ProjectivePoint]) -> list[list[Fraction]]:
    """Inverse frame matrix: maps the given d+2 points onto the standard frame."""
    inv = linalg.inverse(frame_matrix(points))
    assert inv is not None
    return inv


def _minors_vanish(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """True iff the 2 x k matrix [u; v] has rank <= 1."""
    return all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2))


def homography_fit(p: Configuration, q: Configuration) -> list[list[Fraction]] | None:
    """Exact homography H with H p_i = q_i (projectively) for all i, or None.

    Solves the linear conditions from the first four correspondences and
    verifies the remaining points by 2 x 2 minor vanishing. The first four
    points of p must be in general position.
    """
    if p.ambient_dim != 2 or q.ambient_dim != 2:
        raise InvalidInput("homography_fit works on plane configurations")
    if p.n != q.n:
        raise InvalidInput("configurations must have equal length")
    if p.n < 4:
        raise InvalidInput("need at least four correspondences")
    try:
        fp = frame_matrix(p.points[:4])
    except DegenerateInput:
        raise DegenerateInput("leading quadruple of the first configuration is degenerate")
    try:
        fq = frame_matrix(q.points[:4])
    except DegenerateInput:
        return None
    fp_inv = linalg.inverse(fp)
    assert fp_inv is not None
    h = linalg.mat_mul(fq, fp_inv)
    for pi, qi in zip(p.points, q.points):
        if not _minors_vanish(linalg.mat_vec(h, pi.fractions()), qi.fractions()):
            return None
    return h


def collinear(a: ProjectivePoint, b: ProjectivePoint, c: ProjectivePoint) -> bool:
    """True iff the three points lie on a common line (any ambient P^d): every
    3 x 3 minor of their coordinate rows vanishes."""
    rows = (a.coords, b.coords, c.coords)
    return all(_det3([[row[m] for m in cols] for row in rows]) == 0
               for cols in combinations(range(len(a.coords)), 3))


def on_line(x: ProjectivePoint, p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """True iff x lies on the line spanned by the distinct points p, q."""
    return collinear(x, p, q)


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
        count = sum(1 for p in points if on_line(p, points[i], points[j]))
        best = max(best, count)
    return best


def stability_class(p: Configuration, n: int | None = None) -> StabilityClass:
    """GIT stability of n labelled plane points, by the exact geometric criteria.

    n = 5: (semi)stable iff the points are distinct and at most 3 collinear.
    n = 6: semistable iff at most 2 coincide and at most 4 collinear;
           stable iff distinct and at most 3 collinear.
    n = 7: (semi)stable iff at most 2 coincide and at most 4 collinear.
    """
    n = p.n if n is None else n
    if n != p.n or p.ambient_dim != 2 or n not in (5, 6, 7):
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
    ("ExactWitness" or "InvariantSeparation"), ``witness`` the homography."""

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

    Prefers the witness-homography route, which is decisive whenever some
    four corresponding points are in general position; stable five- and
    six-point configurations can also be separated by their invariants.
    Seven-point invariant agreement alone is never accepted as a proof of
    equivalence (configurations on conics share the all-ones direction).
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
        if n in (5, 6) and stability_class(p) == stability_class(q) == StabilityClass.STABLE:
            return Equivalence(True, "InvariantSeparation")
    raise Inconclusive("neither a witness nor invariant separation is available")


def center_admissible(x: Configuration, a: ProjectivePoint, n: int | None = None,
                      mode: str = "Moduli") -> bool:
    """Whether a avoids the indeterminacy locus of the projection-to-moduli map.

    Moduli mode: the locus is the point set itself for n >= 6, and all lines
    through point pairs for n = 5. Goepel mode (n = 7 only): all such lines.
    """
    n = x.n if n is None else n
    if n != x.n:
        raise InvalidInput("n does not match the configuration")
    if mode not in ("Moduli", "Goepel"):
        raise InvalidInput(f"unknown admissibility mode {mode!r}")
    if mode == "Goepel" and n != 7:
        raise InvalidInput("Goepel admissibility only applies to n = 7")
    lines = (mode == "Goepel") or n == 5
    if not lines:
        return a not in x.points
    if a in x.points:
        return False
    for i, j in combinations(range(n), 2):
        if x[i] != x[j] and on_line(a, x[i], x[j]):
            return False
    return True


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
