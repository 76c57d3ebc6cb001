"""Centers-variety computations, case by case in the number of points.

For two n-tuples in P^3, the locus of camera-center pairs (a, b) producing
projectively equivalent images is

* all of P^3 x P^3 for n <= 4 (a witness homography always exists),
* a fibration by twisted cubics for n = 5 (fixing a, the b-locus is the
  unique twisted cubic through the five world points and a),
* a surface for n = 6: each center is confined to a quadric and the two
  quadrics are in exact birational correspondence; b is the center of the
  camera that linear resection finds from the correspondences
  y_i -> project(x_i, a),
* three isolated pairs for n = 7,
* generically empty for n >= 8 (a common zero of the windows' quadrics,
  resected over all n points).

Everything through n = 6 and every n >= 8 verdict is exact over the rationals;
n = 7 uses the numeric quadric-system kernel with exact certification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (AmbiguousMatch, DegenerateCurve, DegenerateInput,
                     InadmissibleCenter, Inconclusive, Inconsistent,
                     InvalidInput, NoRationalImage, ToolkitError)
from .forms import (BinaryForm, Form, binary_gcd, linear_root, monomial_index,
                    monomials, mono_eval, quad_from_sym)
from .invariants import EVEN_FANO_PERMS, FANO_LINES, lifted_quadrics, t6_lifted
from .numeric import (NumericPoint, certify_rational, projective_distance,
                      solve_quadric_system)
from .projective import (Configuration, ProjectivePoint, apply_matrix,
                         canonical_coords, center_admissible, homography_fit,
                         no_three_collinear, normalizing_transform, on_line,
                         project)


@dataclass(frozen=True)
class QuadricSurface:
    """A quadric surface in P^3, stored as a symmetric matrix S up to scale
    together with its quadratic form z^T S z."""

    sym: tuple[tuple[Fraction, ...], ...]
    form: Form

    def __init__(self, sym: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in sym)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise InvalidInput("quadric surface needs a 4 x 4 matrix")
        if any(rows[i][j] != rows[j][i] for i in range(4) for j in range(4)):
            raise InvalidInput("quadric surface matrix must be symmetric")
        object.__setattr__(self, "sym", rows)
        object.__setattr__(self, "form", quad_from_sym(rows))

    @classmethod
    def from_form(cls, form: Form) -> "QuadricSurface":
        """The surface of a quadratic form in four variables, keeping that form."""
        if form.degree != 2 or form.nvars != 4:
            raise InvalidInput("quadric surface needs a quadratic form in four variables")
        surface = object.__new__(cls)
        object.__setattr__(surface, "sym", form.sym)
        object.__setattr__(surface, "form", form)
        return surface

    def __call__(self, z) -> Fraction:
        return self.form(z.coords if isinstance(z, ProjectivePoint) else z)

    def contains(self, z) -> bool:
        return self(z) == 0


@dataclass
class TwistedCubic:
    """A (possibly degenerate) space cubic, presented by three quadrics.

    ``quadrics`` span the degree-2 part of the ideal; ``base_points`` are the
    known points on the curve; ``param`` is filled in by cubic_param_n5 with
    four binary cubics giving a rational parametrization. The frame matrices
    record the normalization used to build the curve.
    """

    quadrics: tuple[Form, Form, Form]
    base_points: tuple[ProjectivePoint, ...]
    param: tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm] | None = None
    to_std: tuple | None = None
    from_std: tuple | None = None

    def contains(self, z) -> bool:
        coords = z.coords if isinstance(z, ProjectivePoint) else z
        return all(q(coords) == 0 for q in self.quadrics)

    def at(self, t0, t1) -> ProjectivePoint:
        if self.param is None:
            raise InvalidInput("curve has no parametrization; call cubic_param_n5")
        return ProjectivePoint([p(t0, t1) for p in self.param])


class DegenerationTag(Enum):
    SMOOTH_CUBIC = "SmoothCubic"
    LINE_PLUS_CONIC = "LinePlusConic"
    THREE_LINES = "ThreeLines"
    LINE_PLUS_PLANE = "LinePlusPlane"
    ALL_OF_P3 = "AllOfP3"


# ---------------------------------------------------------------------------
# n <= 4


def _general_position_image(p: Configuration) -> bool:
    return len(set(p.points)) == p.n and no_three_collinear(p.points)


def _frame_fill(points: Sequence[ProjectivePoint]) -> list[list[Fraction]]:
    """Invertible 3 x 3 matrix whose first columns are the given <= 3 points."""
    cols = [list(p.fractions()) for p in points]
    for e in range(3):
        if len(cols) == 3:
            break
        unit = [Fraction(1 if i == e else 0) for i in range(3)]
        if linalg.rank(cols + [unit]) == len(cols) + 1:
            cols.append(unit)
    mat = linalg.transpose(cols)
    if linalg.det(mat) == 0:
        raise DegenerateInput("cannot complete the points to a frame")
    return mat


def centers_n_le4(x: Configuration, y: Configuration, a: ProjectivePoint,
                  b: ProjectivePoint) -> list[list[Fraction]]:
    """Witness homography between the two images for n <= 4 points.

    For up to four world points in general position the images are always
    projectively equivalent; the witness is computed exactly and verified on
    every correspondence.
    """
    n = x.n
    if n != y.n or n > 4:
        raise InvalidInput("centers_n_le4 needs matching configurations with n <= 4")
    p = Configuration([project(xi, a) for xi in x])
    q = Configuration([project(yi, b) for yi in y])
    if not (_general_position_image(p) and _general_position_image(q)):
        raise DegenerateInput("projected points are not in general position")
    if n == 4:
        h = homography_fit(p, q)
        if h is None:
            raise Inconsistent("no homography between general-position quadruples")
        return h
    fp = _frame_fill(p.points)
    fq = _frame_fill(q.points)
    fp_inv = linalg.inverse(fp)
    assert fp_inv is not None
    h = linalg.mat_mul(fq, fp_inv)
    for pi, qi in zip(p.points, q.points):
        if apply_matrix(h, pi) != qi:
            raise Inconsistent("witness homography failed verification")
    return h


# ---------------------------------------------------------------------------
# n = 5


def cubic_locus_n5(x: Configuration, y: Configuration, a: ProjectivePoint) -> TwistedCubic:
    """The b-locus for five point pairs and a fixed first center.

    Both configurations are normalized onto the standard frame; in those
    coordinates the locus is the rank-deficiency set of the 4 x 3 matrix
    with columns (a'_i), (b_i), (a'_i b_i). Row-reducing by the first
    nonzero coordinate of a' leaves a 3 x 2 matrix with entries linear in b
    whose three 2 x 2 minors cut out the curve; they are pulled back to the
    original coordinates of y. For generic a this is the unique twisted
    cubic through the five y-points and (the y-frame image of) a.
    """
    if x.n != 5 or y.n != 5 or x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("cubic_locus_n5 needs five points in P^3 on both sides")
    if not center_admissible(x, a, 5, "Moduli"):
        raise InadmissibleCenter("center lies on a line through two world points")
    u = normalizing_transform(x.points)
    v = normalizing_transform(y.points)
    alpha = apply_matrix(u, a)
    p = next(i for i in range(4) if alpha[i] != 0)
    rest = [i for i in range(4) if i != p]
    lin_l = {}
    lin_m = {}
    for i in rest:
        li = [Fraction(0)] * 4
        li[i] = Fraction(alpha[p])
        li[p] = Fraction(-alpha[i])
        mi = [Fraction(0)] * 4
        mi[i] = Fraction(alpha[i]) * alpha[p]
        mi[p] = -Fraction(alpha[i]) * alpha[p]
        lin_l[i], lin_m[i] = Form(1, tuple(li)), Form(1, tuple(mi))
    quadrics_std = [lin_l[i] * lin_m[j] - lin_l[j] * lin_m[i]
                    for i, j in combinations(rest, 2)]
    quadrics = tuple(q.compose_linear(v).primitive() for q in quadrics_std)
    for yi in y.points:
        if any(q(yi.coords) != 0 for q in quadrics):
            raise Inconsistent("curve does not pass through a base point")
    return TwistedCubic(quadrics, tuple(y.points), to_std=tuple(map(tuple, v)),
                        from_std=tuple(map(tuple, linalg.inverse(v))))


def _binary_det3(rows: list[list[BinaryForm]]) -> BinaryForm:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i) + b * (f * g) + c * (d * h) \
        + (a * (f * h)).scaled(-1) + (b * (d * i)).scaled(-1) + (c * (e * g)).scaled(-1)


def restrict_to_param(q: Form, param: Sequence[BinaryForm]) -> BinaryForm:
    """The binary sextic q(P(t)) for a quadric q and a degree-3 parametrization."""
    total: BinaryForm | None = None
    for c, exp in zip(q.coeffs, monomials(2)):
        if c == 0:
            continue
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        term = (param[idx[0]] * param[idx[1]]).scaled(c)
        total = term if total is None else total + term
    if total is None:
        raise InvalidInput("cannot restrict the zero form")
    return total


def cubic_param_n5(curve: TwistedCubic) -> tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm]:
    """Exact rational parametrization of a smooth twisted cubic locus.

    Working in the standard frame, the pencil of planes through the first
    two frame points meets the curve in one residual point per parameter;
    eliminating linearly gives coordinates that are binary cubics in the
    pencil parameter. The result is pulled back to the original frame,
    verified to satisfy all three quadrics identically, and cached on the
    curve.
    """
    if curve.param is not None:
        return curve.param
    if curve.from_std is None or curve.to_std is None:
        raise InvalidInput("curve carries no frame data")
    qs_std = [q.compose_linear(curve.from_std) for q in curve.quadrics]
    monos = monomials(2)

    def coeff(q: Form, i: int, j: int) -> Fraction:
        e = [0, 0, 0, 0]
        e[i] += 1
        e[j] += 1
        return q.coeffs[monos.index(tuple(e))]

    rows = []
    for q in qs_std:
        if any(coeff(q, i, i) != 0 for i in range(4)):
            raise DegenerateCurve("standard-frame quadric has a square term")
        rows.append([
            BinaryForm([coeff(q, 0, 1)]),
            BinaryForm([coeff(q, 0, 3), coeff(q, 0, 2)]),
            BinaryForm([coeff(q, 1, 3), coeff(q, 1, 2)]),
            BinaryForm([Fraction(0), coeff(q, 2, 3), Fraction(0)]),
        ])
    minors = {}
    for drop in (1, 2, 3):  # the kernel coordinates the parametrization needs
        sub = [[row[c] for c in range(4) if c != drop] for row in rows]
        minors[drop] = _binary_det3(sub)
    m1, m2, m3 = minors[1], minors[2], minors[3]
    t0 = BinaryForm([Fraction(0), Fraction(1)])
    t1 = BinaryForm([Fraction(1), Fraction(0)])
    coords_std = [m1, m2.scaled(-1), t0 * m3, t1 * m3]
    if all(c.is_zero() for c in coords_std):
        raise DegenerateCurve("parametrization matrix is identically singular")
    g = binary_gcd([c for c in coords_std if not c.is_zero()])
    if g.degree > 0:
        raise DegenerateCurve("parametrization degenerates to degree < 3")
    from_std = curve.from_std
    coords = []
    for r in range(4):
        acc: BinaryForm | None = None
        for c in range(4):
            if from_std[r][c] == 0:
                continue
            term = coords_std[c].scaled(from_std[r][c])
            acc = term if acc is None else acc + term
        coords.append(acc if acc is not None else BinaryForm([Fraction(0)] * 4))
    for q in curve.quadrics:
        if not restrict_to_param(q, coords).is_zero():
            raise DegenerateCurve("parametrization does not satisfy the curve ideal")
    curve.param = tuple(coords)
    return curve.param


def param_of_point(param: Sequence[BinaryForm], point: ProjectivePoint) -> tuple[Fraction, Fraction]:
    """The parameter at which a degree-3 parametrization passes through a point."""
    minors = []
    for i, j in combinations(range(4), 2):
        f = param[i].scaled(point[j]) + param[j].scaled(-point[i])
        if not f.is_zero():
            minors.append(f)
    if not minors:
        raise DegenerateCurve("parametrization is a single point")
    g = binary_gcd(minors)
    if g.degree != 1:
        raise DegenerateCurve("point is not a simple point of the parametrization")
    return linear_root(g)


def classify_degeneration_n5(x: Configuration, a: ProjectivePoint) -> DegenerationTag:
    """How the five-point b-locus degenerates for a special first center.

    The cubic is smooth iff a avoids all planes through three world points;
    one such plane gives a line plus a conic, two give three lines, a center
    on a line through two points gives a line plus a plane, and a center at
    a world point leaves b unconstrained.
    """
    if x.n != 5 or x.ambient_dim != 3:
        raise InvalidInput("classify_degeneration_n5 needs five points in P^3")
    if a in x.points:
        return DegenerationTag.ALL_OF_P3
    if any(on_line(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
        return DegenerationTag.LINE_PLUS_PLANE
    planes = sum(
        1 for i, j, k in combinations(range(5), 3)
        if linalg.det([x[i].coords, x[j].coords, x[k].coords, a.coords]) == 0)
    if planes == 0:
        return DegenerationTag.SMOOTH_CUBIC
    if planes == 1:
        return DegenerationTag.LINE_PLUS_CONIC
    return DegenerationTag.THREE_LINES


# ---------------------------------------------------------------------------
# n = 6


def quadric_pair_n6(x: Configuration, y: Configuration) -> tuple[QuadricSurface, QuadricSurface]:
    """The two quadric surfaces confining the centers for six point pairs.

    Lifting the six-point invariants of each configuration gives five
    quadrics with a one-dimensional linear relation; the relation computed
    from y weights the x-quadrics (and vice versa -- the sides switch),
    producing the surface containing a (resp. b).
    """
    if x.n != 6 or y.n != 6 or x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("quadric_pair_n6 needs six points in P^3 on both sides")
    qx = lifted_quadrics(x)
    qy = lifted_quadrics(y)
    relations = {}
    for tag, quads in (("x", qx), ("y", qy)):
        mat = [[quads[i].coeffs[r] for i in range(5)] for r in range(10)]
        kernel = linalg.kernel_basis(mat)
        if len(kernel) != 1:
            raise DegenerateInput(f"quadric relation on the {tag} side is not unique")
        relations[tag] = kernel[0]
    s_beta = _weighted_sum(relations["y"], qx)
    s_alpha = _weighted_sum(relations["x"], qy)
    if s_beta.is_zero() or s_alpha.is_zero():
        # happens exactly when the two relations coincide, e.g. for
        # projectively equivalent configurations, where the center locus is
        # not confined to a quadric at all
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    if any(s_beta(pt.coords) for pt in x.points):
        raise Inconsistent("S_beta does not contain its world points")
    if any(s_alpha(pt.coords) for pt in y.points):
        raise Inconsistent("S_alpha does not contain its world points")
    return QuadricSurface.from_form(s_beta), QuadricSurface.from_form(s_alpha)


def _weighted_sum(weights: Sequence[Fraction], forms: Sequence[Form]) -> Form:
    """The primitive form of sum_i w_i f_i. The result is defined up to scale,
    so the weights are made primitive integers first; the sum stays exact."""
    w = canonical_coords(weights)
    total = Form(forms[0].degree, tuple(sum(wi * c for wi, c in zip(w, col))
                                        for col in zip(*(f.coeffs for f in forms))))
    return total.primitive()


def _resected_center(x: Configuration, y: Configuration, a: ProjectivePoint) -> ProjectivePoint:
    """The center b of the camera P with P y_i proportional to q_i =
    project(x_i, a) for every i, by exact linear resection (DLT): each
    correspondence gives the three rows of (P y_i) x q_i = 0 in the twelve
    entries of P. Raises InadmissibleCenter at a world point a, and
    NoRationalImage unless P is one rank-3 camera whose center is no world
    point."""
    if a in x.points:
        raise InadmissibleCenter("the center map is undefined at a world point")
    q = [project(xi, a) for xi in x]
    rows = []
    for yi, qi in zip(y.points, q):
        for r, s in ((1, 2), (2, 0), (0, 1)):
            row = [0] * 12
            for c in range(4):
                row[4 * r + c] = qi[s] * yi[c]
                row[4 * s + c] = -qi[r] * yi[c]
            rows.append(row)
    kernel = linalg.kernel_basis(rows)
    if len(kernel) != 1:
        raise NoRationalImage(f"the resection has a {len(kernel)}-dimensional solution space")
    camera = [kernel[0][4 * r: 4 * r + 4] for r in range(3)]
    if linalg.rank(camera) != 3:
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(linalg.kernel_basis(camera)[0])
    if b in y.points:
        raise NoRationalImage("the matched center is a world point")
    # b is not a world point, so every image P y_i is a nonzero vector
    if any(apply_matrix(camera, yi) != qi for yi, qi in zip(y.points, q)):
        raise Inconsistent("the resected camera misses a correspondence")
    return b


def map_a_to_b_n6(x: Configuration, y: Configuration, a: ProjectivePoint,
                  pair: tuple[QuadricSurface, QuadricSurface] | None = None) -> ProjectivePoint:
    """The unique second center matching a first center on its quadric.

    The images are projectively equivalent exactly when some camera P sends
    every y_i to a multiple of q_i = project(x_i, a); P is found by exact
    linear resection and b is its center. The result is verified point by
    point, on the companion quadric, and against the full weighted
    proportionality of the lifted six-point invariants.
    """
    s_beta, s_alpha = pair if pair is not None else quadric_pair_n6(x, y)
    if s_beta(a) != 0:
        raise NoRationalImage("center is not exactly on its quadric surface")
    b = _resected_center(x, y, a)
    if s_alpha(b) != 0:
        raise Inconsistent("matched center is not on the companion quadric")
    if not t6_lifted(x, a).proportional(t6_lifted(y, b)):
        raise Inconsistent("lifted invariants of the matched pair disagree")
    return b


def map_b_to_a_n6(x: Configuration, y: Configuration, b: ProjectivePoint) -> ProjectivePoint:
    """Inverse direction of map_a_to_b_n6 (roles of the two sides swapped)."""
    s_beta, s_alpha = quadric_pair_n6(x, y)
    return map_a_to_b_n6(y, x, b, pair=(s_alpha, s_beta))


def sample_surface_point(s: QuadricSurface, through: ProjectivePoint,
                         seed: int = 0, avoid: Sequence[ProjectivePoint] = ()) -> ProjectivePoint:
    """A rational point of the quadric: the residual intersection of a random
    rational line through a known point of the surface."""
    import random as _random
    rng = _random.Random(seed)
    if s(through) != 0:
        raise InvalidInput("base point is not on the quadric")
    for _ in range(200):
        d = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        if all(v == 0 for v in d):
            continue
        qd = s(d)
        if qd == 0:
            continue
        cross = sum((Fraction(through[i]) * s.sym[i][j] * d[j]
                     for i in range(4) for j in range(4)), Fraction(0))
        t = -2 * cross / qd
        coords = [Fraction(through[i]) + t * d[i] for i in range(4)]
        if all(c == 0 for c in coords):
            continue
        pt = ProjectivePoint(coords)
        if pt == through or pt in avoid:
            continue
        assert s(pt) == 0
        return pt
    raise DegenerateInput("could not sample a rational point on the quadric")


# ---------------------------------------------------------------------------
# n = 7 and n >= 8


@dataclass(frozen=True)
class CandidateSets:
    """Leave-one-out quadrics and the isolated candidate centers they cut out."""

    a_quadrics: tuple[Form, ...]
    b_quadrics: tuple[Form, ...]
    a_candidates: tuple[NumericPoint, ...]
    b_candidates: tuple[NumericPoint, ...]


def candidates_n7(x: Configuration, y: Configuration, tol: float = 1e-9,
                  seed: int = 0, expected: int | None = 3) -> CandidateSets:
    """Candidate centers for seven point pairs.

    Each leave-one-out six-point subproblem confines a to a quadric surface;
    the seven quadrics intersect in three isolated points (and likewise for
    b). Rational candidates are certified exactly.
    """
    if x.n != 7 or y.n != 7:
        raise InvalidInput("candidates_n7 needs seven points on both sides")
    a_quads, b_quads = [], []
    for k in range(7):
        s_beta, s_alpha = quadric_pair_n6(x.drop(k), y.drop(k))
        a_quads.append(s_beta.form)
        b_quads.append(s_alpha.form)
    a_pts = solve_quadric_system(a_quads, expected=expected, tol=tol, seed=seed)
    b_pts = solve_quadric_system(b_quads, expected=expected, tol=tol, seed=seed + 1)
    a_pts = [_with_certificate(p, a_quads) for p in a_pts]
    b_pts = [_with_certificate(p, b_quads) for p in b_pts]
    return CandidateSets(tuple(a_quads), tuple(b_quads), tuple(a_pts), tuple(b_pts))


def _with_certificate(p: NumericPoint, quads: Sequence[Form]) -> NumericPoint:
    exact = certify_rational(quads, p)
    if exact is None:
        return p
    refined = NumericPoint.from_vector(
        np.array([float(c) for c in exact.coords]), 0.0, exact=exact)
    return refined


# the (0-based) points of each Fano line under each even permutation
_FANO_ROWS = np.array([[[perm[i - 1] - 1 for i in line] for line in FANO_LINES]
                       for perm in EVEN_FANO_PERMS])


def fano15_complex(x: Configuration, a: Sequence[complex]) -> np.ndarray:
    """Floating-point lifted Fano vector for a (possibly complex) center."""
    rows = np.array([p.coords for p in x.points], dtype=float)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    av = np.asarray(a, dtype=complex)
    av = av / np.linalg.norm(av)
    stack = np.empty((len(EVEN_FANO_PERMS), len(FANO_LINES), 4, 4), dtype=complex)
    stack[:, :, :3] = rows[_FANO_ROWS]
    stack[:, :, 3] = av
    values = []
    for dets in np.linalg.det(stack):
        prod = 1.0 + 0.0j
        for d in dets:
            prod *= d
        values.append(prod)
    return np.array(values)


_OMEGA = np.ones(15)


@dataclass(frozen=True)
class MatchedPair:
    """One point of the centers-variety for n = 7, with match diagnostics."""

    a: NumericPoint
    b: NumericPoint
    invariant_distance: float


def pair_candidates_n7(x: Configuration, y: Configuration,
                       a_candidates: Sequence[NumericPoint],
                       b_candidates: Sequence[NumericPoint],
                       tol: float = 1e-7) -> list[MatchedPair]:
    """Match a-candidates to b-candidates by their lifted Fano directions.

    Candidates whose Fano vector is proportional to the all-ones direction
    are discarded (they see the seven points on a conic, which does not
    certify equivalence); the rest are matched by minimal projective
    distance between the invariant vectors.
    """
    va = [(p, fano15_complex(x, p.coords)) for p in a_candidates]
    vb = [(p, fano15_complex(y, p.coords)) for p in b_candidates]
    va = [(p, v) for p, v in va if projective_distance(v, _OMEGA) >= tol]
    vb = [(p, v) for p, v in vb if projective_distance(v, _OMEGA) >= tol]
    if not va or len(va) != len(vb):
        raise AmbiguousMatch(
            f"cannot match {len(va)} a-candidates with {len(vb)} b-candidates")
    dist = np.array([[projective_distance(u, w) for _, w in vb] for _, u in va])
    best_perm, best_total = None, float("inf")
    for perm in permutations(range(len(vb))):
        total = sum(dist[i, perm[i]] for i in range(len(va)))
        if total < best_total:
            best_perm, best_total = perm, total
    assert best_perm is not None
    pairs = []
    for i, j in enumerate(best_perm):
        row = sorted(dist[i])
        if len(row) > 1 and row[1] < tol:
            raise AmbiguousMatch("two candidate matches within tolerance",
                                 distances=[float(d) for d in dist[i]])
        pairs.append(MatchedPair(va[i][0], vb[j][0], float(dist[i, j])))
    pairs.sort(key=lambda m: m.invariant_distance)
    return pairs


@dataclass(frozen=True)
class EmptinessCertificate:
    """Three-pair sets of two overlapping 7-subsets, the rank of the span of
    their a-quadrics, and the exactly verified surviving pair (if any)."""

    window_1: tuple[MatchedPair, ...]
    window_2: tuple[MatchedPair, ...]
    surviving: tuple[tuple[MatchedPair, MatchedPair], ...]
    span_rank: int


def _span_common_zero(quadrics: Sequence[Form]) -> tuple[int, ProjectivePoint | None]:
    """The rank of the span W of quadrics in P^3 and their one common zero.

    A common zero a gives the Veronese vector v_2(a) = (a^m)_m in the dual
    kernel of W. Rank 10 leaves no common zero. At rank 9 the kernel vector
    lambda, read as the symmetric matrix M[i][j] = lambda[e_i + e_j], equals
    c a a^T if a common zero a exists; M has rank 1 exactly then, and a is
    its nonzero row. A smaller rank raises Inconclusive.
    """
    kernel = linalg.kernel_basis([q.coeffs for q in quadrics])
    rank = 10 - len(kernel)
    if not kernel:
        return rank, None
    if len(kernel) > 1:
        raise Inconclusive(f"the quadrics span only {rank} of 10 dimensions")
    index = monomial_index(2)
    m = [[kernel[0][index[tuple(int(k == i) + int(k == j) for k in range(4))]]
          for j in range(4)] for i in range(4)]
    a = ProjectivePoint(next(row for row in m if any(row)))
    return rank, a if linalg.rank(m) == 1 else None


def _shown_pair(pairs: Sequence[MatchedPair], a: ProjectivePoint,
                b: ProjectivePoint) -> MatchedPair:
    """The window pair whose float a is nearest the exact a, carrying (a, b)."""
    af = [float(c) for c in a.coords]
    m = min(pairs, key=lambda p: projective_distance(p.a.coords, af))
    return replace(m, a=replace(m.a, exact=a), b=replace(m.b, exact=b))


def centers_n_ge8(x: Configuration, y: Configuration, tol: float = 1e-9,
                  seed: int = 0) -> EmptinessCertificate:
    """Centers-variety for n >= 8 points, decided exactly.

    Every valid a lies on the S_beta quadric of each 6-subset, so on the
    common zeros of the span of the fourteen a-quadrics of the windows
    {1..7} and {2..8} (see _span_common_zero). A candidate a is kept only
    if resection over all n points finds its b. The windows' three-pair
    sets are reported alongside; they only label a survivor.
    """
    if x.n < 8 or y.n != x.n:
        raise InvalidInput("centers_n_ge8 needs at least eight points")
    windows, quadrics = [], []
    for w in range(2):
        xs = Configuration(x.points[w: w + 7])
        ys = Configuration(y.points[w: w + 7])
        cand = candidates_n7(xs, ys, tol=tol, seed=seed + w)
        quadrics += cand.a_quadrics
        windows.append(tuple(pair_candidates_n7(xs, ys, cand.a_candidates, cand.b_candidates)))
    span_rank, a = _span_common_zero(quadrics)
    surviving = ()
    if a is not None:
        try:
            b = _resected_center(x, y, a)
            surviving = ((_shown_pair(windows[0], a, b), _shown_pair(windows[1], a, b)),)
        except (NoRationalImage, InadmissibleCenter):
            pass
    return EmptinessCertificate(windows[0], windows[1], surviving, span_rank)


# ---------------------------------------------------------------------------
# The centers-variety, dispatched on n


@dataclass(frozen=True)
class EverythingN4:
    """n <= 4: every center pair works; carries one verified witness."""

    a: ProjectivePoint
    b: ProjectivePoint
    witness: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class CubicFibrationN5:
    """n = 5: for the given first center, the b-locus curve."""

    given_center: ProjectivePoint
    cubic: TwistedCubic
    degeneration: DegenerationTag


@dataclass(frozen=True)
class SurfacePairN6:
    """n = 6: the two center quadrics, sample pairs, and the matched center."""

    s_beta: QuadricSurface
    s_alpha: QuadricSurface
    sampled_pairs: tuple[tuple[ProjectivePoint, ProjectivePoint], ...]
    given_center: ProjectivePoint | None = None
    matched_center: ProjectivePoint | None = None


@dataclass(frozen=True)
class ThreePairsN7:
    """n = 7: the three isolated center pairs with their certificates."""

    pairs: tuple[MatchedPair, ...]
    candidates: CandidateSets


@dataclass(frozen=True)
class EmptyN8:
    """n >= 8: the exact emptiness certificate (and the survivor, if any)."""

    certificate: EmptinessCertificate


CentersVariety = EverythingN4 | CubicFibrationN5 | SurfacePairN6 | ThreePairsN7 | EmptyN8


def _sample_generic_centers(x: Configuration, y: Configuration, seed: int
                            ) -> tuple[ProjectivePoint, ProjectivePoint]:
    import random as _random
    rng = _random.Random(seed)
    for _ in range(500):
        a = ProjectivePoint([rng.randint(-9, 9) or 1 for _ in range(4)])
        b = ProjectivePoint([rng.randint(-9, 9) or 1 for _ in range(4)])
        if a in x.points or b in y.points:
            continue
        try:
            p = Configuration([project(xi, a) for xi in x])
            q = Configuration([project(yi, b) for yi in y])
        except ToolkitError:
            continue
        if _general_position_image(p) and _general_position_image(q):
            return a, b
    raise DegenerateInput("could not sample generic centers")


def centers_variety(x: Configuration, y: Configuration,
                    a: ProjectivePoint | None = None,
                    b: ProjectivePoint | None = None,
                    tol: float = 1e-9, seed: int = 0,
                    samples: int = 3) -> CentersVariety:
    """Compute the centers-variety description appropriate to n = |X| = |Y|."""
    if x.n != y.n:
        raise InvalidInput("configurations must have the same number of points")
    if x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("world configurations live in P^3")
    n = x.n
    if n <= 4:
        if a is None or b is None:
            sa, sb = _sample_generic_centers(x, y, seed)
            a = a if a is not None else sa
            b = b if b is not None else sb
        witness = centers_n_le4(x, y, a, b)
        return EverythingN4(a, b, tuple(tuple(row) for row in witness))
    if n == 5:
        if a is None:
            raise InvalidInput("n = 5 needs a first center to report the b-locus")
        tag = classify_degeneration_n5(x, a)
        cubic = cubic_locus_n5(x, y, a)
        if tag == DegenerationTag.SMOOTH_CUBIC:
            try:
                cubic_param_n5(cubic)
            except DegenerateCurve:
                pass
        return CubicFibrationN5(a, cubic, tag)
    if n == 6:
        pair = quadric_pair_n6(x, y)
        matched = None
        if a is not None:
            matched = map_a_to_b_n6(x, y, a, pair=pair)
        sampled = []
        attempt = 0
        while len(sampled) < samples and attempt < 40:
            try:
                sa = sample_surface_point(pair[0], x[0], seed=seed + attempt,
                                          avoid=list(x.points))
                sampled.append((sa, map_a_to_b_n6(x, y, sa, pair=pair)))
            except (DegenerateInput, NoRationalImage, InadmissibleCenter, Inconsistent):
                pass
            attempt += 1
        return SurfacePairN6(pair[0], pair[1], tuple(sampled), a, matched)
    if n == 7:
        cand = candidates_n7(x, y, tol=tol, seed=seed)
        pairs = pair_candidates_n7(x, y, cand.a_candidates, cand.b_candidates)
        return ThreePairsN7(tuple(pairs), cand)
    return EmptyN8(centers_n_ge8(x, y, tol=tol, seed=seed))


# ---------------------------------------------------------------------------
# Weddle curve


def quadric_net(x: Configuration) -> list[QuadricSurface]:
    """Exact basis of the net of quadrics through seven points of P^3."""
    if x.n != 7 or x.ambient_dim != 3:
        raise InvalidInput("quadric_net needs seven points in P^3")
    monos = monomials(2)
    rows = [[mono_eval(m, p.coords) for m in monos] for p in x.points]
    kernel = linalg.kernel_basis(rows)
    if len(kernel) != 3:
        raise DegenerateInput("quadrics through the seven points do not form a net")
    return [QuadricSurface.from_form(Form(2, tuple(v))) for v in kernel]


def weddle_curve_point(x: Configuration, tol: float = 1e-9, seed: int = 0
                       ) -> tuple[NumericPoint, list[float]]:
    """A point of the common curve of the seven leave-one-out Weddle surfaces.

    Restricts the determinant of the net of quadrics through the seven
    points to a random rational line, extracts a root of the resulting
    quartic numerically, and returns the vertex (kernel vector) of the
    corresponding singular quadric together with its residuals on the seven
    Weddle quartics.
    """
    from .invariants import weddle_quartic
    import random as _random
    net = quadric_net(x)
    rng = _random.Random(seed)
    for _ in range(50):
        c1 = [rng.randint(-9, 9) for _ in range(3)]
        c2 = [rng.randint(-9, 9) for _ in range(3)]
        m1 = [[sum(Fraction(c1[q]) * net[q].sym[i][j] for q in range(3)) for j in range(4)]
              for i in range(4)]
        m2 = [[sum(Fraction(c2[q]) * net[q].sym[i][j] for q in range(3)) for j in range(4)]
              for i in range(4)]
        values = []
        for t in range(5):
            mt = [[m1[i][j] + t * m2[i][j] for j in range(4)] for i in range(4)]
            values.append(linalg.det(mt))
        # exact interpolation of the degree-4 determinant polynomial
        vand = [[Fraction(t) ** k for k in range(5)] for t in range(5)]
        coeffs = linalg.solve(vand, values)
        assert coeffs is not None
        if all(c == 0 for c in coeffs):
            continue
        poly = np.array([float(c) for c in reversed(coeffs)])
        roots = np.roots(poly)
        if roots.size == 0:
            continue
        roots = sorted(roots, key=lambda r: (abs(r.imag), r.real))
        t_star = complex(roots[0])
        deriv = np.polyder(poly)
        for _ in range(8):
            fv = np.polyval(poly, t_star)
            dv = np.polyval(deriv, t_star)
            if dv == 0:
                break
            t_star = t_star - fv / dv
        m1f = np.array([[float(v) for v in row] for row in m1])
        m2f = np.array([[float(v) for v in row] for row in m2])
        mt = m1f + t_star * m2f
        _, s, vh = np.linalg.svd(mt)
        vertex = vh.conj().T[:, -1]
        residuals = []
        for k in range(7):
            w = weddle_quartic(x.drop(k))
            coeff = np.array([float(c) for c in w.form.coeffs])
            coeff /= np.linalg.norm(coeff)
            vals = np.array([np.prod((vertex / np.linalg.norm(vertex)) ** np.array(m))
                             for m in monomials(4)], dtype=complex)
            residuals.append(float(abs(coeff @ vals)))
        if max(residuals) < max(tol, 1e-7):
            return NumericPoint.from_vector(vertex, max(residuals)), residuals
    raise DegenerateInput("could not locate a Weddle-curve point at tolerance")
