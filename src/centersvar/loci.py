"""Centers-variety computations, case by case in the number of points.

For two n-tuples in P^3, the locus of camera-center pairs (a, b) producing
projectively equivalent images is

* all of P^3 x P^3 for n <= 4 (a witness homography always exists),
* a fibration by twisted cubics for n = 5 (fixing a, the b-locus is the
  unique twisted cubic through the five world points and a, parametrized
  in closed form in the standard frame),
* a surface for n = 6: each center is confined to a quadric, held as its
  primitive integer quadratic form, and the two quadrics are in exact
  birational correspondence; b is the center of the camera that resection
  on a four-point frame of the world points finds from the correspondences
  y_i -> project(x_i, a),
* three isolated pairs for n = 7,
* generically empty for n >= 8 (a common zero of the windows' quadrics,
  resected on a frame and checked against all n points).

Everything through n = 6 and every n >= 8 verdict is exact over the rationals;
points on a quadric are tested and sampled in integers.
For n = 7 the quadric-system kernel certifies exactly that the zero set is
finite, locates its points in floats, and certifies the rational ones exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (AmbiguousMatch, DegenerateCurve, DegenerateInput,
                     InadmissibleCenter, Inconclusive, Inconsistent,
                     InvalidInput, NoRationalImage, ToolkitError)
from .forms import (BinaryForm, Form, binary_gcd, linear_root, moment_positions,
                    monomials, mono_eval, sym_from_quad)
from .invariants import EVEN_FANO_PERMS, FANO_LINES, lifted_quadrics, t6_lifted
from .numeric import (NumericPoint, certify_rational, projective_distance,
                      solve_quadric_system)
from .projective import (Configuration, ProjectivePoint, apply_matrix, bracket,
                         center_admissible, cofactors, frame_matrix,
                         homography_fit, no_three_collinear,
                         normalizing_transform, on_line, project)


@dataclass
class TwistedCubic:
    """A (possibly degenerate) space cubic, presented by three quadrics.

    ``quadrics`` span the degree-2 part of the ideal; ``base_points`` are the
    known points on the curve; ``param``, when the curve is a smooth twisted
    cubic, holds four binary cubics giving its rational parametrization in
    the closed form of cubic_locus_n5, and is None otherwise.
    """

    quadrics: tuple[Form, Form, Form]
    base_points: tuple[ProjectivePoint, ...]
    param: tuple[BinaryForm, BinaryForm, BinaryForm, BinaryForm] | None = None

    def contains(self, z) -> bool:
        coords = z.coords if isinstance(z, ProjectivePoint) else z
        return all(q(coords) == 0 for q in self.quadrics)

    def at(self, t0, t1) -> ProjectivePoint:
        if self.param is None:
            raise InvalidInput("curve has no parametrization")
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
    with columns (alpha_i), (b_i), (alpha_i b_i), alpha the x-frame image of
    a. Row-reducing by the first nonzero alpha_i leaves a 3 x 2 matrix with
    entries linear in b whose three 2 x 2 minors cut out the curve; they are
    pulled back to the original coordinates of y.

    When the alpha_i are nonzero and pairwise distinct (a lies on none of
    the ten planes through three world points: the SmoothCubic case) the
    locus is the twisted cubic through the frame points and alpha, with the
    closed form b_i = alpha_i prod_{j != i} (t0 + alpha_j t1) in the y-frame.
    Pulled back to y it becomes ``param``; y_j (j = 1..4) sits at
    (-alpha_j : 1), y_5 at (0 : 1) and the point with y-frame coordinates
    alpha at (1 : 0). Otherwise ``param`` is None.
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
    param = None
    if all(alpha.coords) and len(set(alpha.coords)) == 4:
        frame = [prod((BinaryForm([alpha[j], 1]) for j in range(4) if j != i),
                      start=BinaryForm([alpha[i]])) for i in range(4)]
        param = tuple(BinaryForm(sum(m * f.coeffs[k] for m, f in zip(row, frame))
                                 for k in range(4))
                      for row in frame_matrix(y.points))
        if any(not restrict_to_param(q, param).is_zero() for q in quadrics):
            raise Inconsistent("parametrization does not satisfy the curve ideal")
    return TwistedCubic(quadrics, tuple(y.points), param)


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
    """The exact rational parametrization of a smooth twisted cubic locus,
    as built by cubic_locus_n5; raises DegenerateCurve when the locus is not
    a smooth twisted cubic."""
    if curve.param is None:
        raise DegenerateCurve("the locus is not a smooth twisted cubic")
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


def quadric_pair_n6(x: Configuration, y: Configuration) -> tuple[Form, Form]:
    """The two quadric surfaces confining the centers for six point pairs, as
    primitive integer quadratic forms.

    Lifting the six-point invariants of each configuration gives five
    integer quadrics with a one-dimensional linear relation; the relation
    computed from y weights the x-quadrics (and vice versa -- the sides
    switch), producing the surface containing a (resp. b). The relations are
    primitive integer kernel vectors, so both weighted sums stay in ints.
    """
    if x.n != 6 or y.n != 6 or x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("quadric_pair_n6 needs six points in P^3 on both sides")
    qx = lifted_quadrics(x)
    qy = lifted_quadrics(y)
    relations = {}
    for tag, quads in (("x", qx), ("y", qy)):
        kernel = linalg.integer_kernel(list(zip(*(q.coeffs for q in quads))))
        if len(kernel) != 1:
            raise DegenerateInput(f"quadric relation on the {tag} side is not unique")
        relations[tag] = kernel[0]
    s_beta, s_alpha = (
        Form(2, tuple(sum(w * c for w, c in zip(weights, col))
                      for col in zip(*(q.coeffs for q in quads)))).primitive()
        for weights, quads in ((relations["y"], qx), (relations["x"], qy)))
    if s_beta.is_zero() or s_alpha.is_zero():
        # happens exactly when the two relations coincide, e.g. for
        # projectively equivalent configurations, where the center locus is
        # not confined to a quadric at all
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    if any(s_beta.integer_value(pt.coords) for pt in x.points):
        raise Inconsistent("S_beta does not contain its world points")
    if any(s_alpha.integer_value(pt.coords) for pt in y.points):
        raise Inconsistent("S_alpha does not contain its world points")
    return s_beta, s_alpha


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _resected_center(x: Configuration, y: Configuration, a: ProjectivePoint) -> ProjectivePoint:
    """The center b of the camera P with P y_i proportional to q_i =
    project(x_i, a) for every i, by exact resection on a four-point frame.

    The frame (f_0, ..., f_3) is the first 4-subset of the world points, in
    combinations order, with a nonzero bracket. The cofactor vector w_k of the
    other three frame points vanishes on them and not on y_{f_k}, so the
    cameras that fit the frame are P = sum_k lambda_k q_{f_k} w_k^T (that is
    Q Lambda A^T, A the frame's integer adjugate up to column signs). Each
    other point y_j adds the three integer rows
    sum_k lambda_k (w_k . y_j) (q_{f_k} x q_j) = 0, a 3(n - 4) x 4 system in
    lambda. No q_f is zero, so lambda -> P is injective onto the solution
    space of the 12-unknown linear resection (DLT, Hartley & Zisserman 7.1):
    both kernels have the same dimension, and P is a multiple of the DLT
    camera. b is read off as a primitive integer kernel vector. Raises
    InadmissibleCenter at a world point a, and NoRationalImage when the world
    points lie in a plane, or unless P is one rank-3 camera whose center is
    no world point."""
    if a in x.points:
        raise InadmissibleCenter("the center map is undefined at a world point")
    q = [project(xi, a) for xi in x]
    ys = [yi.coords for yi in y.points]
    frame = next((f for f in combinations(range(len(ys)), 4)
                  if bracket([y[i] for i in f]) != 0), None)
    if frame is None:
        raise NoRationalImage("the world points lie in a plane, so the resection is not unique")
    w = [cofactors(*(ys[g] for g in frame if g != f)) for f in frame]
    rows = []
    for j, yj in enumerate(ys):
        if j in frame:
            continue
        weights = [sum(map(mul, wk, yj)) for wk in w]
        crosses = [_cross(q[f], q[j]) for f in frame]
        rows.extend([c * v[r] for c, v in zip(weights, crosses)] for r in range(3))
    kernel = linalg.integer_kernel(rows)
    if len(kernel) != 1:
        raise NoRationalImage(f"the resection has a {len(kernel)}-dimensional solution space")
    lam = kernel[0]
    camera = [[sum(lam[k] * q[f][r] * w[k][c] for k, f in enumerate(frame)) for c in range(4)]
              for r in range(3)]
    center = linalg.integer_kernel(camera)
    if len(center) != 1:
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(center[0])
    if b in y.points:
        raise NoRationalImage("the matched center is a world point")
    # b is not a world point, so every image P y_i is a nonzero vector
    if any(any(_cross([sum(map(mul, row, yi)) for row in camera], qi))
           for yi, qi in zip(ys, q)):
        raise Inconsistent("the resected camera misses a correspondence")
    return b


def map_a_to_b_n6(x: Configuration, y: Configuration, a: ProjectivePoint,
                  pair: tuple[Form, Form] | None = None) -> ProjectivePoint:
    """The unique second center matching a first center on its quadric.

    The images are projectively equivalent exactly when some camera P sends
    every y_i to a multiple of q_i = project(x_i, a); P is found in integers
    by resection on a four-point frame of the world points (the other two
    points fix its four frame weights) and b is its center. The result is
    verified point by point, on the companion quadric, and against the full
    weighted proportionality of the lifted six-point invariants.
    """
    s_beta, s_alpha = pair if pair is not None else quadric_pair_n6(x, y)
    if s_beta.integer_value(a.coords):
        raise NoRationalImage("center is not exactly on its quadric surface")
    b = _resected_center(x, y, a)
    if s_alpha.integer_value(b.coords):
        raise Inconsistent("matched center is not on the companion quadric")
    if not t6_lifted(x, a).proportional(t6_lifted(y, b)):
        raise Inconsistent("lifted invariants of the matched pair disagree")
    return b


def map_b_to_a_n6(x: Configuration, y: Configuration, b: ProjectivePoint) -> ProjectivePoint:
    """Inverse direction of map_a_to_b_n6 (roles of the two sides swapped)."""
    s_beta, s_alpha = quadric_pair_n6(x, y)
    return map_a_to_b_n6(y, x, b, pair=(s_alpha, s_beta))


def sample_surface_point(s: Form, through: ProjectivePoint,
                         seed: int = 0, avoid: Sequence[ProjectivePoint] = ()) -> ProjectivePoint:
    """A rational point of the quadric: the residual intersection of a random
    integer line through a known point p of the surface. With q(p) = 0,
    q(p + t d) = t (q(p + d) - q(d)) + t^2 q(d), so the second point is
    q(d) p - (q(p + d) - q(d)) d, in integers."""
    import random as _random
    rng = _random.Random(seed)
    p = through.coords
    if s.integer_value(p):
        raise InvalidInput("base point is not on the quadric")
    for _ in range(200):
        d = [rng.randint(-9, 9) for _ in range(4)]
        qd = s.integer_value(d)
        if qd == 0:
            continue
        cross = s.integer_value([u + v for u, v in zip(p, d)]) - qd
        coords = [qd * u - cross * v for u, v in zip(p, d)]
        if not any(coords):
            continue
        pt = ProjectivePoint(coords)
        if pt == through or pt in avoid:
            continue
        if s.integer_value(pt.coords):
            raise Inconsistent("the sampled point is not on the quadric")
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
                  seed: int = 0) -> CandidateSets:
    """Candidate centers for seven point pairs.

    Each leave-one-out six-point subproblem confines a to a quadric surface;
    the seven quadrics intersect in three isolated points (and likewise for
    b). Rational candidates are certified exactly. A certified candidate at
    a world point is no center, and the seven quadrics of such an input do
    not cut out its center pairs: that raises DegenerateInput.
    """
    if x.n != 7 or y.n != 7:
        raise InvalidInput("candidates_n7 needs seven points on both sides")
    a_quads, b_quads = [], []
    for k in range(7):
        s_beta, s_alpha = quadric_pair_n6(x.drop(k), y.drop(k))
        a_quads.append(s_beta)
        b_quads.append(s_alpha)
    a_pts = solve_quadric_system(a_quads, expected=3, tol=tol, seed=seed)
    b_pts = solve_quadric_system(b_quads, expected=3, tol=tol, seed=seed + 1)
    a_pts = [_with_certificate(p, a_quads) for p in a_pts]
    b_pts = [_with_certificate(p, b_quads) for p in b_pts]
    if any(p.exact in x.points for p in a_pts) or any(p.exact in y.points for p in b_pts):
        raise DegenerateInput("a common zero of the leave-one-out quadrics is a world point")
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
_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class MatchedPair:
    """One point of the centers-variety for n = 7, with match diagnostics."""

    a: NumericPoint
    b: NumericPoint
    invariant_distance: float


def pair_candidates_n7(x: Configuration, y: Configuration,
                       a_candidates: Sequence[NumericPoint],
                       b_candidates: Sequence[NumericPoint]) -> list[MatchedPair]:
    """Match a-candidates to b-candidates by their lifted Fano directions.

    Candidates whose Fano vector is proportional to the all-ones direction
    are discarded (they see the seven points on a conic, which does not
    certify equivalence); the rest are matched by minimal projective
    distance between the invariant vectors. The pairs follow the order of
    the a-candidates; their invariant distances are float noise and would
    give no stable order.
    """
    va = [(p, fano15_complex(x, p.coords)) for p in a_candidates]
    vb = [(p, fano15_complex(y, p.coords)) for p in b_candidates]
    va = [(p, v) for p, v in va if projective_distance(v, _OMEGA) >= _MATCH_TOL]
    vb = [(p, v) for p, v in vb if projective_distance(v, _OMEGA) >= _MATCH_TOL]
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
        if len(row) > 1 and row[1] < _MATCH_TOL:
            raise AmbiguousMatch("two candidate matches within tolerance",
                                 distances=[float(d) for d in dist[i]])
        pairs.append(MatchedPair(va[i][0], vb[j][0], float(dist[i, j])))
    return pairs


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
    m = [[kernel[0][k] for k in row] for row in moment_positions()]
    a = ProjectivePoint(next(row for row in m if any(row)))
    return rank, a if linalg.rank(m) == 1 else None


def _solver_subsets(n: int) -> list[tuple[int, ...]]:
    """The 6-subsets of n points whose quadric pairs the solvers build: every
    one for n = 6 and 7, the thirteen distinct ones of the windows {1..7} and
    {2..8} for n >= 8, and none for n < 6."""
    windows = [range(n)] if n <= 7 else [range(7), range(1, 8)]
    return sorted({c for w in windows for c in combinations(w, 6)})


def centers_n_ge8(x: Configuration, y: Configuration) -> EmptyN8:
    """Centers-variety for n >= 8 points, decided exactly.

    Every valid a lies on the S_beta quadric of each 6-subset, so on the
    common zeros of the span of the a-quadrics of the thirteen distinct
    6-subsets of the windows {1..7} and {2..8}; {2..7} lies in both and is
    counted once (see _span_common_zero). A candidate a is kept only if
    resection over all n points finds its b.
    """
    if x.n < 8 or y.n != x.n:
        raise InvalidInput("centers_n_ge8 needs at least eight points")
    quadrics = [quadric_pair_n6(Configuration([x[i] for i in c]),
                                Configuration([y[i] for i in c]))[0]
                for c in _solver_subsets(x.n)]
    span_rank, a = _span_common_zero(quadrics)
    surviving = ()
    if a is not None:
        try:
            surviving = ((a, _resected_center(x, y, a)),)
        except (NoRationalImage, InadmissibleCenter):
            pass
    return EmptyN8(span_rank, surviving)


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

    s_beta: Form
    s_alpha: Form
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
    """n >= 8: the rank of the span of the windows' a-quadrics and the
    exactly verified center pair (a, b), if one survives."""

    span_rank: int
    surviving: tuple[tuple[ProjectivePoint, ProjectivePoint], ...]


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
                    tol: float = 1e-9, seed: int = 0) -> CentersVariety:
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
        return CubicFibrationN5(a, cubic_locus_n5(x, y, a), classify_degeneration_n5(x, a))
    if n == 6:
        pair = quadric_pair_n6(x, y)
        matched = None
        if a is not None:
            matched = map_a_to_b_n6(x, y, a, pair=pair)
        sampled = []
        attempt = 0
        while len(sampled) < 3 and attempt < 40:
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
    return centers_n_ge8(x, y)


# ---------------------------------------------------------------------------
# Weddle curve


def quadric_net(x: Configuration) -> list[Form]:
    """Exact basis of the net of quadrics through seven points of P^3."""
    if x.n != 7 or x.ambient_dim != 3:
        raise InvalidInput("quadric_net needs seven points in P^3")
    monos = monomials(2)
    rows = [[mono_eval(m, p.coords) for m in monos] for p in x.points]
    kernel = linalg.kernel_basis(rows)
    if len(kernel) != 3:
        raise DegenerateInput("quadrics through the seven points do not form a net")
    return [Form(2, tuple(v)) for v in kernel]


def weddle_curve_point(x: Configuration, seed: int = 0) -> tuple[NumericPoint, list[float]]:
    """A point of the common curve of the seven leave-one-out Weddle surfaces.

    Takes a random pencil M1 + t M2 in the net of quadrics through the seven
    points. Its singular members are at the eigenvalues t of -M2^{-1} M1, and
    the eigenvector of the chosen one is the vertex (kernel vector) of that
    singular quadric; it is returned together with its residuals on the
    seven Weddle quartics.
    """
    from .invariants import weddle_quartic
    import random as _random
    net = [np.array(sym_from_quad(q), dtype=float) for q in quadric_net(x)]
    rng = _random.Random(seed)
    for _ in range(50):
        c1 = [rng.randint(-9, 9) for _ in range(3)]
        c2 = [rng.randint(-9, 9) for _ in range(3)]
        m1 = sum(c * m for c, m in zip(c1, net))
        m2 = sum(c * m for c, m in zip(c2, net))
        try:
            roots, vectors = np.linalg.eig(np.linalg.solve(m2, -m1))
        except np.linalg.LinAlgError:
            continue
        vertex = vectors[:, min(range(4), key=lambda i: (abs(roots[i].imag), roots[i].real))]
        residuals = []
        for k in range(7):
            w = weddle_quartic(x.drop(k))
            coeff = np.array([float(c) for c in w.form.coeffs])
            coeff /= np.linalg.norm(coeff)
            vals = np.array([np.prod((vertex / np.linalg.norm(vertex)) ** np.array(m))
                             for m in monomials(4)], dtype=complex)
            residuals.append(float(abs(coeff @ vals)))
        if max(residuals) < 1e-7:
            return NumericPoint.from_vector(vertex, max(residuals)), residuals
    raise DegenerateInput("could not locate a Weddle-curve point at tolerance")
