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
finite and locates its points in floats; the rational a's are certified
exactly, and resection over all seven points pairs each a with its b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (AmbiguousMatch, DegenerateCurve, DegenerateInput,
                     InadmissibleCenter, Inconclusive, Inconsistent,
                     InvalidInput, NoRationalImage, ToolkitError)
from .forms import (BinaryForm, Form, moment_positions, monomial_indices,
                    monomials, sym_from_quad)
from .invariants import (_EVEN_FANO_SORTED, t6_factors, t6_lifted, t6_relation,
                         weddle_quartic)
from .numeric import (NumericPoint, _distances, _unit_rows, certify_rational,
                      solve_quadric_system)
from .projective import (Configuration, ProjectivePoint, _frame_weights, apply_matrix,
                         bracket, center_admissible, cofactors, collinear, cross,
                         homography_fit, no_three_collinear,
                         normalizing_transform, outer_sum, project)


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


def _frame_fill(points: Sequence[ProjectivePoint]) -> list[tuple[int, ...]]:
    """The columns of an integer 3 x 3 matrix of rank 3: the given <= 3
    independent points, completed greedily by standard unit vectors."""
    cols = [p.coords for p in points]
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if len(cols) < 3 and linalg.rank(cols + [unit]) == len(cols) + 1:
            cols.append(unit)
    if linalg.rank(cols) != 3:
        raise DegenerateInput("cannot complete the points to a frame")
    return cols


def centers_n_le4(x: Configuration, y: Configuration, a: ProjectivePoint,
                  b: ProjectivePoint) -> list[list[Fraction]]:
    """Witness homography between the two images for n <= 4 points.

    For up to four world points in general position the images are always
    projectively equivalent; the witness is computed exactly and verified on
    every correspondence. Below four points it is F_q adj(F_p) / det F_p, on
    the images completed to integer frames (_frame_fill).
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
    fp, fq = _frame_fill(p.points), _frame_fill(q.points)
    adj = [cross(fp[j - 2], fp[j - 1]) for j in range(3)]
    h = outer_sum((1, 1, 1), fq, adj)
    if any(apply_matrix(h, pi) != qi for pi, qi in zip(p.points, q.points)):
        raise Inconsistent("witness homography failed verification")
    det = sum(map(mul, fp[0], adj[0]))
    return [[Fraction(v, det) for v in row] for row in h]


# ---------------------------------------------------------------------------
# n = 5


def cubic_locus_n5(x: Configuration, y: Configuration, a: ProjectivePoint) -> TwistedCubic:
    """The b-locus for five point pairs and a fixed first center.

    Both configurations are normalized onto the standard frame by the
    integer maps of normalizing_transform; in those coordinates the locus is
    the rank-deficiency set of the 4 x 3 matrix with columns (alpha_i),
    (b_i), (alpha_i b_i), alpha the x-frame image of a. Row-reducing by the
    first nonzero alpha_i leaves a 3 x 2 matrix with entries linear in b
    whose three 2 x 2 minors cut out the curve; they are pulled back to the
    original coordinates of y in integers and made primitive.

    When the alpha_i are nonzero and pairwise distinct (a lies on none of
    the ten planes through three world points: the SmoothCubic case) the
    locus is the twisted cubic through the frame points and alpha, with the
    closed form b_i = alpha_i prod_{j != i} (t0 + alpha_j t1) in the y-frame.
    Pulled back to y it is sum_j y_j c_j b_j / D, with (D, c) the frame
    weights of y: the integer cubics are checked against the quadrics, and
    their division by D is ``param``; y_j (j = 1..4) sits at
    (-alpha_j : 1), y_5 at (0 : 1) and the point with y-frame coordinates
    alpha at (1 : 0). Otherwise ``param`` is None.
    """
    if x.n != 5 or y.n != 5 or x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("cubic_locus_n5 needs five points in P^3 on both sides")
    if not center_admissible(x, a, 5, "Moduli"):
        raise InadmissibleCenter("center lies on a line through two world points")
    alpha = apply_matrix(normalizing_transform(x.points), a)
    v = normalizing_transform(y.points)
    p = next(i for i in range(4) if alpha[i] != 0)
    rest = [i for i in range(4) if i != p]
    lin_l = {}
    lin_m = {}
    for i in rest:
        li = [0] * 4
        li[i], li[p] = alpha[p], -alpha[i]
        mi = [0] * 4
        mi[i] = alpha[i] * alpha[p]
        mi[p] = -mi[i]
        lin_l[i], lin_m[i] = Form(1, tuple(li)), Form(1, tuple(mi))
    quadrics_std = [lin_l[i] * lin_m[j] - lin_l[j] * lin_m[i]
                    for i, j in combinations(rest, 2)]
    quadrics = tuple(q.compose_linear(v).primitive() for q in quadrics_std)
    if any(_quadric_value(q, yi) for q in quadrics for yi in y.points):
        raise Inconsistent("curve does not pass through a base point")
    param = None
    if all(alpha.coords) and len(set(alpha.coords)) == 4:
        frame = [prod((BinaryForm([alpha[j], 1]) for j in range(4) if j != i),
                      start=BinaryForm([alpha[i]])) for i in range(4)]
        denominator, weights = _frame_weights(y.points)
        cubics = [BinaryForm(sum(yj[k] * c * f.coeffs[m]
                                 for yj, c, f in zip(y.points[:4], weights, frame))
                             for m in range(4)) for k in range(4)]
        if any(not restrict_to_param(q, cubics).is_zero() for q in quadrics):
            raise Inconsistent("parametrization does not satisfy the curve ideal")
        param = tuple(BinaryForm(Fraction(c, denominator) for c in f.coeffs) for f in cubics)
    return TwistedCubic(quadrics, tuple(y.points), param)


def restrict_to_param(q: Form, param: Sequence[BinaryForm]) -> BinaryForm:
    """The binary sextic q(P(t)) for a quadric q and a degree-3 parametrization."""
    total: BinaryForm | None = None
    for c, (i, j) in zip(q.coeffs, monomial_indices(2)):
        if c == 0:
            continue
        term = (param[i] * param[j]).scaled(c)
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


def classify_degeneration_n5(x: Configuration, a: ProjectivePoint) -> DegenerationTag:
    """How the five-point b-locus degenerates for a special first center.

    The cubic is smooth iff a avoids all planes through three world points;
    one such plane gives a line plus a conic, two give three lines, a center
    on a line through two points gives a line plus a plane, and a center at
    a world point leaves b unconstrained.
    """
    if x.n != 5 or x.ambient_dim != 3:
        raise InvalidInput("classify_degeneration_n5 needs five points in P^3")
    if a.dim != 3:
        raise InvalidInput("the center must be a point of P^3")
    if a in x.points:
        return DegenerationTag.ALL_OF_P3
    if any(collinear(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
        return DegenerationTag.LINE_PLUS_PLANE
    planes = sum(
        1 for i, j, k in combinations(range(5), 3)
        if bracket([x[i], x[j], x[k], a]) == 0)
    if planes == 0:
        return DegenerationTag.SMOOTH_CUBIC
    if planes == 1:
        return DegenerationTag.LINE_PLUS_CONIC
    return DegenerationTag.THREE_LINES


# ---------------------------------------------------------------------------
# n = 6


def _quadric_relations_n6(x: Configuration, y: Configuration
                          ) -> tuple[tuple, tuple, tuple[int, ...], tuple[int, ...]]:
    """(fx, fy, wx, wy): each side's cofactor vectors of the lifted t6
    quadrics (``invariants.t6_factors``) and their bracket relation
    (``invariants.t6_relation``). Raises DegenerateInput where
    quadric_pair_n6 refuses the six pairs as degenerate (see there), so the
    decision needs no quadric: a relation w = 0, the x side first, or w^x
    proportional to w^y, every 2 x 2 minor of the two 5-vectors zero."""
    fx, fy = t6_factors(x), t6_factors(y)
    wx, wy = t6_relation(x, fx), t6_relation(y, fy)
    for tag, w in (("x", wx), ("y", wy)):
        if not any(w):
            raise DegenerateInput(f"quadric relation on the {tag} side is not unique")
    if all(p * s == q * r for (p, q), (r, s) in combinations(zip(wx, wy), 2)):
        # e.g. for projectively equivalent configurations, where the center
        # locus is not confined to a quadric at all
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    return fx, fy, wx, wy


def quadric_pair_n6(x: Configuration, y: Configuration) -> tuple[Form, Form]:
    """The two quadric surfaces confining the centers for six point pairs, as
    primitive integer quadratic forms.

    Lifting t_0 .. t_4 of each configuration through a center z gives five
    quadrics t_k(z) = (u_k . z)(v_k . z), the u_k, v_k integer cofactor
    vectors of the bracket pairs (``invariants.t6_factors``). Their linear
    relation sum_k w_k t_k = 0 is an SL_4-invariant of the six points, a cubic
    in their brackets (``invariants.t6_relation``):

        w_0 = -[1234][1256][3456] - [1245][1346][2356]
        w_1 =  [1235][1346][2456]
        w_2 = -[1234][1356][2456]
        w_3 = -[1235][1246][3456]
        w_4 =  [1234][1256][3456]

    S_beta = sum_k w^y_k (u^x_k . z)(v^x_k . z) weights the x-quadrics by the
    y-relation, and S_alpha the y-quadrics by the x-relation; each is read
    off one 4 x 4 integer matrix sum_k w_k u_k v_k^T (_weighted_products)
    and made primitive. Each is checked on its six world points, each check
    one dot product with the point's cached degree-2 monomials
    (_quadric_value). Soundness: for a
    true pair (a, b) the lifted invariants agree up to a scalar s,
    t^x_k(a) = s t^y_k(b), so any relation of the y-quadrics gives
    S_beta(a) = s sum_k w^y_k t^y_k(b) = 0: every true a lies on S_beta, and
    every true b on S_alpha.

    Degeneracy is decided from the two relations alone
    (_quadric_relations_n6, which the generator calls too). The relation is
    refused as not unique exactly when w = 0. w is always a
    relation, so w != 0 makes the kernel of the 10 x 5 coefficient matrix at
    least one-dimensional. That it is then exactly one-dimensional, and that
    w = 0 leaves no one-dimensional kernel, rests on evidence, not a proof:
    on 120k six-point sets from the {-1, 0, 1} box the integer kernel had
    dimension 1 exactly when w != 0, and property tests compare the two on
    random, large and degenerate sets (coplanar, collinear, repeated and
    twisted-cubic points).

    The pair is refused as vanishing identically when w^x and w^y are
    proportional. That direction always holds: S_beta is then a multiple of
    sum_k w^x_k t^x_k = 0, and S_alpha of the y-relation. The converse rests
    on the same evidence: S_beta = 0 puts w^y in the kernel of the x-side
    matrix, spanned by w^x when it is one-dimensional. The is_zero guard
    stays for that unproven direction.
    """
    if x.n != 6 or y.n != 6 or x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("quadric_pair_n6 needs six points in P^3 on both sides")
    fx, fy, wx, wy = _quadric_relations_n6(x, y)
    s_beta, s_alpha = (Form(2, _weighted_products(w, f)).primitive()
                       for w, f in ((wy, fx), (wx, fy)))
    if s_beta.is_zero() or s_alpha.is_zero():
        # reached only if a side's relations spanned more than one dimension
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    if any(_quadric_value(s_beta, pt) for pt in x.points):
        raise Inconsistent("S_beta does not contain its world points")
    if any(_quadric_value(s_alpha, pt) for pt in y.points):
        raise Inconsistent("S_alpha does not contain its world points")
    return s_beta, s_alpha


def _weighted_products(weights: Sequence[int], factors) -> tuple[int, ...]:
    """The graded lex coefficients of sum_k w_k (u_k . z)(v_k . z), read off
    the integer matrix M = sum_k w_k u_k v_k^T, accumulated once (row-major,
    16 entries): M_ii for z_i^2 and M_ij + M_ji for z_i z_j."""
    outer = []
    for w, (u, v) in zip(weights, factors):
        u0, u1, u2, u3 = [w * c for c in u]
        v0, v1, v2, v3 = v
        outer.append((u0 * v0, u0 * v1, u0 * v2, u0 * v3, u1 * v0, u1 * v1, u1 * v2, u1 * v3,
                      u2 * v0, u2 * v1, u2 * v2, u2 * v3, u3 * v0, u3 * v1, u3 * v2, u3 * v3))
    m = list(map(sum, zip(*outer)))
    return (m[0], m[1] + m[4], m[2] + m[8], m[3] + m[12], m[5], m[6] + m[9], m[7] + m[13],
            m[10], m[11] + m[14], m[15])


def _quadric_value(q: Form, p: ProjectivePoint) -> int:
    """The integer form q at a point, as the dot product of q's int
    coefficients with the point's degree-2 monomials, built once per point
    (ProjectivePoint.quadratic_monomials): Form.integer_value of a primitive
    quadric, with no per-form set-up."""
    return sum(map(mul, q.coeffs, p.quadratic_monomials))


def _resected_center(x: Configuration, y: Configuration, a: ProjectivePoint) -> ProjectivePoint:
    """The center b of the camera P with P y_i proportional to q_i =
    project(x_i, a) for every i, by exact resection on a four-point frame.

    The frame (f_0, ..., f_3) and its vectors w_k are derived data of y
    (``Configuration.resection_frame``): the cofactor vector w_k of the other
    three frame points vanishes on them and not on y_{f_k}, so the cameras
    that fit the frame are P = sum_k lambda_k q_{f_k} w_k^T (that is
    Q Lambda A^T, A the frame's integer adjugate up to column signs). Each
    other point y_j adds the three integer rows
    sum_k lambda_k (w_k . y_j) (q_{f_k} x q_j) = 0, a 3(n - 4) x 4 system in
    lambda. No q_f is zero, so lambda -> P is injective onto the solution
    space of the 12-unknown linear resection (DLT, Hartley & Zisserman 7.1):
    both kernels have the same dimension, and P is a multiple of the DLT
    camera. lambda is the cofactor vector of the first three rows, in
    combinations order, that have a nonzero one; it spans the kernel exactly
    when every row is orthogonal to it (another scale of lambda only rescales
    P). The images q_i are the integer vectors of project's chart,
    a_k x_i - (x_i)_k a with coordinate k dropped, not made primitive; none
    is zero, as a is no world point. b is the cofactor vector of the rows of
    P, which spans its kernel, and is zero exactly when P has rank below 3.
    Raises InadmissibleCenter at a world point a, and NoRationalImage when
    the world points lie in a plane, or unless P is one rank-3 camera whose
    center is no world point."""
    if a in x.points:
        raise InadmissibleCenter("the center map is undefined at a world point")
    ac = a.coords
    k = 3 if ac[3] else next(i for i in range(4) if ac[i])
    q = [[ac[k] * xi[j] - xi[k] * ac[j] for j in range(4) if j != k]
         for xi in (p.coords for p in x.points)]
    frame = y.resection_frame
    if frame is None:
        raise NoRationalImage("the world points lie in a plane, so the resection is not unique")
    f, w, weights = frame
    rows = []
    for j, wj in weights:
        crosses = [cross(q[g], q[j]) for g in f]
        rows.extend([c * v[r] for c, v in zip(wj, crosses)] for r in range(3))
    lam = next((c for c in (cofactors(*t) for t in combinations(rows, 3)) if any(c)), None)
    if lam is None or any(sum(map(mul, row, lam)) for row in rows):
        dim = 0 if lam is not None else 4 - linalg.rank(rows)
        raise NoRationalImage(f"the resection has a {dim}-dimensional solution space")
    camera = outer_sum(lam, [q[g] for g in f], w)
    center = cofactors(*camera)
    if not any(center):
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(center)
    if b in y.points:
        raise NoRationalImage("the matched center is a world point")
    # b is not a world point, so every image P y_i is a nonzero vector
    if any(any(cross([sum(map(mul, row, yi.coords)) for row in camera], qi))
           for yi, qi in zip(y.points, q)):
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
    rng = random.Random(seed)
    p = through.coords
    if s.integer_value(p):
        raise InvalidInput("base point is not on the quadric")
    for _ in range(200):
        d = [rng.randint(-9, 9) for _ in range(4)]
        qd = s.integer_value(d)
        if qd == 0:
            continue
        mixed = s.integer_value([u + v for u, v in zip(p, d)]) - qd
        coords = [qd * u - mixed * v for u, v in zip(p, d)]
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
    """Leave-one-out quadrics and the isolated candidate centers they cut out.

    Each rational a-candidate carries its certified point in ``exact``; the
    b-candidate resected from it carries the resected point, and no other
    b-candidate is exact."""

    a_quadrics: tuple[Form, ...]
    b_quadrics: tuple[Form, ...]
    a_candidates: tuple[NumericPoint, ...]
    b_candidates: tuple[NumericPoint, ...]


def candidates_n7(x: Configuration, y: Configuration, tol: float = 1e-9,
                  seed: int = 0) -> CandidateSets:
    """Candidate centers for seven point pairs.

    Each leave-one-out six-point subproblem confines a to a quadric surface;
    the seven quadrics intersect in three isolated points (and likewise for
    b), which both sides locate numerically. A world point among the common
    zeros raises DegenerateInput: it is no center, and the seven quadrics of
    such an input do not cut out its center pairs. Rational a-candidates are
    certified exactly. The b of a certified a is not certified again: the
    camera sending every y_i to project(x_i, a) is unique and defined over
    Q, so resection over all seven correspondences (_resected_center) gives
    b exactly. It is checked on all seven b-quadrics and attached to the one
    b-candidate within projective distance 1e-6 (_nearest_candidates); no
    such candidate, two, or one another certified a took raises Inconsistent.
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
    # every quadric contains the six world points of its subset, so x_k is a
    # common zero exactly when the quadric of the subset without it vanishes there
    if any(_quadric_value(q, p) == 0
           for quads, w in ((a_quads, x), (b_quads, y)) for q, p in zip(quads, w.points)):
        raise DegenerateInput("a common zero of the leave-one-out quadrics is a world point")
    a_pts = [_with_certificate(p, a_quads) for p in a_pts]
    labels = [i for i, p in enumerate(a_pts) if p.exact is not None]
    b_exact = [_exact_point(_resected_center(x, y, a_pts[i].exact)) for i in labels]
    if any(_quadric_value(q, b.exact) for b in b_exact for q in b_quads):
        raise Inconsistent("the resected center is not on every b-quadric")
    b_pts = list(b_pts)
    near = _nearest_candidates(labels, [b.coords for b in b_exact], b_pts, Inconsistent)
    for j, b in zip(near, b_exact):
        b_pts[j] = b
    return CandidateSets(tuple(a_quads), tuple(b_quads), tuple(a_pts), tuple(b_pts))


def _exact_point(exact: ProjectivePoint) -> NumericPoint:
    return NumericPoint.from_vector(np.array([float(c) for c in exact.coords]), 0.0, exact=exact)


def _with_certificate(p: NumericPoint, quads: Sequence[Form]) -> NumericPoint:
    exact = certify_rational(quads, p)
    return p if exact is None else _exact_point(exact)


def _nearest_candidates(labels: Sequence[int], centers, candidates: Sequence[NumericPoint],
                        error: type[ToolkitError]) -> list[int]:
    """The index of the one candidate within projective distance 1e-6 of each
    center (resected from a-candidate labels[i]) that no earlier center took."""
    units = _unit_rows(np.array([c.coords for c in candidates]).reshape(-1, 4))
    taken: list[int] = []
    for label, row in zip(labels, _distances(_unit_rows(np.reshape(centers, (-1, 4))), units)):
        near = [j for j, d in enumerate(row) if d < 1e-6]
        if len(near) != 1 or near[0] in taken:
            raise error(f"a-candidate {label}: its resected center matches no single b-candidate "
                        f"({len(near)} within 1e-6{', already taken' if len(near) == 1 else ''}; "
                        f"the nearest at {min(row, default=1.0):.3e})")
        taken.append(near[0])
    return taken


_TRIPLES = tuple(combinations(range(7), 3))  # the 35 increasing triples of seven points
_TRIPLE_POINTS = np.array(_TRIPLES)
# the sorted lines of each even Fano permutation, as indices into _TRIPLES
_FANO_TRIPLES = np.array([[_TRIPLES.index(t) for t in lines] for lines in _EVEN_FANO_SORTED])


def _unit_bracket_forms(x: Configuration) -> np.ndarray:
    """The 35 x 4 floats whose row for the triple (i, j, k) of _TRIPLES is
    c / (|x_i| |x_j| |x_k|), c the exact cofactor vector of the triple
    (Configuration.cofactors_of): row . a is the bracket [x_i x_j x_k a] of
    the points scaled to unit norm. Where some c is past the float range,
    each point is scaled by 2**-e_i, e_i the bit length of its largest
    coordinate, and each c exactly by 2**-(e_i + e_j + e_k) before it is
    rounded."""
    cofs = [x.cofactors_of(*t) for t in _TRIPLES]
    coords = [p.coords for p in x.points]
    try:
        forms = np.array(cofs, dtype=float)
        norms = np.linalg.norm(np.array(coords, dtype=float), axis=1)
    except OverflowError:
        e = [max(map(abs, c)).bit_length() for c in coords]
        norms = np.linalg.norm(np.array([[v / (1 << s) for v in c] for c, s in zip(coords, e)]),
                               axis=1)
        forms = np.array([[v / (1 << (e[i] + e[j] + e[k])) for v in c]
                          for c, (i, j, k) in zip(cofs, _TRIPLES)])
    ni, nj, nk = norms[_TRIPLE_POINTS.T, None]
    return forms / ni / nj / nk


def fano15_complex(x: Configuration, a: Sequence) -> np.ndarray:
    """Floating-point lifted Fano vectors of (possibly complex) centers: one
    vector of 15 for one center, a k x 15 array for the k rows of a k x 4
    array, for the seven points and each center scaled to unit norm.

    A lifted bracket [x_i x_j x_k a] is a linear form in a, so the 35
    brackets of a center are one 35 x 4 matrix (_unit_bracket_forms) applied
    to it. Each entry is the product of the brackets of the seven sorted
    lines of its even permutation, as in fano15_lifted: sorting the lines of
    an even permutation leaves the product's sign as it is. Each center is
    normalized by its own norm call and its brackets are built elementwise,
    so its vector is bit for bit the one it gets alone."""
    forms = _unit_bracket_forms(x)
    av = np.asarray(a, dtype=complex)
    centers = np.array([c / np.linalg.norm(c) for c in av.reshape(-1, 4)], dtype=complex)
    centers = centers.reshape(-1, 4)
    brackets = (forms[:, 0] * centers[:, 0, None] + forms[:, 1] * centers[:, 1, None]
                + forms[:, 2] * centers[:, 2, None] + forms[:, 3] * centers[:, 3, None])
    # take, unlike brackets[:, _FANO_TRIPLES], returns a C-ordered k x 15 x 7
    # array, so each product runs over 7 contiguous entries whatever k is
    values = np.prod(np.take(brackets, _FANO_TRIPLES, axis=1), axis=-1)
    return values[0] if av.ndim == 1 else values


_MATCH_TOL = 1e-7
_EPS = np.cross(np.eye(3)[:, None], np.eye(3))  # [u, s, r]: (e_u x e_s)_r, the Levi-Civita symbol


@dataclass(frozen=True)
class MatchedPair:
    """One point of the centers-variety for n = 7, with match diagnostics."""

    a: NumericPoint
    b: NumericPoint
    invariant_distance: float


def _resected_centers(x: Configuration, y: Configuration, a: np.ndarray) -> np.ndarray:
    """_resected_center in floats for each row of the k x 4 complex array a,
    as unit rows: a complex DLT over all seven unit points (Hartley &
    Zisserman 7.1) with rows [B x_i]_x (I_3 (x) y_i^T) in the 12 entries of
    P, B the last three rows of a's conjugate SVD basis, so that B a = 0."""
    xs, ys = (_unit_rows(np.array([p.coords for p in w.points], dtype=float)) for w in (x, y))
    images = xs @ np.linalg.svd(a[:, None, :])[2][:, 1:].conj().transpose(0, 2, 1)
    rows = np.einsum("usr,kiu,it->kirst", _EPS, images, ys).reshape(len(a), -1, 12)
    cameras = np.linalg.svd(rows, full_matrices=False)[2][:, -1].conj().reshape(-1, 3, 4)
    return np.linalg.svd(cameras)[2][:, -1].conj()


def pair_candidates_n7(x: Configuration, y: Configuration,
                       a_candidates: Sequence[NumericPoint],
                       b_candidates: Sequence[NumericPoint]) -> list[MatchedPair]:
    """Pair each a-candidate with the b-candidate at its resected center.

    Candidates whose Fano vector is proportional to the all-ones direction
    are discarded (they see the seven points on a conic, which does not
    certify equivalence): the part of the unit Fano vector u off that line,
    |u - mean(u)| (_distances), is below _MATCH_TOL. Each kept a takes the
    one kept b within 1e-6 of the center of the camera resected from a over
    all seven correspondences (_resected_centers, the float form of the map
    that candidates_n7 applies exactly to a rational a); no such b, two, or
    one that another a took raises AmbiguousMatch, as does an exact center
    paired with an inexact one. The pairs follow the order of the
    a-candidates; each carries the sine distance between the two Fano
    vectors as a diagnostic.
    """
    ua, ub = (_unit_rows(fano15_complex(w, np.reshape([p.coords for p in cands], (-1, 4))))
              for w, cands in ((x, a_candidates), (y, b_candidates)))
    omega = [d for (d,) in _distances(np.vstack([ua, ub]), np.full((1, 15), 15 ** -0.5))]
    keep_a = [i for i in range(len(ua)) if omega[i] >= _MATCH_TOL]
    keep_b = [j for j in range(len(ub)) if omega[len(ua) + j] >= _MATCH_TOL]
    if not keep_a or len(keep_a) != len(keep_b):
        raise AmbiguousMatch(
            f"cannot match {len(keep_a)} a-candidates with {len(keep_b)} b-candidates")
    centers = _resected_centers(x, y, np.array([a_candidates[i].coords for i in keep_a]))
    match = _nearest_candidates(keep_a, centers, [b_candidates[j] for j in keep_b],
                                AmbiguousMatch)
    dist = _distances(ua[keep_a], ub[keep_b])
    pairs = []
    for i, j in enumerate(match):
        a, b = a_candidates[keep_a[i]], b_candidates[keep_b[j]]
        if (a.exact is None) != (b.exact is None):
            raise AmbiguousMatch("an exact center is matched with an inexact one")
        pairs.append(MatchedPair(a, b, dist[i][j]))
    return pairs


def _span_common_zero(quadrics: Sequence[Form]) -> tuple[int, ProjectivePoint | None]:
    """The rank of the span W of quadrics in P^3 and their one common zero.

    A common zero a gives the Veronese vector v_2(a) = (a^m)_m in the dual
    kernel of W. Rank 10 leaves no common zero. At rank 9 the kernel vector
    lambda, read as the symmetric matrix M[i][j] = lambda[e_i + e_j], equals
    c a a^T if a common zero a exists; M has rank 1 exactly then, and a is
    its nonzero row. A smaller rank raises Inconclusive.
    """
    kernel = linalg.integer_kernel([q.coeffs for q in quadrics])
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
    quadrics = [quadric_pair_n6(x.subset(c), y.subset(c))[0] for c in _solver_subsets(x.n)]
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
    rng = random.Random(seed)
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
    if any(c is not None and c.dim != 3 for c in (a, b)):
        raise InvalidInput("centers are points of P^3")
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
    kernel = linalg.kernel_basis([p.quadratic_monomials for p in x.points])
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
    net = [np.array(sym_from_quad(q), dtype=float) for q in quadric_net(x)]
    rng = random.Random(seed)
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
