"""Centers-variety computations, case by case in the number of points.

For two n-tuples in P^3, the locus of camera-center pairs (a, b) producing
projectively equivalent images is

* all of P^3 x P^3 for n <= 4 (a witness homography always exists),
* a fibration by twisted cubics for n = 5 (fixing a, the b-locus is the
  unique twisted cubic through the five world points and a, parametrized
  in closed form in the standard frame),
* a surface for n = 6: each center is confined to a quadric, held as its
  primitive integer quadratic form, and the two quadrics are in exact
  birational correspondence; b is the center of the camera sending each y_i
  to project(x_i, a), read in closed form from the frame weights that
  resection on a four-point frame of the world points finds,
* three isolated pairs for n = 7,
* generically empty for n >= 8 (a common zero of one side's quadrics over
  all usable 6-subsets, resected across and checked against all n points).

Everything through n = 6 and every n >= 8 verdict is exact over the rationals;
points on a quadric are tested and sampled in integers.
For n = 7 the quadric-system kernel certifies the zero set finite and locates
its points in floats; rational a's are certified exactly, and resection over
all seven points, on one overflow-safe float view per side, pairs a with b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (DegenerateCurve, DegenerateInput, InadmissibleCenter, Inconclusive,
                     Inconsistent, InvalidInput, NoRationalImage)
from .forms import (BinaryForm, Form, moment_positions, monomial_indices,
                    monomials, scaled_float)
from .invariants import _EVEN_FANO_SORTED, t6_factors, t6_relation, weddle_quartic
from .numeric import (NumericPoint, _distances, _unit_rows, certify_rational,
                      solve_quadric_system)
from .projective import (Configuration, ProjectivePoint, _frame_weights, apply_matrix,
                         bracket, canonical_coords, center_admissible, cofactors,
                         collinear, cross, homography_fit, no_three_collinear,
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
    independent points, completed greedily by standard unit vectors, which
    span the plane: a pass that kept fewer than three would have kept one."""
    cols = [p.coords for p in points]
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if len(cols) < 3 and linalg.rank(cols + [unit]) == len(cols) + 1:
            cols.append(unit)
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
    first nonzero alpha_p leaves a 3 x 2 matrix with entries linear in b
    whose three 2 x 2 minors cut out the curve. Read in y's own coordinates
    through the rows v_i of its map, row i (i != p) is the pair of integer
    linear forms l_i = alpha_p v_i - alpha_i v_p, m_i = alpha_i (v_i - v_p)
    (the common factor alpha_p of m_i dropped), and each minor
    l_i m_j - l_j m_i is read off sum_k w_k u_k v_k^T by the builder of the
    n = 6 surfaces (_weighted_products) and made primitive.

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
    if not center_admissible(x, a):
        raise InadmissibleCenter("center lies on a line through two world points")
    alpha = apply_matrix(normalizing_transform(x.points), a)
    v = normalizing_transform(y.points)
    p = next(i for i in range(4) if alpha[i] != 0)
    ap, vp = alpha[p], v[p]
    rows = [([ap * s - alpha[i] * t for s, t in zip(v[i], vp)],
             [alpha[i] * (s - t) for s, t in zip(v[i], vp)]) for i in range(4) if i != p]
    quadrics = tuple(Form(2, _weighted_products((1, -1), ((li, mj), (lj, mi)))).primitive()
                     for (li, mi), (lj, mj) in combinations(rows, 2))
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
    """The binary sextic q(P(t)) for a quadric q and a degree-3 parametrization.

    With p_r the vector of the four cubics' coefficients r, q(P(t)) is
    sum_{r, s} B(p_r, p_s) t_0^(r+s) t_1^(6-r-s), B the polar form of q, and
    2 B(u, v) = q(u + v) - q(u) - q(v): ten values of q (_quadric_at) and no
    products of binary forms."""
    if not any(q.coeffs):
        raise InvalidInput("cannot restrict the zero form")
    p = list(zip(*(f.coeffs for f in param)))
    values = [_quadric_at(q.coeffs, u) for u in p]
    out = [0] * (2 * len(p) - 1)
    for r, v in enumerate(values):
        out[2 * r] += v
    for r, s in combinations(range(len(p)), 2):
        out[r + s] += (_quadric_at(q.coeffs, [c + d for c, d in zip(p[r], p[s])])
                       - values[r] - values[s])
    return BinaryForm(out)


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
    quadric_pair_n6 refuses the six pairs as degenerate (_relations_defect),
    so the decision needs no quadric. A side refused for w = 0 is named with
    its cause (_relation_cause)."""
    fx, fy = t6_factors(x), t6_factors(y)
    wx, wy = t6_relation(x, fx), t6_relation(y, fy)
    defect = _relations_defect(wx, wy)
    if defect == "proportional":
        # e.g. for projectively equivalent configurations, where the center
        # locus is not confined to a quadric at all
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    if defect is not None:
        raise DegenerateInput(f"quadric relation on the {defect} side is not unique"
                              + _relation_cause(defect, x if defect == "x" else y))
    return fx, fy, wx, wy


def _relations_defect(wx: Sequence[int], wy: Sequence[int]) -> str | None:
    """Why the six pairs with bracket relations wx, wy are degenerate, or None
    when they are usable: "x" or "y" for a relation w = 0, the x side first,
    and "proportional" for w^x proportional to w^y, every 2 x 2 minor of the
    two 5-vectors zero. quadric_pair_n6 and the generator both decide by it."""
    if not any(wx):
        return "x"
    if not any(wy):
        return "y"
    if all(p * s == q * r for (p, q), (r, s) in combinations(zip(wx, wy), 2)):
        return "proportional"
    return None


def _relation_cause(tag: str, c: Configuration) -> str:
    """Why six points have w = 0, in the labels of the set they were taken
    from: the first two that coincide, else the first five in a plane, else
    nothing (no other cause was seen)."""
    pts, labels = c.points, c._index
    named = next((pair for pair in combinations(range(c.n), 2)
                  if pts[pair[0]] == pts[pair[1]]), None)
    verb = "coincide"
    if named is None:
        named = next((five for five in combinations(range(c.n), 5)
                      if linalg.rank([pts[i].coords for i in five]) < 4), None)
        verb = "lie in a plane"
    if named is None:
        return ""
    return f": {', '.join(f'{tag}_{labels[i]}' for i in named)} {verb}"


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
    one ten-term expression in the point's coordinates (_quadric_value).
    Soundness: for a
    true pair (a, b) the lifted invariants agree up to a scalar s,
    t^x_k(a) = s t^y_k(b), so any relation of the y-quadrics gives
    S_beta(a) = s sum_k w^y_k t^y_k(b) = 0: every true a lies on S_beta, and
    every true b on S_alpha.

    Degeneracy is decided from the two relations alone
    (_relations_defect, which the generator calls too). The relation is
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
    the integer matrix M = sum_k w_k u_k v_k^T in ten running sums: M_ii for
    z_i^2 and M_ij + M_ji for z_i z_j."""
    s00 = s01 = s02 = s03 = s11 = s12 = s13 = s22 = s23 = s33 = 0
    for w, ((u0, u1, u2, u3), (v0, v1, v2, v3)) in zip(weights, factors):
        u0, u1, u2, u3 = w * u0, w * u1, w * u2, w * u3
        s00 += u0 * v0
        s01 += u0 * v1 + u1 * v0
        s02 += u0 * v2 + u2 * v0
        s03 += u0 * v3 + u3 * v0
        s11 += u1 * v1
        s12 += u1 * v2 + u2 * v1
        s13 += u1 * v3 + u3 * v1
        s22 += u2 * v2
        s23 += u2 * v3 + u3 * v2
        s33 += u3 * v3
    return s00, s01, s02, s03, s11, s12, s13, s22, s23, s33


def _quadric_at(c: Sequence[int], z: Sequence[int]) -> int:
    """The quadric with graded lex coefficients c at the coordinates z, in
    ten terms grouped by the first coordinate of each monomial."""
    c00, c01, c02, c03, c11, c12, c13, c22, c23, c33 = c
    z0, z1, z2, z3 = z
    return (z0 * (c00 * z0 + c01 * z1 + c02 * z2 + c03 * z3) + z1 * (c11 * z1 + c12 * z2 + c13 * z3)
            + z2 * (c22 * z2 + c23 * z3) + c33 * z3 * z3)


def _quadric_value(q: Form, p: ProjectivePoint) -> int:
    """The integer form q at a point (_quadric_at): Form.integer_value of a
    primitive quadric, with no loop over its terms."""
    return _quadric_at(q.coeffs, p.coords)


# project's chart for the dropped coordinate k: (k, the three kept coordinates)
_CHARTS = ((0, 1, 2, 3), (1, 0, 2, 3), (2, 0, 1, 3), (3, 0, 1, 2))


def _resected_center(x: Configuration, y: Configuration, a: ProjectivePoint) -> ProjectivePoint:
    """The center b of the camera P with P y_i proportional to q_i =
    project(x_i, a) for every i, by exact resection on a four-point frame.

    On the frame f of y (``Configuration.resection_frame``), w_k, the
    cofactor vector of the other three frame points, vanishes on them and
    w_k . y_{f_k} = (-1)^(k+1) D, D = [y_{f_0} ... y_{f_3}] != 0. The cameras
    that fit the frame are P = sum_k lambda_k q_{f_k} w_k^T, and each other
    y_j adds the integer rows sum_k lambda_k (w_k . y_j) (q_{f_k} x q_j) = 0;
    no q_f is zero, so lambda -> P is injective onto the solution space of
    the 12-unknown DLT (Hartley & Zisserman 7.1). lambda is the first
    nonzero cofactor vector of three rows, in combinations order, made
    primitive, and spans the kernel exactly when every row is orthogonal to
    it; rows 0-2, one point's three rows, are always dependent and skipped.
    q_i is a_k x_i - (x_i)_k a on the three coordinates project keeps, k
    the one it drops (_CHARTS).

    P is not built. Its center is b = sum_k M_k prod_{j != k} lambda_j
    y_{f_k}, M_k the bracket of the frame images other than q_{f_k}: P b =
    D prod_k lambda_k sum_k (-1)^(k+1) M_k q_{f_k} = 0. So b is zero exactly
    when P has rank below 3, a single lambda_k = 0 gives y_{f_k}, and once
    lambda passes the rows P fits every correspondence. Raises
    InadmissibleCenter at a world point a, and NoRationalImage when the world
    points lie in a plane, or unless P is one rank-3 camera whose center is
    no world point.

    The kernel is unrolled on the frame: the four frame images and the
    weights w_k . y_j of each other point are unpacked once, each row is a
    4-tuple, and the four leave-one-out products of lambda come from
    lambda_0 lambda_1 and lambda_2 lambda_3. Each M_k is read as the lifted
    bracket [x_{f_i} x_{f_j} x_{f_l} a] of its three points, off x's cofactor
    table: on the chart dropping coordinate c, M_k is (-1)^(c+1) a_c^2 times
    it, one factor for all four."""
    ac, world = a.coords, [p.coords for p in x.points]
    if ac in world:
        raise InadmissibleCenter("the center map is undefined at a world point")
    k, i, j, m = _CHARTS[3 if ac[3] else 0 if ac[0] else 1 if ac[1] else 2]
    ak, ai, aj, am = ac[k], ac[i], ac[j], ac[m]
    q = [(ak * c[i] - c[k] * ai, ak * c[j] - c[k] * aj, ak * c[m] - c[k] * am) for c in world]
    frame = y.resection_frame
    if frame is None:
        raise NoRationalImage("the world points lie in a plane, so the resection is not unique")
    f, weights = frame
    q0, q1, q2, q3 = [q[g] for g in f]
    rows = []
    for g, (w0, w1, w2, w3) in weights:
        qg = q[g]
        (c00, c01, c02), (c10, c11, c12), (c20, c21, c22), (c30, c31, c32) = (
            cross(q0, qg), cross(q1, qg), cross(q2, qg), cross(q3, qg))
        rows += ((w0 * c00, w1 * c10, w2 * c20, w3 * c30),
                 (w0 * c01, w1 * c11, w2 * c21, w3 * c31),
                 (w0 * c02, w1 * c12, w2 * c22, w3 * c32))
    triples = islice(combinations(rows, 3), 1, None)  # not rows 0-2, always dependent
    lam = next((canonical_coords(c) for c in (cofactors(*t) for t in triples) if any(c)), None)
    if lam is None:
        raise NoRationalImage(
            f"the resection has a {4 - linalg.rank(rows)}-dimensional solution space")
    l0, l1, l2, l3 = lam
    if any(r0 * l0 + r1 * l1 + r2 * l2 + r3 * l3 for r0, r1, r2, r3 in rows):
        raise NoRationalImage("the resection has a 0-dimensional solution space")
    l01, l23 = l0 * l1, l2 * l3
    f0, f1, f2, f3 = f
    m0, m1, m2, m3 = (sum(map(mul, x.cofactors_of(*t), ac))
                      for t in ((f1, f2, f3), (f0, f2, f3), (f0, f1, f3), (f0, f1, f2)))
    b0, b1, b2, b3 = m0 * l1 * l23, m1 * l0 * l23, m2 * l01 * l3, m3 * l01 * l2
    center = [b0 * s + b1 * t + b2 * u + b3 * v
              for s, t, u, v in zip(*(y.points[g].coords for g in f))]
    if not any(center):
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(center)
    if b.coords in [p.coords for p in y.points]:
        raise NoRationalImage("the matched center is a world point")
    return b


def map_a_to_b_n6(x: Configuration, y: Configuration, a: ProjectivePoint,
                  pair: tuple[Form, Form] | None = None) -> ProjectivePoint:
    """The unique second center matching a first center on its quadric.

    The images are projectively equivalent exactly when some camera P sends
    every y_i to a multiple of q_i = project(x_i, a); b is P's center, read
    in closed form from a resection on a frame of four world points
    (_resected_center). Only a is checked, on S_beta: the resection proves
    the pair true. It returns b only for a rank-3 P with P y_i = mu_i q_i,
    i = 1..6, and mu_i != 0, as neither a nor b is a world point. So
    [y_i y_j y_k b] = c mu_i mu_j mu_k [x_i x_j x_k a], c != 0; t_0 .. t_4
    hold every point once and t_5 twice, so t6_lifted(y, b) is
    t6_lifted(x, a) weighted by sigma and sigma^2, sigma != 0, and
    S_alpha(b) = sigma sum_k w^x_k t^x_k(a) = 0 (quadric_pair_n6).
    """
    s_beta, _ = pair if pair is not None else quadric_pair_n6(x, y)
    if _quadric_value(s_beta, a):
        raise NoRationalImage("center is not exactly on its quadric surface")
    return _resected_center(x, y, a)


def map_b_to_a_n6(x: Configuration, y: Configuration, b: ProjectivePoint) -> ProjectivePoint:
    """Inverse of map_a_to_b_n6, the sides swapped: b is checked on S_alpha."""
    return map_a_to_b_n6(y, x, b, pair=quadric_pair_n6(x, y)[::-1])


def _directions():
    """The fixed walk of small integer vectors: every d in {-r..r}^4 with
    max |d_i| = r, for r = 1, 2, 3 in turn (80, 544 and 1776 of them), each
    shell in itertools.product order. The sampled points of n <= 4 and n = 6
    are read off it, so a report depends on its input alone."""
    for r in (1, 2, 3):
        for d in product(range(-r, r + 1), repeat=4):
            if max(map(abs, d)) == r:
                yield d


def sample_surface_point(s: Form, through: ProjectivePoint):
    """Rational points of the quadric: for each d of the walk (_directions),
    the residual intersection of the line p + t d through a known point p of
    the surface. With q(p) = 0, q(p + t d) = t (q(p + d) - q(d)) + t^2 q(d),
    so the second point is q(d) p - (q(p + d) - q(d)) d, in integers. A d
    with q(d) = 0 yields nothing; q(d) != 0 keeps d off p, so no point is
    zero, but one may be p (d tangent there) or repeat an earlier one. The
    probes q(d) and q(p + d) are ten terms each (_quadric_at); p, on the
    first request, and each point found are checked with Form.integer_value."""
    p = through.coords
    if s.integer_value(p):
        raise InvalidInput("base point is not on the quadric")
    c = s.coeffs
    for d in _directions():
        qd = _quadric_at(c, d)
        if qd == 0:
            continue
        mixed = _quadric_at(c, [u + v for u, v in zip(p, d)]) - qd
        pt = ProjectivePoint([qd * u - mixed * v for u, v in zip(p, d)])
        if s.integer_value(pt.coords):
            raise Inconsistent("the sampled point is not on the quadric")
        yield pt


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


def candidates_n7(x: Configuration, y: Configuration) -> CandidateSets:
    """Candidate centers for seven point pairs.

    Each leave-one-out six-point subproblem confines a to a quadric surface;
    the seven quadrics intersect in three isolated points (and likewise for
    b), which both sides locate numerically by one solve with no settings,
    so the candidates depend on the input alone. A world point among the
    common zeros raises DegenerateInput before either solve: it is no
    center, and the seven quadrics of such an input do not cut out its
    center pairs. The check is exact and reads only the quadrics (x_k is a
    common zero exactly when the quadric of the subset without it vanishes
    there), so it refuses such an input even where the floats cannot place
    its zeros (a multiple world point). Rational a-candidates are certified exactly.
    The b of a certified a is not certified again: the camera sending every
    y_i to project(x_i, a) is unique and defined over Q, so resection over
    all seven correspondences (_resected_center) gives b exactly. It is
    checked on all seven b-quadrics and attached to the one b-candidate
    within projective distance 1e-6 (_nearest_candidates); no such
    candidate, two, or one another certified a took raises Inconclusive, as
    does a short solve.
    """
    if x.n != 7 or y.n != 7:
        raise InvalidInput("candidates_n7 needs seven points on both sides")
    a_quads, b_quads = map(list, zip(*(quadric_pair_n6(x.drop(k), y.drop(k)) for k in range(7))))
    # every quadric contains the six world points of its subset, so x_k is a
    # common zero exactly when the quadric of the subset without it vanishes there
    if any(_quadric_value(q, p) == 0
           for quads, w in ((a_quads, x), (b_quads, y)) for q, p in zip(quads, w.points)):
        raise DegenerateInput("a common zero of the leave-one-out quadrics is a world point")
    a_pts = solve_quadric_system(a_quads)
    b_pts = solve_quadric_system(b_quads)
    a_pts = [_with_certificate(p, a_quads) for p in a_pts]
    labels = [i for i, p in enumerate(a_pts) if p.exact is not None]
    b_exact = [_exact_point(_resected_center(x, y, a_pts[i].exact)) for i in labels]
    if any(_quadric_value(q, b.exact) for b in b_exact for q in b_quads):
        raise Inconsistent("the resected center is not on every b-quadric")
    near = _nearest_candidates(labels, [b.coords for b in b_exact], b_pts)
    for j, b in zip(near, b_exact):
        b_pts[j] = b
    return CandidateSets(tuple(a_quads), tuple(b_quads), tuple(a_pts), tuple(b_pts))


def _exact_point(exact: ProjectivePoint) -> NumericPoint:
    (v,) = _scaled_rows([exact.coords], [max(map(abs, exact.coords)).bit_length()])
    return NumericPoint.from_vector(v, 0.0, exact=exact)


def _with_certificate(p: NumericPoint, quads: Sequence[Form]) -> NumericPoint:
    exact = certify_rational(quads, p)
    return p if exact is None else _exact_point(exact)


def _nearest_candidates(labels: Sequence[int], centers,
                        candidates: Sequence[NumericPoint]) -> list[int]:
    """The index of the one candidate within projective distance 1e-6 of each
    center (resected from a-candidate labels[i]) that no earlier center took."""
    units = _unit_rows(np.array([c.coords for c in candidates]).reshape(-1, 4))
    taken: list[int] = []
    for label, row in zip(labels, _distances(_unit_rows(np.reshape(centers, (-1, 4))), units)):
        near = [j for j, d in enumerate(row) if d < 1e-6]
        if len(near) != 1 or near[0] in taken:
            raise Inconclusive(
                f"a-candidate {label}: its resected center matches no single b-candidate "
                f"({len(near)} within 1e-6{', already taken' if len(near) == 1 else ''}; "
                f"the nearest at {min(row, default=1.0):.3e})")
        taken.append(near[0])
    return taken


_TRIPLES = tuple(combinations(range(7), 3))  # the 35 increasing triples of seven points
_TRIPLE_POINTS = np.array(_TRIPLES)
# the sorted lines of each even Fano permutation, as indices into _TRIPLES
_FANO_TRIPLES = np.array([[_TRIPLES.index(t) for t in lines] for lines in _EVEN_FANO_SORTED])


def _scaled_rows(rows: Sequence[Sequence[int]], exponents: Sequence[int]) -> np.ndarray:
    """Row r of the integers times 2**-exponents[r], each entry rounded once
    (int / int), the rule of Form.floats: it commutes with rounding, so it is
    float(v) * 2**-e bit for bit wherever float(v) is finite and normal."""
    scales = [1 << e for e in exponents]
    return np.array([v / s for row, s in zip(rows, scales) for v in row]).reshape(len(scales), -1)


def _float_view(x: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """The unit points (7 x 4) of seven points and their 35 x 4 unit bracket
    forms, row (i, j, k) of _TRIPLES being c / (|x_i| |x_j| |x_k|), c its exact
    cofactor vector: row . a = [x_i x_j x_k a] of the unit points. x_i is read
    at e_i, the bit length of its largest |coordinate|, and c at e_i + e_j +
    e_k (_scaled_rows), so no entry overflows."""
    coords = [p.coords for p in x.points]
    e = [max(map(abs, c)).bit_length() for c in coords]
    points = _scaled_rows(coords, e)
    norms = np.linalg.norm(points, axis=1)
    forms = _scaled_rows([x.cofactors_of(*t) for t in _TRIPLES],
                         [e[i] + e[j] + e[k] for i, j, k in _TRIPLES])
    ni, nj, nk = norms[_TRIPLE_POINTS.T, None]
    return points / norms[:, None], forms / ni / nj / nk


def fano15_complex(x: Configuration, a: Sequence) -> np.ndarray:
    """Floating-point lifted Fano vectors of (possibly complex) centers: one
    vector of 15 for one center, a k x 15 array for the k rows of a k x 4
    array, for the seven points and each center scaled to unit norm.

    A lifted bracket [x_i x_j x_k a] is a linear form in a, so the 35
    brackets of a center are the 35 x 4 forms of _float_view applied to it.
    Each entry is the product of the brackets of the seven sorted lines of
    its even permutation, as in fano15_lifted: sorting the lines of an even
    permutation leaves the product's sign as it is. Each center is normalized
    by its own norm call and its brackets are built elementwise, so its
    vector is bit for bit the one it gets alone."""
    return _fano15(_float_view(x)[1], a)


def _fano15(forms: np.ndarray, a: Sequence) -> np.ndarray:
    """fano15_complex from the 35 x 4 unit bracket forms of _float_view."""
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


def _resected_centers(xs: np.ndarray, ys: np.ndarray, a: np.ndarray) -> np.ndarray:
    """_resected_center in floats for each row of the k x 4 complex array a,
    as unit rows: a complex DLT over the unit points xs, ys of _float_view
    (Hartley & Zisserman 7.1) with rows [B x_i]_x (I_3 (x) y_i^T) in the 12
    entries of P, B the last three rows of a's conjugate SVD basis: B a = 0."""
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
    one that another a took raises Inconclusive, as does an exact center
    paired with an inexact one. The pairs follow the order of the
    a-candidates; each carries the sine distance between the two Fano
    vectors as a diagnostic. Both read each side's _float_view, every
    integer scaled by an exact power of two and rounded once, so coordinates
    past the float range end in a report or an error, never an overflow.
    """
    (xs, x_forms), (ys, y_forms) = _float_view(x), _float_view(y)
    ua, ub = (_unit_rows(_fano15(forms, np.reshape([p.coords for p in cands], (-1, 4))))
              for forms, cands in ((x_forms, a_candidates), (y_forms, b_candidates)))
    omega = [d for (d,) in _distances(np.vstack([ua, ub]), np.full((1, 15), 15 ** -0.5))]
    keep_a = [i for i in range(len(ua)) if omega[i] >= _MATCH_TOL]
    keep_b = [j for j in range(len(ub)) if omega[len(ua) + j] >= _MATCH_TOL]
    if not keep_a or len(keep_a) != len(keep_b):
        raise Inconclusive(
            f"cannot match {len(keep_a)} a-candidates with {len(keep_b)} b-candidates")
    centers = _resected_centers(xs, ys, np.array([a_candidates[i].coords for i in keep_a]))
    match = _nearest_candidates(keep_a, centers, [b_candidates[j] for j in keep_b])
    dist = _distances(ua[keep_a], ub[keep_b])
    pairs = []
    for i, j in enumerate(match):
        a, b = a_candidates[keep_a[i]], b_candidates[keep_b[j]]
        if (a.exact is None) != (b.exact is None):
            raise Inconclusive("an exact center is matched with an inexact one")
        pairs.append(MatchedPair(a, b, dist[i][j]))
    return pairs


def _span_common_zero(kernel: Sequence[int]) -> ProjectivePoint:
    """The one common zero of a span W of quadrics in P^3 of rank 9, read off
    the vector lambda spanning its dual kernel. A common zero a puts the
    Veronese vector v_2(a) = (a^m)_m in that kernel, so the symmetric matrix
    M[i][j] = lambda[e_i + e_j] equals c a a^T if a exists; M has rank 1
    exactly then, and a is its nonzero row. Raises NoRationalImage if not."""
    m = [[kernel[k] for k in row] for row in moment_positions()]
    if linalg.rank(m) != 1:
        raise NoRationalImage("the quadrics have no common zero")
    return ProjectivePoint(next(row for row in m if any(row)))


def _subset_walk(n: int):
    """Every 6-subset of range(n) once, as a sorted tuple: first the cyclic
    windows {i, i + 1, .., i + 5 mod n} for i = 0 .. n - 1, then the rest in
    itertools.combinations order. No list of the C(n, 6) subsets is built.
    The order is free: centers_n_ge8's verdict and span_rank do not depend on
    it, and its refusal for no usable subset is window 0's."""
    windows = dict.fromkeys(tuple(sorted((i + j) % n for j in range(6))) for i in range(n))
    yield from windows
    yield from (c for c in combinations(range(n), 6) if c not in windows)


def centers_n_ge8(x: Configuration, y: Configuration) -> EmptyN8:
    """Centers-variety for n >= 8 points, decided exactly.

    Every valid a lies on the S_beta quadric of each usable 6-subset (its
    quadric_pair_n6 raises no DegenerateInput), and every valid b on its
    S_alpha. The walk (_subset_walk) takes the n cyclic windows first, so
    that every point enters within n subsets, then the other 6-subsets in
    combinations order, generated lazily; a quadric joins its side's span
    only off the span's dual kernel (off a one-dimensional one, it leaves rank 10).
    It stops at the first proof: rank 10 on either side leaves no center; at
    rank 9 the side's one possible zero (_span_common_zero) is resected
    across over all n points, and a pair that passes is the only one, while
    a failure makes the verdict empty and the walk goes on only to tell rank
    9 from 10 (a side not ranked yet is ranked at the end). So the verdict
    and span_rank, the larger full-span rank, depend on neither the order
    nor the labels. Both sides below rank 9 raise Inconclusive with both
    ranks; no usable subset, the first subset's DegenerateInput.

    What span_rank costs: once a rank-9 candidate fails, the verdict is
    fixed, yet the walk goes on through up to all C(n, 6) subsets, one
    quadric_pair_n6 each, only to tell rank 9 from rank 10. The Inconclusive
    ending also comes only after the last subset.
    """
    if x.n < 8 or y.n != x.n:
        raise InvalidInput("centers_n_ge8 needs at least eight points")
    rows, kernels, empty, refusal = ([], []), [[], []], False, None
    for c in _subset_walk(x.n):
        try:
            pair = quadric_pair_n6(x.subset(c), y.subset(c))
        except DegenerateInput as exc:
            refusal = refusal or exc
            continue
        for side, q in enumerate(pair):
            kernel = kernels[side]
            if kernel and not any(sum(map(mul, q.coeffs, k)) for k in kernel):
                continue
            rows[side].append(q.coeffs)
            if len(rows[side]) < 9 or (empty and not kernel):
                continue
            kernel = kernels[side] = [] if len(kernel) == 1 else linalg.integer_kernel(rows[side])
            if not kernel:
                return EmptyN8(10, ())
            if len(kernel) > 1 or empty:
                continue
            try:
                zero = _span_common_zero(kernel[0])
                if side == 0:
                    return EmptyN8(9, ((zero, _resected_center(x, y, zero)),))
                return EmptyN8(9, ((_resected_center(y, x, zero), zero),))
            except (NoRationalImage, InadmissibleCenter):
                empty = True
    if not rows[0]:
        raise refusal
    rank_a, rank_b = map(linalg.rank, rows)
    if empty:
        return EmptyN8(max(rank_a, rank_b), ())
    raise Inconclusive(f"the quadrics span only {rank_a} (a-side) and {rank_b} (b-side) "
                       "of 10 dimensions", rank_a=rank_a, rank_b=rank_b)


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
    """n >= 8: the larger rank of the two sides' spans of quadrics and the
    exactly verified center pair (a, b), if one survives."""

    span_rank: int
    surviving: tuple[tuple[ProjectivePoint, ProjectivePoint], ...]


CentersVariety = EverythingN4 | CubicFibrationN5 | SurfacePairN6 | ThreePairsN7 | EmptyN8


def _generic_center(w: Configuration) -> ProjectivePoint:
    """The first of the walk's first 500 vectors (_directions), read as a
    point, that is no world point of w and from which w's images are in
    general position; DegenerateInput when there is none."""
    world = {p.coords for p in w.points}
    for d in islice(_directions(), 500):
        c = ProjectivePoint(d)
        if c.coords not in world and _general_position_image(
                Configuration([project(p, c) for p in w])):
            return c
    raise DegenerateInput("could not sample generic centers")


def centers_variety(x: Configuration, y: Configuration,
                    a: ProjectivePoint | None = None,
                    b: ProjectivePoint | None = None) -> CentersVariety:
    """Compute the centers-variety description appropriate to n = |X| = |Y|.
    a is read for n <= 6 and b for n <= 4; a center no step reads is refused.
    The sampled centers of n <= 4 and surface points of n = 6 come from one
    fixed walk (_directions), so the result depends on the input alone; at
    n = 6 its points on S_beta are read in one pass, world points and repeats
    skipped, until three map to a b or 40 have been tried."""
    if x.n != y.n:
        raise InvalidInput("configurations must have the same number of points")
    if x.ambient_dim != 3 or y.ambient_dim != 3:
        raise InvalidInput("world configurations live in P^3")
    if any(c is not None and c.dim != 3 for c in (a, b)):
        raise InvalidInput("centers are points of P^3")
    n = x.n
    for name, flag, center, n_max in (("a", "--center", a, 6), ("b", "--center-b", b, 4)):
        if center is not None and n > n_max:
            raise InvalidInput(f"n = {n} reads no center {name} ({flag}), only n <= {n_max}")
    if n <= 4:
        a = a if a is not None else _generic_center(x)
        b = b if b is not None else _generic_center(y)
        witness = centers_n_le4(x, y, a, b)
        return EverythingN4(a, b, tuple(tuple(row) for row in witness))
    if n == 5:
        if a is None:
            raise InvalidInput("n = 5 needs a first center to report the b-locus")
        return CubicFibrationN5(a, cubic_locus_n5(x, y, a), classify_degeneration_n5(x, a))
    if n == 6:
        pair = quadric_pair_n6(x, y)
        matched = None if a is None else map_a_to_b_n6(x, y, a, pair=pair)
        seen = {p.coords for p in x.points}
        sampled, tries = [], 0
        for sa in sample_surface_point(pair[0], x[0]):
            if sa.coords in seen:
                continue
            seen.add(sa.coords)
            tries += 1
            try:
                sampled.append((sa, map_a_to_b_n6(x, y, sa, pair=pair)))
            except NoRationalImage:
                pass
            if len(sampled) == 3 or tries == 40:
                break
        return SurfacePairN6(pair[0], pair[1], tuple(sampled), a, matched)
    if n == 7:
        cand = candidates_n7(x, y)
        pairs = pair_candidates_n7(x, y, cand.a_candidates, cand.b_candidates)
        return ThreePairsN7(tuple(pairs), cand)
    return centers_n_ge8(x, y)


# ---------------------------------------------------------------------------
# Weddle curve


def quadric_net(x: Configuration) -> list[Form]:
    """Exact basis of the net of quadrics through seven points of P^3."""
    if x.n != 7 or x.ambient_dim != 3:
        raise InvalidInput("quadric_net needs seven points in P^3")
    kernel = linalg.kernel_basis([[c[i] * c[j] for i, j in monomial_indices(2)]
                                  for c in (p.coords for p in x.points)])
    if len(kernel) != 3:
        raise DegenerateInput("quadrics through the seven points do not form a net")
    return [Form(2, tuple(v)) for v in kernel]


def weddle_curve_point(x: Configuration, seed: int = 0) -> tuple[NumericPoint, list[float]]:
    """A point of the common curve of the seven leave-one-out Weddle surfaces.

    Takes a random pencil M1 + t M2 in the net of quadrics through the seven
    points. Its singular members are at the eigenvalues t of -M2^{-1} M1, and
    the eigenvector of the chosen one is the vertex (kernel vector) of that
    singular quadric; it is returned together with its residuals on the
    seven Weddle quartics. The net's symmetric matrices are read in floats
    at one exponent for the whole net, and each quartic at its own
    (Form.floats), so no coefficient overflows; the eigenvectors and the
    normalized quartics do not see those powers of two.
    """
    quads = quadric_net(x)
    e = max((c.numerator.bit_length() - c.denominator.bit_length()
             for q in quads for c in q.coeffs if c), default=0)
    # entry (i, j) is c on the diagonal and c / 2 off it, read at 2**-e
    net = [np.array([[scaled_float(q.coeffs[k], e + (i != j)) for j, k in enumerate(row)]
                     for i, row in enumerate(moment_positions())]) for q in quads]
    rng = random.Random(seed)
    quartics = None  # the normalized leave-one-out quartics, read once
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
        if quartics is None:
            quartics = [np.array(weddle_quartic(x.drop(k)).form.floats) for k in range(7)]
            for coeff in quartics:
                coeff /= np.linalg.norm(coeff)
        unit = vertex / np.linalg.norm(vertex)
        vals = np.array([np.prod(unit ** np.array(m)) for m in monomials(4)], dtype=complex)
        residuals = [float(abs(coeff @ vals)) for coeff in quartics]
        if max(residuals) < 1e-7:
            return NumericPoint.from_vector(vertex, max(residuals)), residuals
    raise DegenerateInput("could not locate a Weddle-curve point at tolerance")
