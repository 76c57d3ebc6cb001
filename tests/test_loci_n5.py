import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from operator import mul

import pytest

from centersvar import linalg, loci
from centersvar.datagen import CENTER_KINDS, generate_degenerate, generate_reconstruction
from centersvar.errors import (DegenerateInput, InadmissibleCenter, Inconsistent,
                               ToolkitError)
from centersvar.forms import BinaryForm, Form, monomials, same_span
from centersvar.invariants import g5_lifted
from centersvar.loci import (CubicFibrationN5, DegenerationTag, TwistedCubic, centers_n_le4,
                             centers_variety, classify_degeneration_n5, cubic_locus_n5,
                             cubic_param_n5, restrict_to_param)
from centersvar.projective import (Configuration, ProjectivePoint, apply_matrix,
                                   center_admissible, collinear, normalizing_transform, pp,
                                   project)
from test_loci_n7 import _unimodular

STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
GOLDEN_A = pp(43, -50, 6, -5)

MONOS = monomials(2)


def mono_form(entries):
    c = [Fraction(0)] * 10
    for exp, val in entries.items():
        c[MONOS.index(exp)] = Fraction(val)
    return Form(2, tuple(c))


GOLDEN_QUADRICS = [
    mono_form({(0, 1, 1, 0): 28, (0, 1, 0, 1): 27, (0, 0, 1, 1): -55}),
    mono_form({(1, 0, 1, 0): 185, (1, 0, 0, 1): 288, (0, 0, 1, 1): -473}),
    mono_form({(1, 1, 0, 0): 31, (1, 0, 0, 1): -160, (0, 1, 0, 1): 129}),
]


class TestCubicLocus:
    def test_golden_span(self):
        curve = cubic_locus_n5(STD5, STD5, GOLDEN_A)
        assert same_span(curve.quadrics, GOLDEN_QUADRICS)

    def test_base_points_on_curve(self):
        curve = cubic_locus_n5(STD5, STD5, GOLDEN_A)
        assert all(curve.contains(p) for p in STD5)
        assert curve.contains(GOLDEN_A)

    def test_inadmissible_center(self):
        with pytest.raises(InadmissibleCenter):
            cubic_locus_n5(STD5, STD5, pp(1, 1, 0, 0))

    def test_degenerate_world_points(self):
        bad = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(DegenerateInput):
            cubic_locus_n5(bad, STD5, GOLDEN_A)

    def test_oracle_b_true_on_curve(self):
        for seed in range(3):
            rec = generate_reconstruction(5, seed=seed)
            curve = cubic_locus_n5(rec.x, rec.y, rec.a_true)
            assert curve.contains(rec.b_true)
            assert all(curve.contains(p) for p in rec.y)

    def test_completeness_off_the_curve(self):
        # points off the locus never satisfy the invariant proportionality
        rec = generate_reconstruction(5, seed=7)
        curve = cubic_locus_n5(rec.x, rec.y, rec.a_true)
        base = g5_lifted(rec.x, rec.a_true)
        rng = random.Random(7)
        misses = 0
        while misses < 20:
            b = pp(*[rng.randint(-30, 30) or 1 for _ in range(4)])
            if curve.contains(b):
                continue
            v = g5_lifted(rec.y, b)
            assert v.non_semistable or not base.proportional(v)
            misses += 1


class TestCubicParam:
    def setup_method(self):
        self.curve = cubic_locus_n5(STD5, STD5, GOLDEN_A)
        self.param = cubic_param_n5(self.curve)

    def test_degree_three_coordinates(self):
        assert [p.degree for p in self.param] == [3, 3, 3, 3]

    def test_satisfies_ideal_at_ten_parameters(self):
        for k in range(10):
            t = (Fraction(k - 4), Fraction(1)) if k else (Fraction(1), Fraction(0))
            pt = [p(*t) for p in self.param]
            assert any(pt)
            assert all(q(pt) == 0 for q in self.curve.quadrics)

    def test_hits_all_base_points_at_distinct_parameters(self):
        params = base_params(STD5, GOLDEN_A)
        assert len({(t0, t1) for t0, t1 in params}) == 5
        for bp, t in zip(STD5, params):
            assert self.curve.at(*t) == bp

    def test_random_plane_section_has_degree_three(self):
        rng = random.Random(1)
        for _ in range(5):
            h = [rng.randint(-9, 9) for _ in range(4)]
            section = None
            for c, p in zip(h, self.param):
                term = p.scaled(c)
                section = term if section is None else section + term
            assert section is not None and not section.is_zero()
            assert section.degree == 3  # three roots in P^1 with multiplicity

    def test_sound_on_fifty_parameters(self):
        base = g5_lifted(STD5, GOLDEN_A)
        count = 0
        for k in range(-25, 25):
            b = self.curve.at(Fraction(k), Fraction(1))
            v = g5_lifted(STD5, b)
            if v.non_semistable:
                continue  # b hit a secant line; outside the admissible locus
            assert base.proportional(v)
            count += 1
        assert count >= 45


def _ratio(t):
    t0, t1 = t
    return t0 / t1 if t1 else None


def base_params(x, a):
    """The documented parameters of the closed form of cubic_locus_n5: with
    alpha the x-frame image of a, y_j (j = 1..4) sits at (-alpha_j : 1) and
    y_5 at (0 : 1)."""
    alpha = apply_matrix(normalizing_transform(x.points), a)
    return [(-c, 1) for c in alpha.coords] + [(0, 1)]


def center_param(x, y, a, b):
    """The parameter of a point b of the closed form of cubic_locus_n5: with
    alpha and beta the frame images of a and b, beta_i alpha_k (t0 + alpha_i
    t1) = beta_k alpha_i (t0 + alpha_k t1) for any i != k; i = 0, k = 1."""
    alpha = apply_matrix(normalizing_transform(x.points), a)
    beta = apply_matrix(normalizing_transform(y.points), b)
    (a0, a1), (b0, b1) = alpha.coords[:2], beta.coords[:2]
    return (-a0 * a1 * (b0 - b1), b0 * a1 - b1 * a0)


class TestClosedFormParam:
    """Generated pairs have x != y, so the frame parametrization is pulled
    back to y through a frame matrix other than the identity."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pulled_back_param(self, seed):
        rec = generate_reconstruction(5, seed=seed)
        curve = cubic_locus_n5(rec.x, rec.y, rec.a_true)
        param = cubic_param_n5(curve)
        assert [p.degree for p in param] == [3, 3, 3, 3]
        assert all(restrict_to_param(q, param).is_zero() for q in curve.quadrics)
        points = (rec.b_true,) + rec.y.points
        params = [center_param(rec.x, rec.y, rec.a_true, rec.b_true)]
        params += base_params(rec.x, rec.a_true)
        assert len({_ratio(t) for t in params}) == 6
        for p, t in zip(points, params):
            assert curve.at(*t) == p
        base = g5_lifted(rec.x, rec.a_true)
        checked = 0
        for k in range(-10, 10):
            v = g5_lifted(rec.y, curve.at(Fraction(k), Fraction(1)))
            if v.non_semistable:
                continue
            assert base.proportional(v)
            checked += 1
        assert checked >= 15

    def test_param_exactly_for_smooth_cubics(self):
        cases = []
        for seed in range(5):
            rec = generate_reconstruction(5, seed=seed)
            cases.append((rec.x, rec.y, rec.a_true))
            for kind in ("GenericCenter", "CoplanarCenter", "BiplanarCenter",
                         "CollinearCenter", "CenterAtWorldPoint"):
                x, a = generate_degenerate(kind, seed=seed)
                cases.append((x, rec.y, a))
        for x, y, a in cases:
            tag = classify_degeneration_n5(x, a)
            if tag in (DegenerationTag.LINE_PLUS_PLANE, DegenerationTag.ALL_OF_P3):
                with pytest.raises(InadmissibleCenter):
                    cubic_locus_n5(x, y, a)
                continue
            smooth = tag == DegenerationTag.SMOOTH_CUBIC
            assert (cubic_locus_n5(x, y, a).param is not None) == smooth

    def test_failed_ideal_check_is_inconsistent(self, monkeypatch):
        from centersvar import loci
        from centersvar.forms import BinaryForm
        monkeypatch.setattr(loci, "restrict_to_param", lambda q, param: BinaryForm([1]))
        with pytest.raises(Inconsistent):
            cubic_locus_n5(STD5, STD5, GOLDEN_A)


def ref_frame_matrix(points):
    """The frame matrix in Fractions: its columns are the first four points
    scaled by the s that solve B s = p_5, B those points as columns."""
    base = [[Fraction(p[i]) for p in points[:4]] for i in range(4)]
    inv = linalg.inverse(base)
    scales = None if inv is None else [sum(map(mul, row, points[4].coords)) for row in inv]
    if scales is None or 0 in scales:
        raise DegenerateInput("points do not form a projective frame")
    return [[v * s for v, s in zip(row, scales)] for row in base]


def ref_cubic_locus_n5(x, y, a):
    """cubic_locus_n5 by the Fraction route: both sides normalized by
    linalg.inverse of their Fraction frame matrices, the standard-frame
    quadrics composed in Fractions and the parametrization built and checked
    in Fraction binary forms."""
    if not center_admissible(x, a):
        raise InadmissibleCenter("center lies on a line through two world points")
    u = linalg.inverse(ref_frame_matrix(x.points))
    v = linalg.inverse(ref_frame_matrix(y.points))
    alpha = [Fraction(c) for c in apply_matrix(u, a).coords]
    p = next(i for i in range(4) if alpha[i] != 0)
    rest = [i for i in range(4) if i != p]
    lin_l, lin_m = {}, {}
    for i in rest:
        li, mi = [Fraction(0)] * 4, [Fraction(0)] * 4
        li[i], li[p] = alpha[p], -alpha[i]
        mi[i], mi[p] = alpha[i] * alpha[p], -alpha[i] * alpha[p]
        lin_l[i], lin_m[i] = Form(1, tuple(li)), Form(1, tuple(mi))
    quadrics = tuple((lin_l[i] * lin_m[j] - lin_l[j] * lin_m[i]).compose_linear(v).primitive()
                     for i, j in combinations(rest, 2))
    if any(q(yi.coords) != 0 for yi in y for q in quadrics):
        raise Inconsistent("curve does not pass through a base point")
    param = None
    if all(alpha) and len(set(alpha)) == 4:
        frame = [prod((BinaryForm([alpha[j], Fraction(1)]) for j in range(4) if j != i),
                      start=BinaryForm([alpha[i]])) for i in range(4)]
        param = tuple(BinaryForm(sum(m * f.coeffs[k] for m, f in zip(row, frame))
                                 for k in range(4))
                      for row in ref_frame_matrix(y.points))
        if any(not restrict_to_param(q, param).is_zero() for q in quadrics):
            raise Inconsistent("parametrization does not satisfy the curve ideal")
    return CubicFibrationN5(a, TwistedCubic(quadrics, y.points, param),
                            classify_degeneration_n5(x, a))


def locus_outcome(fn, *args):
    """The report's content with the type of every coefficient, or the
    error's type and message."""
    try:
        result = fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    curve = result.cubic
    param = None if curve.param is None else [
        [(c, type(c)) for c in f.coeffs] for f in curve.param]
    return ([[(c, type(c)) for c in q.coeffs] for q in curve.quadrics],
            curve.base_points, param, result.degeneration)


class TestIntegerLocus:
    """cubic_locus_n5 builds in integers what the Fraction route builds."""

    @pytest.mark.parametrize("bound", [10, 10 ** 3, 10 ** 6, 10 ** 12])
    def test_generated_instances_match_the_fraction_route(self, bound):
        for seed in range(8):
            rec = generate_reconstruction(5, seed=seed, coord_bound=bound)
            got = locus_outcome(centers_variety, rec.x, rec.y, rec.a_true)
            assert got == locus_outcome(ref_cubic_locus_n5, rec.x, rec.y, rec.a_true)
            assert got[2] is not None

    def test_center_kinds_match_the_fraction_route(self):
        kinds = {}
        for seed in range(8):
            y = generate_reconstruction(5, seed=seed).y
            for kind in ("GenericCenter", "CoplanarCenter", "BiplanarCenter",
                         "CollinearCenter", "CenterAtWorldPoint"):
                x, a = generate_degenerate(kind, seed=seed)
                for pair in ((x, y), (x, x), (y, x)):
                    got = locus_outcome(centers_variety, *pair, a)
                    assert got == locus_outcome(ref_cubic_locus_n5, *pair, a)
                    kinds[got[0] if type(got[0]) is type else got[3]] = True
        assert set(kinds) == {InadmissibleCenter, *DegenerationTag} - {
            DegenerationTag.LINE_PLUS_PLANE, DegenerationTag.ALL_OF_P3}

    def test_non_frames_are_refused_alike(self):
        bad = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1)])
        for x, y in ((bad, STD5), (STD5, bad)):
            got = locus_outcome(centers_variety, x, y, GOLDEN_A)
            assert got == (DegenerateInput, "points do not form a projective frame")
            assert got == locus_outcome(ref_cubic_locus_n5, x, y, GOLDEN_A)


class TestDegenerationClassifier:
    def test_all_five_cases_from_generator(self):
        expected = {
            "GenericCenter": DegenerationTag.SMOOTH_CUBIC,
            "CoplanarCenter": DegenerationTag.LINE_PLUS_CONIC,
            "BiplanarCenter": DegenerationTag.THREE_LINES,
            "CollinearCenter": DegenerationTag.LINE_PLUS_PLANE,
            "CenterAtWorldPoint": DegenerationTag.ALL_OF_P3,
        }
        for kind, tag in expected.items():
            x, a = generate_degenerate(kind, seed=5)
            assert classify_degeneration_n5(x, a) == tag

    def test_golden_center_is_generic(self):
        assert classify_degeneration_n5(STD5, GOLDEN_A) == DegenerationTag.SMOOTH_CUBIC

    def test_standard_degenerations(self):
        assert classify_degeneration_n5(STD5, pp(1, 2, 3, 0)) == DegenerationTag.LINE_PLUS_CONIC
        assert classify_degeneration_n5(STD5, pp(1, 2, 0, 0)) == DegenerationTag.LINE_PLUS_PLANE
        assert classify_degeneration_n5(STD5, pp(0, 0, 1, 0)) == DegenerationTag.ALL_OF_P3


class TestLinePlusConicStructure:
    def test_components_carry_the_quadric_span(self):
        from centersvar import linalg
        x, a = generate_degenerate("CoplanarCenter", seed=9)
        curve = cubic_locus_n5(x, x, a)
        triple = next(
            (i, j, k) for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)
            if linalg.det([x[i].coords, x[j].coords, x[k].coords, a.coords]) == 0)
        comp = [i for i in range(5) if i not in triple]
        p, q = x[comp[0]], x[comp[1]]
        # line component: five sample points on the complementary secant line
        for s, t in [(1, 1), (1, 2), (2, 1), (3, -1), (-2, 5)]:
            coords = [s * p[i] + t * q[i] for i in range(4)]
            assert all(qf(coords) == 0 for qf in curve.quadrics)
        # conic component: the quadrics restrict to one common conic in the plane
        basis = [list(x[i].fractions()) for i in triple]

        def plane_point(u, v, w):
            return [u * basis[0][i] + v * basis[1][i] + w * basis[2][i] for i in range(4)]

        nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        restricted = [[Fraction(qf(plane_point(*node))) for node in nodes]
                      for qf in curve.quadrics]
        nonzero = [r for r in restricted if any(r)]
        assert nonzero
        for r in nonzero[1:]:
            assert all(nonzero[0][i] * r[j] == nonzero[0][j] * r[i]
                       for i in range(6) for j in range(6))
        vals = nonzero[0]
        # conic coefficients in (u, v, w); the triple's points lie on it
        c0, c1, c2 = vals[0], vals[1], vals[2]
        c3, c4, c5 = vals[3] - c0 - c1, vals[4] - c0 - c2, vals[5] - c1 - c2
        assert c0 == c1 == c2 == 0
        # five rational conic points via lines through the plane point (1, 0, 0)
        found = 0
        rng = random.Random(3)
        while found < 5:
            dv, dw = rng.randint(-9, 9), rng.randint(-9, 9)
            if c5 * dv * dw == 0:
                continue
            s = -Fraction(c3 * dv + c4 * dw, c5 * dv * dw)
            coords = plane_point(1, s * dv, s * dw)
            if not any(coords):
                continue
            assert all(qf(coords) == 0 for qf in curve.quadrics)
            found += 1


def test_frame_fill_completes_every_general_position_set_of_at_most_three():
    # the greedy completion needs no rank check after it: every ordered set
    # of one to three independent points of P^2 ends as three independent
    # columns, the points first
    box = sorted({ProjectivePoint(v) for v in product(range(-2, 3), repeat=3)
                  if any(v)}, key=lambda p: p.coords)
    filled = 0
    for k in (1, 2, 3):
        for points in permutations(box[::3] if k == 3 else box, k):
            if k == 3 and collinear(*points):
                continue
            cols = loci._frame_fill(points)
            assert cols[:k] == [p.coords for p in points] and linalg.rank(cols) == 3
            filled += 1
    assert filled > 5000


def ref_frame_fill(points):
    """The n <= 3 frame completion in Fractions: columns, then the matrix."""
    cols = [list(p.fractions()) for p in points]
    for e in range(3):
        if len(cols) == 3:
            break
        unit = [Fraction(int(i == e)) for i in range(3)]
        if linalg.rank(cols + [unit]) == len(cols) + 1:
            cols.append(unit)
    mat = [list(row) for row in zip(*cols)]
    if linalg.det(mat) == 0:
        raise DegenerateInput("cannot complete the points to a frame")
    return mat


def ref_witness_n_le3(x, y, a, b):
    """The n <= 3 witness as F_q inverse(F_p), F the Fraction filled frames."""
    p = Configuration([project(xi, a) for xi in x])
    q = Configuration([project(yi, b) for yi in y])
    if any(linalg.rank([pt.coords for pt in c]) != c.n for c in (p, q)):
        raise DegenerateInput("projected points are not in general position")
    fq, inv = ref_frame_fill(q.points), linalg.inverse(ref_frame_fill(p.points))
    h = [[sum((Fraction(fq[i][k]) * inv[k][j] for k in range(3)), Fraction(0))
          for j in range(3)] for i in range(3)]
    if any(apply_matrix(h, pi) != qi for pi, qi in zip(p, q)):
        raise Inconsistent("witness homography failed verification")
    return h


def outcome(fn, *args):
    try:
        h = fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return h, [type(v) for row in h for v in row]


class TestSmallN:
    @pytest.mark.parametrize("bound", [2, 10 ** 6])
    def test_witness_below_four_points_matches_the_fraction_route(self, bound):
        rng = random.Random(bound)
        witnesses = 0
        for _ in range(150):
            n = rng.randint(1, 3)
            x, y = (Configuration([[rng.randint(-bound, bound) or 1 for _ in range(4)]
                                   for _ in range(n)]) for _ in range(2))
            a, b = (pp(*(rng.randint(-bound, bound) or 1 for _ in range(4))) for _ in range(2))
            if a in x.points or b in y.points:
                continue
            got = outcome(centers_n_le4, x, y, a, b)
            assert got == outcome(ref_witness_n_le3, x, y, a, b)
            witnesses += got[0] is not DegenerateInput
        assert witnesses >= 60


    def test_n4_generic_witness(self):
        rec = generate_reconstruction(4, seed=0)
        h = centers_n_le4(rec.x, rec.y, rec.a_true, rec.b_true)
        assert h is not None

    def test_n3_always_equivalent(self):
        rec = generate_reconstruction(3, seed=0)
        h = centers_n_le4(rec.x, rec.y, rec.a_true, rec.b_true)
        assert h is not None

    def test_sampled_centers_are_the_first_generic_points_of_the_walk(self):
        # each side on its own: (1:1:1:1) is a world point of X, and from
        # (1:1:1:0) three images of X lie on one line, so a is the third
        # walk point and b the first
        x = Configuration([(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        result = centers_variety(x, y)
        assert (result.a, result.b) == (pp(-1, -1, -1, 1), pp(1, 1, 1, 1))
        assert centers_variety(x, y, b=pp(1, 2, 3, 4)).a == result.a
        collinear = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
        with pytest.raises(DegenerateInput, match="could not sample generic centers"):
            centers_variety(collinear, collinear)

    def test_collinear_image_rejected(self):
        x = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)])
        y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        a = pp(1, 2, 3, 4)
        # the first three x-points are collinear in P^3, hence in any image
        with pytest.raises(DegenerateInput):
            centers_n_le4(x, y, a, a)


def _five_point_inputs():
    """(x, y, a): generated instances at their true center and at a random
    one, and each special center kind against a generated y."""
    rng = random.Random(55)
    for seed in range(6):
        rec = generate_reconstruction(5, seed=seed)
        yield rec.x, rec.y, rec.a_true
        yield rec.x, rec.y, pp(*(rng.randint(-9, 9) or 1 for _ in range(4)))
        for kind in ("CoplanarCenter", "BiplanarCenter", "CollinearCenter",
                     "CenterAtWorldPoint"):
            x, a = generate_degenerate(kind, seed=seed)
            yield x, rec.y, a


def _ideal(x, y, a):
    """The quadrics of the b-locus of a, or the code of the refusal."""
    try:
        return cubic_locus_n5(x, y, a).quadrics
    except ToolkitError as exc:
        return exc.code


def _same_ideal(got, want):
    if isinstance(want, str):
        return got == want
    return not isinstance(got, str) and same_span(got, want)


def _relabelled(x, y, a, rng):
    perm = rng.sample(range(5), 5)
    return (Configuration([x[i] for i in perm]), Configuration([y[i] for i in perm]), a,
            lambda quadrics: quadrics)


def _moved_x(x, y, a, rng):
    h = _unimodular(rng)
    return x.transformed(h), y, apply_matrix(h, a), lambda quadrics: quadrics


def _moved_y(x, y, a, rng):
    h = _unimodular(rng)
    return x, y.transformed(h), a, lambda quadrics: [q.compose_linear(h) for q in quadrics]


@pytest.mark.parametrize("transform", [_relabelled, _moved_x, _moved_y],
                         ids=["relabel", "homography-x", "homography-y"])
def test_five_point_loci_follow_the_symmetries_of_the_problem(transform):
    # relabelling both sides alike keeps the ideal of the b-locus; a det +-1
    # homography H on X moves a to H a and keeps it, and one on Y pulls it
    # back along H; a refused center is refused alike
    rng = random.Random(5)
    kinds = set()
    for x, y, a in _five_point_inputs():
        before = _ideal(x, y, a)
        tx, ty, ta, pull_back = transform(x, y, a, rng)
        after = _ideal(tx, ty, ta)
        assert _same_ideal(after if isinstance(after, str) else pull_back(after), before)
        kinds.add(before if isinstance(before, str) else classify_degeneration_n5(x, a))
    assert kinds == {"InadmissibleCenter", *DegenerationTag} - {
        DegenerationTag.LINE_PLUS_PLANE, DegenerationTag.ALL_OF_P3}


def test_swapping_the_sides_swaps_the_loci():
    # b lies on the b-locus of a exactly when a lies on the a-locus of b, for
    # b on the curve (its parametrization at small integer t) and off it
    rng = random.Random(6)
    on = off = 0
    for x, y, a in _five_point_inputs():
        try:
            curve = cubic_locus_n5(x, y, a)
        except ToolkitError:
            continue
        if curve.param is None:
            continue
        bs = [curve.at(t, 1) for t in range(1, 4)]
        bs += [pp(*(rng.randint(-9, 9) or 1 for _ in range(4))) for _ in range(3)]
        for b in bs:
            if not center_admissible(y, b):
                continue
            assert cubic_locus_n5(y, x, b).contains(a) == curve.contains(b)
            on += curve.contains(b)
            off += not curve.contains(b)
    assert on == off == 36


def _composed_quadrics(x, y, a):
    """The b-locus quadrics by the composed route: the minors of the reduced
    matrix as Form products in y's standard frame, pulled back to y's own
    coordinates by compose_linear and made primitive, with the checks of
    cubic_locus_n5 before and after."""
    if not center_admissible(x, a):
        raise InadmissibleCenter("center lies on a line through two world points")
    alpha = apply_matrix(normalizing_transform(x.points), a)
    v = normalizing_transform(y.points)
    p = next(i for i in range(4) if alpha[i] != 0)
    lin = {}
    for i in range(4):
        if i != p:
            li, mi = [0] * 4, [0] * 4
            li[i], li[p] = alpha[p], -alpha[i]
            mi[i] = alpha[i] * alpha[p]
            mi[p] = -mi[i]
            lin[i] = Form(1, tuple(li)), Form(1, tuple(mi))
    quadrics = tuple((li * mj - lj * mi).compose_linear(v).primitive()
                     for (li, mi), (lj, mj) in combinations(lin.values(), 2))
    if any(q(yi.coords) for q in quadrics for yi in y):
        raise Inconsistent("curve does not pass through a base point")
    return quadrics


def _outcome(locus, x, y, a):
    try:
        return locus(x, y, a)
    except ToolkitError as exc:
        return type(exc), str(exc)


def test_the_quadrics_are_the_composed_ones():
    # generated pairs with their true a at three coordinate bounds, and every
    # degenerate center kind read on both sides (refusals included)
    inputs = [(rec.x, rec.y, rec.a_true)
              for bound in (10, 10 ** 3, 10 ** 6) for seed in range(20)
              for rec in [generate_reconstruction(5, seed=seed, coord_bound=bound)]]
    inputs += [(x, x, a) for kind in CENTER_KINDS for seed in range(10)
               for x, a in [generate_degenerate(kind, seed=seed)]]
    refused = 0
    for x, y, a in inputs:
        want = _outcome(_composed_quadrics, x, y, a)
        got = _outcome(lambda *args: cubic_locus_n5(*args).quadrics, x, y, a)
        assert got == want
        assert isinstance(want, tuple) and len(want) in (2, 3)
        refused += len(want) == 2
    assert refused == 20  # CollinearCenter and CenterAtWorldPoint


def test_centers_runs_no_form_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("centers ran Form algebra")

    for name in ("__mul__", "__add__", "__sub__", "scaled", "compose_linear"):
        monkeypatch.setattr(Form, name, refuse)
    for n in range(4, 9):
        rec = generate_reconstruction(n, seed=0)
        a = rec.a_true if n in (5, 6) else None
        assert centers_variety(rec.x, rec.y, a=a) is not None
