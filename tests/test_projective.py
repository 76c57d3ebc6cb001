import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar import linalg
from centersvar.errors import CenterHit, DegenerateInput, InvalidInput, ToolkitError
from centersvar.projective import (Configuration, ProjectivePoint,
                                   StabilityClass, apply_matrix, bracket,
                                   center_admissible,
                                   collinear, frame_matrix, gale_transform,
                                   homography_fit, on_line, pp, project,
                                   stability_class)

STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])


def rand_config(rng, n, dim=2, bound=9):
    return Configuration([[rng.randint(-bound, bound) or 1 for _ in range(dim + 1)]
                          for _ in range(n)])


def mat_vec(a, v):
    return [sum(Fraction(x) * y for x, y in zip(row, v)) for row in a]


def rand_h(rng, size=3):
    while True:
        h = [[Fraction(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)]
        if linalg.det(h) != 0:
            return h


class TestCanonicalForm:
    def test_scale_invariance(self):
        assert pp(2, 4, 6) == pp(1, 2, 3)
        assert pp(Fraction(1, 3), Fraction(2, 3), 1) == pp(1, 2, 3)

    def test_sign_convention(self):
        assert pp(-1, 2, -3).coords == (1, -2, 3)
        assert pp(0, -5, 10).coords == (0, 1, -2)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            pp(0, 0, 0)

    def test_hashable_equality(self):
        assert len({pp(2, 4), pp(1, 2), pp(1, 3)}) == 2


class TestBracket:
    def test_identity(self):
        assert bracket([pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1)]) == 1

    def test_repeated_point(self):
        assert bracket([pp(1, 0, 0), pp(1, 0, 0), pp(0, 0, 1)]) == 0

    def test_four_by_four(self):
        pts = [pp(1, 0, 0, 0), pp(0, 1, 0, 0), pp(0, 0, 1, 0), pp(43, -50, 6, -5)]
        assert bracket(pts) == -5

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            bracket([pp(1, 0, 0), pp(0, 1, 0)])

    @given(st.lists(st.integers(-20, 20), min_size=9, max_size=9),
           st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_multilinear_alternating(self, flat, c1, c2):
        rows = [flat[0:3], flat[3:6], flat[6:9]]
        if any(not any(r) for r in rows):
            return
        det = linalg.det
        # swapping two rows flips the sign
        assert det([rows[1], rows[0], rows[2]]) == -det(rows)
        # linearity in the first row
        combo = [c1 * a + c2 * b for a, b in zip(rows[0], rows[1])]
        assert det([combo, rows[1], rows[2]]) == \
            c1 * det(rows) + c2 * det([rows[1], rows[1], rows[2]])


    @given(st.integers(2, 5).flatmap(lambda k: st.lists(
        st.lists(st.integers(-10 ** 30, 10 ** 30) | st.integers(-3, 3), min_size=k, max_size=k)
        .filter(any), min_size=k, max_size=k)))
    @settings(max_examples=150, deadline=None)
    def test_minor_expansion_matches_elimination(self, rows):
        pts = [ProjectivePoint(r) for r in rows]
        assert bracket(pts) == linalg.det([p.coords for p in pts])


class TestCollinear:
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.integers(-10 ** 30, 10 ** 30) | st.integers(-3, 3),
                 min_size=d + 1, max_size=d + 1).filter(any), min_size=2, max_size=2)),
        st.integers(-5, 5), st.integers(-5, 5), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_rank(self, rows, s, t, on_the_line):
        p, q = rows
        r = [s * u + t * v for u, v in zip(p, q)] if on_the_line else [u + 1 for u in q]
        if not any(r):
            return
        a, b, c = (ProjectivePoint(v) for v in (p, q, r))
        assert collinear(a, b, c) == (linalg.rank([a.coords, b.coords, c.coords]) <= 2)
        if on_the_line:
            assert collinear(a, b, c)


class TestProject:
    def test_paper_image_of_unit_point(self):
        a = pp(43, -50, 6, -5)
        img = project(pp(1, 1, 1, 1), a)
        assert img == pp(43 - (-5), -50 - (-5), 6 - (-5))

    def test_paper_image_of_e1(self):
        assert project(pp(1, 0, 0, 0), pp(43, -50, 6, -5)) == pp(1, 0, 0)

    def test_seventh_column_formula(self):
        # image of a free column (r0:r1:r2:r3) is (r3 a0 - r0 a3 : ...)
        r = pp(2, 3, 5, 7)
        a = pp(1, -4, 9, 2)
        expected = [r[3] * a[i] - r[i] * a[3] for i in range(3)]
        assert project(r, a) == ProjectivePoint(expected)

    def test_chart_fallback(self):
        a = pp(0, 3, 0, 0)  # last coordinate zero: first usable chart is k=1
        x = pp(1, 5, 7, 2)
        assert project(x, a) == ProjectivePoint([3 * 1 - 5 * 0, 3 * 7, 3 * 2])

    def test_center_hit(self):
        with pytest.raises(CenterHit):
            project(pp(1, 2, 3, 4), pp(2, 4, 6, 8))

    def test_representative_independent(self):
        x, a = pp(3, -6, 9, 12), pp(1, 1, 2, 5)
        assert project(x, a) == project(pp(1, -2, 3, 4), a)


class TestApplyMatrix:
    def test_matches_the_mat_vec_reference(self):
        rng = random.Random(3)
        for _ in range(40):
            x = rand_config(rng, 1, dim=3, bound=10 ** 6)[0]
            m = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(rng.choice((3, 4)))]
            for mat in (m, [[Fraction(v, rng.randint(1, 12)) for v in row] for row in m]):
                ref = mat_vec(mat, x.fractions())
                assert any(ref)
                assert apply_matrix(mat, x) == ProjectivePoint(ref)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], pp(1, 2, 3, 4))
        with pytest.raises(ValueError):
            apply_matrix([[Fraction(1, 2)] * 5] * 4, pp(1, 2, 3, 4))


class TestHomographyFit:
    def test_identity(self):
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 9)])
        h = homography_fit(p, p)
        assert h is not None
        assert all(apply_matrix(h, q) == q for q in p)

    def test_recovers_random_homography(self):
        rng = random.Random(5)
        for _ in range(10):
            p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 4, 5),
                               (rng.randint(1, 9), rng.randint(1, 9), 1)])
            h0 = rand_h(rng)
            try:
                q = p.transformed(h0)
            except InvalidInput:
                continue
            h = homography_fit(p, q)
            assert h is not None
            assert all(apply_matrix(h, pi) == qi for pi, qi in zip(p, q))

    def test_minor_vanishing(self):
        rng = random.Random(11)
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7)])
        h0 = rand_h(rng)
        q = p.transformed(h0)
        h = homography_fit(p, q)
        for pi, qi in zip(p, q):
            u = mat_vec(h, pi.fractions())
            v = qi.fractions()
            for i in range(3):
                for j in range(i + 1, 3):
                    assert u[i] * v[j] - u[j] * v[i] == 0

    def test_perturbed_point_rejected(self):
        rng = random.Random(7)
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7)])
        q = p.transformed(rand_h(rng))
        broken = Configuration(list(q.points[:-1]) + [pp(q[4][0] + 1, q[4][1], q[4][2])])
        assert homography_fit(p, broken) is None

    def test_degenerate_leading_quadruple(self):
        p = Configuration([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 3, 7)])
        with pytest.raises(DegenerateInput):
            homography_fit(p, p)


def ref_mat_mul(a, b):
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_frame_matrix(points):
    """frame_matrix by the Fraction route: the scales solve B s = p_{d+1}."""
    d = points[0].dim
    base = [[Fraction(p[i]) for p in points[: d + 1]] for i in range(d + 1)]
    inv = linalg.inverse(base)
    scales = None if inv is None else mat_vec(inv, points[d + 1].fractions())
    if scales is None or any(s == 0 for s in scales):
        raise DegenerateInput("points do not form a projective frame")
    return [[base[i][j] * scales[j] for j in range(d + 1)] for i in range(d + 1)]


def ref_homography_fit(p, q):
    """homography_fit as F_q inverse(F_p) in Fractions, each correspondence
    checked by the 2 x 2 minors of [H p_i; q_i]."""
    if p.ambient_dim != 2 or q.ambient_dim != 2:
        raise InvalidInput("homography_fit works on plane configurations")
    if p.n != q.n:
        raise InvalidInput("configurations must have equal length")
    if p.n < 4:
        raise InvalidInput("need at least four correspondences")
    try:
        fp = ref_frame_matrix(p.points[:4])
    except DegenerateInput:
        raise DegenerateInput("leading quadruple of the first configuration is degenerate")
    try:
        fq = ref_frame_matrix(q.points[:4])
    except DegenerateInput:
        return None
    h = ref_mat_mul(fq, linalg.inverse(fp))
    for pi, qi in zip(p.points, q.points):
        u, v = mat_vec(h, pi.fractions()), qi.fractions()
        if any(u[i] * v[j] != u[j] * v[i] for i in range(3) for j in range(i + 1, 3)):
            return None
    return h


def outcome(fn, *args):
    """The result (with the type of every matrix entry), or the error's type
    and message."""
    try:
        result = fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    if result is None:
        return None
    return result, [type(v) for row in result for v in row]


def with_point(c, k, coords):
    return Configuration(c.points[:k] + (ProjectivePoint(coords),) + c.points[k + 1:])


def plane_pairs(rng, bound):
    """(p, q): q a random homography image of p, then q with one point moved,
    then the first quadruple made degenerate (p_2 or q_2 on the line through
    the first two points), on the q side and on the p side."""
    for _ in range(40):
        p = rand_config(rng, rng.randint(4, 8), bound=bound)
        q = p.transformed(rand_h(rng))
        yield p, q
        k, j = rng.randrange(p.n), rng.randrange(3)
        moved = [c + (i == j) for i, c in enumerate(q[k].coords)]
        if any(moved):
            yield p, with_point(q, k, moved)
        for c, other in ((q, p), (p, q)):
            s, t = rng.randint(-3, 3) or 1, rng.randint(-3, 3) or 1
            line = [s * u + t * v for u, v in zip(c[0].coords, c[1].coords)]
            if any(line):
                c = with_point(c, 2, line)
                yield (other, c) if other is p else (c, other)


class TestIntegerFrames:
    @pytest.mark.parametrize("bound", [2, 9, 10 ** 6])
    def test_homography_fit_matches_the_fraction_route(self, bound):
        rng = random.Random(bound)
        kinds = {"matrix": 0, "none": 0, "error": 0}
        for p, q in plane_pairs(rng, bound):
            got = outcome(homography_fit, p, q)
            assert got == outcome(ref_homography_fit, p, q)
            kinds["none" if got is None else "error" if type(got[0]) is type else "matrix"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_homography_fit_input_errors_match(self):
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 9)])
        for q in (Configuration(p.points[:4]), p.drop(4).drop(3), STD5):
            assert outcome(homography_fit, p, q) == outcome(ref_homography_fit, p, q)
            assert outcome(homography_fit, q, q) == outcome(ref_homography_fit, q, q)

    @pytest.mark.parametrize("dim, bound", [(2, 2), (2, 10 ** 6), (3, 2), (3, 10 ** 6)])
    def test_frame_matrix_matches_the_fraction_route(self, dim, bound):
        # each random set, then with one point moved onto the line of two others
        rng = random.Random(dim * bound)
        frames = 0
        for _ in range(150):
            c = rand_config(rng, dim + 2, dim=dim, bound=bound)
            k, i, j = rng.sample(range(dim + 2), 3)
            r = rng.randint(1, 3)
            line = [r * u - v for u, v in zip(c[i].coords, c[j].coords)]
            for points in (c.points, with_point(c, k, line).points if any(line) else ()):
                if points:
                    got = outcome(frame_matrix, points)
                    assert got == outcome(ref_frame_matrix, points)
                    frames += got[0] is not DegenerateInput
        assert 30 <= frames <= 150


class TestStability:
    def test_five_generic_stable(self):
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7)])
        assert stability_class(p) == StabilityClass.STABLE

    def test_six_with_coincident_pair_strictly_semistable(self):
        p = Configuration([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7)])
        assert stability_class(p) == StabilityClass.STRICTLY_SEMISTABLE

    def test_seven_with_five_collinear_unstable(self):
        line = [(1, 0, c) for c in range(5)]
        p = Configuration(line + [(0, 1, 0), (1, 1, 1)])
        assert stability_class(p) == StabilityClass.UNSTABLE

    def test_five_with_four_collinear_unstable(self):
        p = Configuration([(1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3), (0, 1, 0)])
        assert stability_class(p) == StabilityClass.UNSTABLE

    def test_invariant_under_relabelling_and_homography(self):
        rng = random.Random(3)
        for n in (5, 6, 7):
            for _ in range(5):
                p = rand_config(rng, n)
                cls = stability_class(p)
                order = list(range(n))
                rng.shuffle(order)
                assert stability_class(Configuration([p[i] for i in order])) == cls
                assert stability_class(p.transformed(rand_h(rng))) == cls


class TestAdmissibility:
    def test_six_point_center_at_world_point(self):
        rng = random.Random(2)
        x = rand_config(rng, 6, dim=3)
        assert not center_admissible(x, x[3], 6)

    def test_five_point_center_on_line(self):
        x = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
        a = pp(1, 2, 0, 0)  # on the line through the first two points
        assert on_line(a, x[0], x[1])
        assert not center_admissible(x, a, 5)

    def test_goepel_generic_admissible(self):
        rng = random.Random(4)
        x = rand_config(rng, 7, dim=3)
        assert center_admissible(x, pp(91, 83, 77, 65), 7, "Goepel")

    def test_goepel_needs_seven(self):
        with pytest.raises(InvalidInput):
            center_admissible(STD5, pp(1, 2, 3, 4), 5, "Goepel")


class TestGaleTransform:
    def test_five_points_land_in_p1(self):
        rng = random.Random(9)
        g = gale_transform(rand_config(rng, 5))
        assert g.ambient_dim == 1 and g.n == 5

    def test_rank_deficient_rejected(self):
        p = Configuration([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0), (3, 1, 0)])
        with pytest.raises(DegenerateInput):
            gale_transform(p)

    def test_involution_on_the_moduli_point(self):
        from centersvar.invariants import t6
        rng = random.Random(12)
        for _ in range(5):
            p = rand_config(rng, 6)
            v = t6(p)
            if v.non_semistable:
                continue
            gg = gale_transform(gale_transform(p))
            assert t6(gg).proportional(v)
