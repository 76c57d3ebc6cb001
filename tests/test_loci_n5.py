import random
from fractions import Fraction

import pytest

from centersvar.datagen import generate_degenerate, generate_reconstruction
from centersvar.errors import DegenerateInput, InadmissibleCenter, Inconsistent
from centersvar.forms import Form, monomials, same_span
from centersvar.invariants import g5_lifted
from centersvar.loci import (DegenerationTag, centers_n_le4,
                             classify_degeneration_n5, cubic_locus_n5,
                             cubic_param_n5, param_of_point, restrict_to_param)
from centersvar.projective import Configuration, apply_matrix, normalizing_transform, pp

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
        params = [param_of_point(self.param, bp) for bp in STD5]
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
        params = [param_of_point(param, p) for p in points]
        assert len({_ratio(t) for t in params}) == 6
        for p, t in zip(points, params):
            assert curve.at(*t) == p
        # the documented parameters: y_j at (-alpha_j : 1), y_5 at (0 : 1)
        alpha = apply_matrix(normalizing_transform(rec.x.points), rec.a_true)
        assert [_ratio(t) for t in params[1:]] == [-c for c in alpha.coords] + [0]
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


class TestSmallN:
    def test_n4_generic_witness(self):
        rec = generate_reconstruction(4, seed=0)
        h = centers_n_le4(rec.x, rec.y, rec.a_true, rec.b_true)
        assert h is not None

    def test_n3_always_equivalent(self):
        rec = generate_reconstruction(3, seed=0)
        h = centers_n_le4(rec.x, rec.y, rec.a_true, rec.b_true)
        assert h is not None

    def test_collinear_image_rejected(self):
        x = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)])
        y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        a = pp(1, 2, 3, 4)
        # the first three x-points are collinear in P^3, hence in any image
        with pytest.raises(DegenerateInput):
            centers_n_le4(x, y, a, a)
