import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import mul

import pytest

from centersvar import linalg, projective
from centersvar.errors import DegenerateInput
from centersvar.forms import Form, fit_form, monomials
from centersvar.invariants import (EVEN_FANO_PERMS, FANO_LINES, ODD_FANO_PERMS, T5_MINUS,
                                   T5_PLUS, T6_TRIPLES, InvariantVector,
                                   fano, fano15,
                                   fano15_lifted, fano_sum_odd, g5, g5_lifted,
                                   igusa_F, lifted_quadrics, morley, t6,
                                   t6_lifted, weddle_quartic)
from centersvar.projective import (Configuration, ProjectivePoint, cofactors,
                                   normalizing_transform, pp,
                                   project)

STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])


def rand_config(rng, n, dim=2, bound=9):
    return Configuration([[rng.randint(-bound, bound) or 1 for _ in range(dim + 1)]
                          for _ in range(n)])


def rand_h(rng, size=3):
    while True:
        h = [[Fraction(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)]
        if linalg.det(h) != 0:
            return h


def conic_points(ts):
    return Configuration([(1, t, t * t) for t in ts])


class TestWeightedComparison:
    def test_n6_weighted_proportionality(self):
        v = InvariantVector("N6", tuple(map(Fraction, (1, 2, 3, 4, 5, 7))))
        w = InvariantVector("N6", tuple(map(Fraction, (3, 6, 9, 12, 15, 63))))
        assert v.proportional(w)  # scale 3 on weight-1, 9 on weight-2
        bad = InvariantVector("N6", tuple(map(Fraction, (3, 6, 9, 12, 15, 21))))
        assert not v.proportional(bad)

    def test_zero_vector_flagged(self):
        z = InvariantVector("N5", (Fraction(0),) * 6)
        assert z.non_semistable

    def test_canonical_scaling_n6(self):
        v = InvariantVector("N6", tuple(map(Fraction, (2, 4, 6, 8, 10, 20))))
        c = v.canonical()
        assert c.values[:5] == (1, 2, 3, 4, 5) and c.values[5] == Fraction(5)
        assert v.proportional(c)

    def test_canonical_scaling_n6_of_ints_is_exact(self):
        # int invariants: the weight-1 scale is the Fraction 3, not the float 3.0
        c = InvariantVector("N6", (3, 6, 9, 12, 15, 7)).canonical()
        assert c.values[:5] == (1, 2, 3, 4, 5)
        assert isinstance(c.values[5], Fraction) and c.values[5] == Fraction(7, 9)


class TestG5:
    def test_coincident_points_vanish(self):
        p = Configuration([(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7)])
        assert g5(p).non_semistable

    def test_homography_invariance(self):
        rng = random.Random(21)
        for _ in range(10):
            p = rand_config(rng, 5)
            v = g5(p)
            w = g5(p.transformed(rand_h(rng)))
            if not v.non_semistable:
                assert v.proportional(w)

    def test_lifted_matches_projection(self):
        a = pp(43, -50, 6, -5)
        lifted = g5_lifted(STD5, a)
        projected = g5(Configuration([project(x, a) for x in STD5]))
        assert not lifted.non_semistable
        assert lifted.proportional(projected)

    def test_lifted_vanishes_on_secant_line(self):
        a = pp(1, 2, 0, 0)
        assert g5_lifted(STD5, a).non_semistable

    def test_lifted_vanishes_at_world_point(self):
        assert g5_lifted(STD5, STD5[0]).non_semistable


class TestT6:
    def test_conic_kills_t5(self):
        assert t6(conic_points((0, 1, 2, 3, 5, 7))).values[5] == 0

    def test_igusa_relation(self):
        rng = random.Random(31)
        for _ in range(25):
            v = t6(rand_config(rng, 6)).values
            assert v[5] ** 2 == igusa_F(v[:5])

    def test_igusa_zero_vector(self):
        assert igusa_F((0, 0, 0, 0, 0)) == 0

    def test_coincident_pair_pattern(self):
        p = Configuration([(1, 2, 3), (1, 2, 3), (0, 1, 0), (0, 0, 1), (1, 1, 1), (5, 1, 2)])
        v = t6(p).values
        assert v[0] == v[1] == v[2] == 0  # every bracket holding both labels dies

    def test_weighted_invariance(self):
        rng = random.Random(32)
        for _ in range(8):
            p = rand_config(rng, 6)
            v = t6(p)
            if v.non_semistable:
                continue
            assert v.proportional(t6(p.transformed(rand_h(rng))))


class TestLiftedQuadrics:
    def setup_method(self):
        rng = random.Random(41)
        self.x = rand_config(rng, 6, dim=3)
        self.quads = lifted_quadrics(self.x)

    def test_world_points_on_all_quadrics(self):
        for q in self.quads:
            for p in self.x:
                assert q(p.coords) == 0

    def test_one_dimensional_relation(self):
        mat = [[self.quads[i].coeffs[r] for i in range(5)] for r in range(10)]
        assert len(linalg.kernel_basis(mat)) == 1

    def test_values_match_projection(self):
        z = pp(7, -3, 11, 5)
        lifted = t6_lifted(self.x, z)
        projected = t6(Configuration([project(p, z) for p in self.x]))
        assert lifted.proportional(projected)

    def test_symbolic_matches_evaluation(self):
        rng = random.Random(42)
        for z in [(3, 1, -2, 9)] + [tuple(rng.randint(-99, 99) or 1 for _ in range(4))
                                     for _ in range(5)]:
            v = t6_lifted(self.x, z)
            assert tuple(q(z) for q in self.quads) == v.values[:5]

    @pytest.mark.parametrize("bound", [9, 10 ** 6])
    def test_lifted_values_match_the_per_bracket_route(self, bound):
        # reference: every bracket its own cofactor vector, built again for
        # each of the 18 brackets the products read
        def per_bracket(x, z):
            def lifted(t):
                return sum(map(mul, cofactors(*(x[i - 1].coords for i in t)), z))

            def product(triples):
                return prod(lifted(t) for t in triples)

            return (tuple(product(t) for t in T6_TRIPLES)
                    + (product(T5_PLUS) - product(T5_MINUS),))

        rng = random.Random(bound)
        for _ in range(3):
            x = rand_config(rng, 6, dim=3, bound=bound)
            centers = ([tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(4)]
                       + [p.coords for p in x] + [(0, 0, 0, 0)])
            for z in centers:
                v = t6_lifted(x, z)
                assert all(type(c) is int for c in v.values)
                assert v.values == per_bracket(x, z)

    def test_each_lifted_bracket_is_built_once_per_call(self, monkeypatch):
        # counted per point set: a vector read again, at another center or
        # through a subset, is not built again
        calls = []

        def counted(*rows):
            calls.append(rows)
            return cofactors(*rows)

        monkeypatch.setattr(projective, "cofactors", counted)
        x = Configuration(self.x.points)
        centers = [(7, -3, 11, 5), (1, 2, 3, 4), (-5, 0, 2, 9), (3, 3, -1, 1)]
        for z in centers:
            t6_lifted(x, z)
        assert len(calls) == len(set(calls)) == 12
        calls.clear()
        x7 = Configuration(list(self.x.points) + [pp(2, -1, 5, 3)])
        values = fano15_lifted(x7, centers[0])
        assert len(calls) == len(set(calls)) == 35
        assert {tuple(map(x7.points.index, map(ProjectivePoint, rows))) for rows in calls} \
            == set(combinations(range(7), 3))
        calls.clear()
        assert fano15_lifted(x7, centers[0]) == values
        for k in range(7):
            for z in centers:
                t6_lifted(x7.drop(k), z)
        assert calls == []

    @pytest.mark.parametrize("bound", [9, 1000])
    def test_forms_match_interpolation(self, bound):
        # reference: interpolate the lifted products, each bracket a 4 x 4 det
        def lifted(x, z, triples):
            out = Fraction(1)
            for t in triples:
                out *= linalg.det([x[i - 1].coords for i in t] + [list(z)])
            return out

        rng = random.Random(bound)
        for _ in range(3):
            x = rand_config(rng, 6, dim=3, bound=bound)
            for q, t in zip(lifted_quadrics(x), T6_TRIPLES):
                assert q.coeffs == fit_form(lambda z: lifted(x, z, t), 2)


class TestFano:
    def test_all_even_permutations_are_even(self):
        def parity(perm):
            seen, par = set(), 0
            for i in range(7):
                if i in seen:
                    continue
                j, ln = i, 0
                while j not in seen:
                    seen.add(j)
                    j = perm[j] - 1
                    ln += 1
                par ^= (ln - 1) & 1
            return par
        assert all(parity(p) == 0 for p in EVEN_FANO_PERMS)
        assert all(parity(p) == 1 for p in ODD_FANO_PERMS)

    def test_thirty_distinct_polynomials(self):
        rng = random.Random(51)
        p = rand_config(rng, 7)
        values = [fano(p, perm) for perm in EVEN_FANO_PERMS + ODD_FANO_PERMS]
        assert len(set(values)) == 30

    def test_identity_value_against_independent_determinants(self):
        # columns of the standard seven-point matrix with x=(1,2,3), y=(5,7,11), z=(13,17,19)
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (5, 7, 11), (13, 17, 19)]
        p = Configuration(pts)

        def sarrus(a, b, c):
            return (a[0] * b[1] * c[2] + a[1] * b[2] * c[0] + a[2] * b[0] * c[1]
                    - a[2] * b[1] * c[0] - a[0] * b[2] * c[1] - a[1] * b[0] * c[2])

        lines = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7), (1, 3, 7))
        expected = 1
        for i, j, k in lines:
            expected *= sarrus(pts[i - 1], pts[j - 1], pts[k - 1])
        assert expected == 3264
        assert fano(p, (1, 2, 3, 4, 5, 6, 7)) == expected

    def test_coincident_pair_kills_all(self):
        p = Configuration([(1, 2, 3), (1, 2, 3), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                           (5, 1, 2), (3, 3, 1)])
        assert fano15(p).non_semistable

    def test_conic_gives_sign_character(self):
        p = conic_points((0, 1, 2, 3, 5, 7, 11))
        base = fano(p, (1, 2, 3, 4, 5, 6, 7))
        assert base != 0
        assert all(fano(p, perm) == base for perm in EVEN_FANO_PERMS)
        assert all(fano(p, perm) == -base for perm in ODD_FANO_PERMS)

    def test_homography_invariance(self):
        rng = random.Random(54)
        for _ in range(5):
            p = rand_config(rng, 7)
            v = fano15(p)
            if v.non_semistable:
                continue
            assert v.proportional(fano15(p.transformed(rand_h(rng))))

    def test_lifted_matches_projection(self):
        rng = random.Random(52)
        x = rand_config(rng, 7, dim=3)
        a = pp(17, -5, 9, 23)
        lifted = fano15_lifted(x, a)
        projected = fano15(Configuration([project(p, a) for p in x]))
        assert not lifted.non_semistable
        assert lifted.proportional(projected)

    def test_sorting_the_lines_multiplies_by_the_sign_of_the_permutation(self):
        def inversions(seq):
            return sum(u > v for u, v in combinations(seq, 2))

        for perm in permutations(range(1, 8)):
            lines = [[perm[i - 1] for i in line] for line in FANO_LINES]
            assert sum(map(inversions, lines)) % 2 == inversions(perm) % 2

    @pytest.mark.parametrize("bound", [9, 10 ** 6])
    def test_lifted_values_match_the_ordered_bracket_route(self, bound):
        # reference: every bracket the cofactor vector of its triple in the
        # permuted order, with no sorting and no sign
        def ordered(x, z, perm):
            return prod(sum(map(mul, cofactors(*(x[perm[i - 1] - 1].coords for i in line)), z))
                        for line in FANO_LINES)

        rng = random.Random(bound)
        for _ in range(3):
            x = rand_config(rng, 7, dim=3, bound=bound)
            for z in [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(3)]:
                assert fano15_lifted(x, z).values == tuple(ordered(x, z, perm)
                                                           for perm in EVEN_FANO_PERMS)

    def test_lifted_vanishes_on_secant(self):
        rng = random.Random(53)
        x = rand_config(rng, 7, dim=3)
        a = ProjectivePoint([2 * x[0][i] + 5 * x[1][i] for i in range(4)])
        assert fano15_lifted(x, a).non_semistable


class TestMorley:
    def test_skew_symmetry_under_transpositions(self):
        rng = random.Random(61)
        for _ in range(10):
            p = rand_config(rng, 7)
            i, j = sorted(rng.sample(range(7), 2))
            pts = list(p.points)
            pts[i], pts[j] = pts[j], pts[i]
            assert morley(Configuration(pts)) == -morley(p)

    def test_even_plus_odd_sums_vanish(self):
        rng = random.Random(62)
        for _ in range(10):
            p = rand_config(rng, 7)
            assert sum(fano15(p).values) + fano_sum_odd(p) == 0

    def test_morley_is_twice_even_sum(self):
        # reference: fano(p, perm) keeps each permuted line in its own order
        rng = random.Random(63)
        for bound in (9, 10 ** 6):
            for _ in range(50):
                p = rand_config(rng, 7, bound=bound)
                assert morley(p) == 2 * sum(fano(p, perm) for perm in EVEN_FANO_PERMS)

    @pytest.mark.parametrize("bound", [9, 10 ** 6])
    def test_fano15_matches_the_per_permutation_route(self, bound):
        rng = random.Random(64)
        for _ in range(50):
            p = rand_config(rng, 7, bound=bound)
            assert fano15(p).values == tuple(fano(p, perm) for perm in EVEN_FANO_PERMS)

    def test_conic_value(self):
        p = conic_points((0, 1, 2, 3, 5, 7, 11))
        assert morley(p) == 30 * fano(p, (1, 2, 3, 4, 5, 6, 7))


class TestWeddleQuartic:
    def setup_method(self):
        rng = random.Random(71)
        while True:
            pts = [[rng.randint(-9, 9) or 1 for _ in range(4)] for _ in range(6)]
            try:
                self.z = Configuration(pts)
                self.w = weddle_quartic(self.z)
                break
            except DegenerateInput:
                continue

    def test_vanishes_at_defining_points(self):
        assert all(self.w(p) == 0 for p in self.z)

    def test_vanishes_on_all_fifteen_lines(self):
        for i, j in combinations(range(6), 2):
            for s, t in [(1, 1), (1, 2), (2, 1), (3, -1), (-1, 4)]:
                coords = [s * self.z[i][k] + t * self.z[j][k] for k in range(4)]
                if any(coords):
                    assert self.w(coords) == 0

    def test_vanishes_at_cone_vertex(self):
        # six points on the cone x0 x2 = x1^2 with vertex e4
        pts = [(1, t, t * t, c) for t, c in [(1, 0), (2, 1), (3, -1), (4, 2), (5, 5), (6, -3)]]
        w = weddle_quartic(Configuration(pts))
        assert w(pp(0, 0, 0, 1)) == 0

    def test_label_order_irrelevant_up_to_scale(self):
        rng = random.Random(72)
        ref = self.w.form.primitive().coeffs
        for _ in range(4):
            order = rng.sample(range(6), 6)
            shuffled = weddle_quartic(Configuration([self.z[i] for i in order]))
            assert shuffled.form.primitive().coeffs == ref

    def test_degenerate_first_five_rejected(self):
        pts = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
        with pytest.raises(DegenerateInput):
            weddle_quartic(Configuration(pts))


def integer_matrix(m):
    """m times the lcm of its denominators."""
    d = math.lcm(*(v.denominator for row in m for v in row))
    return [[int(v * d) for v in row] for row in m]


def mat_vec(m, v):
    return [sum(map(mul, row, v)) for row in m]


def weddle_frame(z):
    """(T, framed) of the interpolation route: T normalizes the first five
    points to the standard frame, scaled to integers (which scales every
    value below by one constant), and framed(x) is the determinant with rows
    (w_i, x_i^2, x_i, w_i x_i), w = T z_6: the Weddle quartic in frame
    coordinates."""
    try:
        t = integer_matrix(normalizing_transform(z.points[:5]))
    except DegenerateInput:
        raise DegenerateInput("the first five points do not form a frame")
    w = mat_vec(t, z[5].coords)

    def framed(x):
        return linalg.det([[w[i], x[i] ** 2, x[i], w[i] * x[i]] for i in range(4)])

    return t, framed


def interpolated_weddle(z):
    """The Weddle quartic by interpolation: the framed quartic pulled back
    through T, fitted at the lattice nodes."""
    t, framed = weddle_frame(z)
    form = Form(4, fit_form(lambda node: framed(mat_vec(t, node)), 4)).primitive()
    if form.is_zero():
        raise DegenerateInput("six points do not determine a Weddle quartic")
    return form


def weddle_outcome(fn, z):
    try:
        return fn(z)
    except DegenerateInput as exc:
        return type(exc), str(exc)


def weddle_sets(seed, count):
    """Six-point sets: entries in {-1, 0, 1} (many of them degenerate), up to
    9 and up to 10^6, and sets whose fifth point lies in the plane of three
    of the first four (no frame); a zero point is replaced by e_4."""
    rng = random.Random(seed)
    for k in range(count):
        bound = (1, 9, 10 ** 6, 9)[k % 4]
        pts = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(6)]
        if k % 4 == 3:
            i, j, l = rng.sample(range(4), 3)
            pts[4] = [a + 2 * b - c for a, b, c in zip(pts[i], pts[j], pts[l])]
        yield Configuration([p if any(p) else [0, 0, 0, 1] for p in pts])


class TestWeddleMatchesInterpolation:
    def test_same_form_or_error_on_3000_sets(self):
        # Compared in frame coordinates, where the framed quartic is cheap:
        # the 35 lattice nodes are unisolvent for quartics and fit_form is
        # linear, so proportional values of framed(x) and of the quartic at
        # T^-1 x over the nodes mean the same primitive coefficients (the
        # fit itself is checked on a sample below).
        outcomes = {"form": 0, "error": 0}
        for z in weddle_sets(2026, 3000):
            got = weddle_outcome(weddle_quartic, z)
            try:
                t, framed = weddle_frame(z)
            except DegenerateInput as exc:
                assert got == (DegenerateInput, str(exc))
                outcomes["error"] += 1
                continue
            ref = [framed(node) for node in monomials(4)]
            if not any(ref):
                assert got == (DegenerateInput, "six points do not determine a Weddle quartic")
                outcomes["error"] += 1
                continue
            unframe = integer_matrix(linalg.inverse(t))
            vals = [got.form(mat_vec(unframe, node)) for node in monomials(4)]
            k = next(i for i, r in enumerate(ref) if r)
            assert vals[k] != 0
            assert all(v * ref[k] == r * vals[k] for v, r in zip(vals, ref))
            outcomes["form"] += 1
        assert min(outcomes.values()) > 500, outcomes

    def test_same_primitive_coefficients(self):
        for z in weddle_sets(7, 120):
            got = weddle_outcome(weddle_quartic, z)
            want = weddle_outcome(interpolated_weddle, z)
            if isinstance(got, tuple):
                assert got == want
            else:
                assert got.form.coeffs == want.coeffs
