import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar.errors import InvalidInput
from centersvar.forms import (BinaryForm, Form, binary_gcd, fit_form, mono_eval,
                              monomial_indices, monomials, sym_from_quad)
from centersvar.projective import ProjectivePoint


def mat_vec(a, v):
    return [sum(Fraction(x) * y for x, y in zip(row, v)) for row in a]


def rand_form(rng, degree):
    return Form(degree, tuple(Fraction(rng.randint(-9, 9)) for _ in monomials(degree)))


class TestQuaternaryForms:
    def test_graded_lex_order(self):
        assert monomials(2)[:4] == ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
        assert len(monomials(2)) == 10 and len(monomials(4)) == 35
        assert monomial_indices(2)[:4] == ((0, 0), (0, 1), (0, 2), (0, 3))
        # the exponent tuples read off the index tuples are every degree-d
        # exponent once, in decreasing lexicographic order
        for degree in range(7):
            exps = monomials(degree)
            assert len(set(exps)) == math.comb(degree + 3, 3)
            assert list(exps) == sorted(exps, reverse=True)
            assert all(sum(e) == degree for e in exps)

    def test_interpolation_round_trip(self):
        rng = random.Random(1)
        for degree in (2, 4):
            f = rand_form(rng, degree)
            assert fit_form(f, degree) == f.coeffs

    def test_compose_linear(self):
        rng = random.Random(2)
        for degree in (2, 4):
            f = rand_form(rng, degree)
            m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
            g = f.compose_linear(m)
            assert g.coeffs == fit_form(lambda z: f(mat_vec(m, z)), degree)
            for _ in range(10):
                z = [rng.randint(-7, 7) for _ in range(4)]
                mz = [sum(m[i][j] * z[j] for j in range(4)) for i in range(4)]
                assert g(z) == f(mz)

    def test_linear_product(self):
        u, v = [1, 2, 3, 4], [5, -1, 0, 2]
        f = Form(1, tuple(u)) * Form(1, tuple(v))
        assert f.degree == 2
        for z in [(1, 0, 0, 0), (1, 1, 1, 1), (2, -3, 5, 7)]:
            uz = sum(a * b for a, b in zip(u, z))
            vz = sum(a * b for a, b in zip(v, z))
            assert f(z) == uz * vz

    def test_product_matches_pointwise_evaluation(self):
        rng = random.Random(4)
        for da, db in [(1, 1), (1, 3), (2, 2), (0, 2)]:
            f, g = rand_form(rng, da), rand_form(rng, db)
            h = f * g
            assert h.degree == da + db
            for _ in range(10):
                z = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
                assert h(z) == f(z) * g(z)
        with pytest.raises(InvalidInput):
            Form(1, (1, 0, 0))  # a linear form has four coefficients

    def test_primitive_scaling(self):
        f = Form(2, tuple(Fraction(k, 6) for k in (-2, 4, 0, 0, 0, 0, 0, 0, 0, 8)))
        p = f.primitive()
        assert p.coeffs[0] == 1 and p.coeffs[1] == -2 and p.coeffs[9] == -4


def reference_monomial(exp, point):
    """The monomial at the point, every coordinate and product a Fraction."""
    v = Fraction(1)
    for x, e in zip(point, exp):
        v *= Fraction(x) ** e
    return v


def reference_value(form, point):
    return sum((c * reference_monomial(m, point)
                for c, m in zip(form.coeffs, monomials(form.degree))), Fraction(0))


BIG = st.integers(-10 ** 30, 10 ** 30)
COORD = st.one_of(st.integers(-9, 9), BIG, st.sampled_from([10 ** 30, -10 ** 30]),
                  st.builds(Fraction, BIG, st.integers(1, 10 ** 12)))
COEFF = st.one_of(st.integers(-50, 50).map(Fraction),
                  st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


class TestExactEvaluation:
    @given(st.integers(0, 3).flatmap(
               lambda d: st.tuples(st.just(d), st.lists(COEFF, min_size=len(monomials(d)),
                                                        max_size=len(monomials(d))))),
           st.lists(COORD, min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_form_matches_fraction_evaluation(self, shape, point):
        degree, coeffs = shape
        f = Form(degree, tuple(coeffs))
        value = f(point)
        assert isinstance(value, Fraction)
        assert value == reference_value(f, point)
        for m in monomials(degree):
            assert isinstance(mono_eval(m, point), Fraction)
            assert mono_eval(m, point) == reference_monomial(m, point)

    @given(st.lists(COEFF, min_size=10, max_size=10), st.lists(COORD, min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_quadric_surface_matches_fraction_evaluation(self, coeffs, point):
        f = Form(2, tuple(coeffs))
        value = f(point)
        assert isinstance(value, Fraction) and value == reference_value(f, point)
        sym = sym_from_quad(f)
        assert all(sym[i][j] == sym[j][i] for i in range(4) for j in range(4))
        assert value == sum(Fraction(point[i]) * sym[i][j] * Fraction(point[j])
                            for i in range(4) for j in range(4))
        if any(point):
            pt = ProjectivePoint(point)
            d = f.integer_terms[0]
            assert Fraction(f.integer_value(pt.coords), d) == reference_value(f, pt.coords)

    @given(st.integers(1, 4).flatmap(
               lambda d: st.tuples(st.just(d), st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                                                                  COEFF),
                                                        min_size=len(monomials(d)),
                                                        max_size=len(monomials(d))))),
           st.lists(st.one_of(st.integers(-9, 9), BIG), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_integer_value_matches_the_power_product_sum(self, shape, ints):
        # reference: the integer coefficients d * c times prod_i z_i ** e_i
        # over the exponent tuples, the evaluator integer_value replaced
        degree, coeffs = shape
        f = Form(degree, tuple(coeffs))
        d = math.lcm(*(Fraction(c).denominator for c in coeffs))
        expected = 0
        for c, exp in zip(coeffs, monomials(degree)):
            term = Fraction(c) * d
            for x, e in zip(ints, exp):
                term *= x ** e
            expected += int(term)
        assert f.integer_terms[0] == d
        value = f.integer_value(ints)
        assert type(value) is int and value == expected

    def test_float_coordinates_convert_exactly(self):
        f = Form(2, tuple(Fraction(k - 4, 3) for k in range(10)))
        point = [0.1, 2, Fraction(-5, 7), 1e300]
        exact = [Fraction(0.1), 2, Fraction(-5, 7), Fraction(1e300)]
        assert f(point) == reference_value(f, exact)
        assert f([0.1, 0, 0, 0]) != f([Fraction(1, 10), 0, 0, 0])


class TestBinaryForms:
    def test_mul_and_eval(self):
        f = BinaryForm([1, 2])   # t1 + 2 t0
        g = BinaryForm([3, 0, 1])  # 3 t1^2 + t0^2
        h = f * g
        assert h.degree == 3
        for t0, t1 in [(1, 1), (2, 3), (-1, 5)]:
            assert h(t0, t1) == f(t0, t1) * g(t0, t1)

    def test_gcd_with_roots_at_zero_and_infinity(self):
        lin = BinaryForm([-2, 3])  # 3 t0 - 2 t1, vanishing at (2 : 3)
        t0 = BinaryForm([0, 1])
        t1 = BinaryForm([1, 0])
        f = t0 * t1 * lin
        g = t0 * lin * lin
        gcd = binary_gcd([f, g])
        assert gcd.degree == 2
        assert gcd(0, 1) == 0 and gcd(2, 3) == 0 and gcd(1, 0) != 0
