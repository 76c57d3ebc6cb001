import random
from fractions import Fraction

import pytest

from centersvar import linalg
from centersvar.errors import InvalidInput
from centersvar.forms import (BinaryForm, Form, binary_divide_exact,
                              binary_gcd, binary_linear_root, fit_form,
                              linear_root, monomials, quad_from_sym,
                              sym_from_quad)


def rand_form(rng, degree):
    return Form(degree, tuple(Fraction(rng.randint(-9, 9)) for _ in monomials(degree)))


class TestQuaternaryForms:
    def test_graded_lex_order(self):
        assert monomials(2)[:4] == ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
        assert len(monomials(2)) == 10 and len(monomials(4)) == 35

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
            assert g.coeffs == fit_form(lambda z: f(linalg.mat_vec(m, z)), degree)
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
            Form(1, (1, 0, 0), 3) * Form(1, (1, 0, 0, 0))

    def test_sym_round_trip(self):
        rng = random.Random(3)
        f = rand_form(rng, 2)
        assert quad_from_sym(sym_from_quad(f)).coeffs == f.coeffs

    def test_primitive_scaling(self):
        f = Form(2, tuple(Fraction(k, 6) for k in (-2, 4, 0, 0, 0, 0, 0, 0, 0, 8)))
        p = f.primitive()
        assert p.coeffs[0] == 1 and p.coeffs[1] == -2 and p.coeffs[9] == -4


class TestBinaryForms:
    def test_mul_and_eval(self):
        f = BinaryForm([1, 2])   # t1 + 2 t0
        g = BinaryForm([3, 0, 1])  # 3 t1^2 + t0^2
        h = f * g
        assert h.degree == 3
        for t0, t1 in [(1, 1), (2, 3), (-1, 5)]:
            assert h(t0, t1) == f(t0, t1) * g(t0, t1)

    def test_gcd_with_roots_at_zero_and_infinity(self):
        lin = binary_linear_root(2, 3)  # vanishes at (2 : 3)
        t0 = BinaryForm([0, 1])
        t1 = BinaryForm([1, 0])
        f = t0 * t1 * lin
        g = t0 * lin * lin
        gcd = binary_gcd([f, g])
        assert gcd.degree == 2
        assert gcd(0, 1) == 0 and gcd(2, 3) == 0 and gcd(1, 0) != 0

    def test_divide_exact(self):
        lin = binary_linear_root(-1, 4)
        f = BinaryForm([3, 1, -2, 5]) * lin
        q = binary_divide_exact(f, lin)
        assert q.coeffs == (3, 1, -2, 5)
        with pytest.raises(InvalidInput):
            binary_divide_exact(BinaryForm([1, 1]), BinaryForm([1, 2, 1]))

    def test_linear_root(self):
        f = binary_linear_root(7, -3)
        t = linear_root(f)
        assert f(*t) == 0
        assert linear_root(BinaryForm([5, 0])) == (1, 0)
