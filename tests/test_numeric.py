import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centersvar import linalg
from centersvar.errors import Inconsistent, NotFinite
from centersvar.forms import Form, mono_eval, monomials
from centersvar.numeric import (_LADDER, _PRIME, _limit_denominators,
                                _pivot_triple, _rank_mod_p, certify_rational,
                                projective_distance, solve_quadric_system)
from centersvar.projective import pp

RATIONAL = [pp(0, 2, -3, 5), pp(7, -1, 4, 2), pp(3, 3, -8, 0)]
# p = U + iW and its conjugate, with the real point Q
U, W, Q = (1, 2, 0, -1), (0, 1, 3, 2), pp(2, -1, 1, 4)


def quadrics_vanishing_on(rows):
    """A basis of the quadrics whose coefficient vectors annihilate the rows."""
    return [Form(2, tuple(v)) for v in linalg.kernel_basis(rows)]


def veronese(coords):
    return [mono_eval(m, coords) for m in monomials(2)]


def conjugate_veronese(u, w):
    """Re and Im of v_2(u + i w); exact for small integers."""
    v = [prod(complex(a, b) ** e for a, b, e in zip(u, w, m)) for m in monomials(2)]
    return [int(z.real) for z in v], [int(z.imag) for z in v]


def rational_system():
    return quadrics_vanishing_on([veronese(p.coords) for p in RATIONAL])


def conjugate_system():
    return quadrics_vanishing_on(list(conjugate_veronese(U, W)) + [veronese(Q.coords)])


def line_system():
    # every quadric through three collinear points contains their line
    return quadrics_vanishing_on([veronese(c) for c in [(1, 0, 2, 0), (0, 1, -1, 3), (1, 1, 1, 3)]])


def unit(k):
    return Form(2, tuple(Fraction(int(i == k)) for i in range(10)))


class TestSolver:
    def test_three_rational_points(self):
        forms = rational_system()
        assert len(forms) == 7
        pts = solve_quadric_system(forms, expected=3, tol=1e-9, seed=0)
        for p in pts:
            assert p.is_real and p.residual <= 1e-9
        for true in RATIONAL:
            assert min(projective_distance(p.coords, true.coords) for p in pts) < 1e-12

    def test_conjugate_pair_and_a_real_point(self):
        pts = solve_quadric_system(conjugate_system(), expected=3, tol=1e-9, seed=0)
        assert sorted(p.is_real for p in pts) == [False, False, True]
        complex_point = np.array(U) + 1j * np.array(W)
        for true in (complex_point, complex_point.conj(), np.array(Q.coords)):
            assert min(projective_distance(p.coords, true) for p in pts) < 1e-12

    def test_expected_count_enforced(self):
        with pytest.raises(Inconsistent) as caught:
            solve_quadric_system(rational_system(), expected=2, tol=1e-9, seed=0)
        assert caught.value.details == {"h2": 3, "found": 3}

    def test_positive_dimensional_detected(self):
        forms = line_system()
        assert len(forms) == 7
        with pytest.raises(NotFinite) as caught:
            solve_quadric_system(forms, tol=1e-9, seed=0)
        assert caught.value.details == {"h2": 3, "h3": 4}

    def test_degree_six_corank_from_singular_values_rejects_the_line(self):
        # x0 x2 - x1 x3, x0 x3, x1 x2 all vanish on the line x0 = x1 = 0; no
        # singular values are cut, the exact Hilbert function rejects it
        def mono_form(entries):
            c = [Fraction(0)] * 10
            for exp, val in entries.items():
                c[monomials(2).index(exp)] = Fraction(val)
            return Form(2, tuple(c))

        line = [mono_form({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1}),
                mono_form({(1, 0, 0, 1): 1}),
                mono_form({(0, 1, 1, 0): 1})]
        with pytest.raises(NotFinite) as caught:
            solve_quadric_system(line, tol=1e-9, seed=0)
        assert caught.value.details == {"h2": 7, "h3": 8}

    def test_deterministic_and_permutation_invariant(self):
        for forms in (rational_system(), conjugate_system()):
            first = solve_quadric_system(forms, tol=1e-9, seed=3)
            again = solve_quadric_system(forms, tol=1e-9, seed=3)
            assert [p.coords for p in first] == [p.coords for p in again]
            shuffled = list(forms)
            random.Random(0).shuffle(shuffled)
            other = solve_quadric_system(shuffled, tol=1e-9, seed=4)
            assert len(other) == len(first) == 3
            for p in first:
                assert min(projective_distance(p.coords, q.coords) for q in other) < 1e-9

    def test_needs_three_forms(self):
        with pytest.raises(NotFinite):
            solve_quadric_system(rational_system()[:2], tol=1e-9, seed=0)

    def test_empty_locus(self):
        forms = [unit(k) for k in range(10)]
        assert solve_quadric_system(forms, tol=1e-9, seed=0) == []


SMALL_MATRIX = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.one_of(st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
              st.just([0] * cols)),
    min_size=1, max_size=6))


@given(SMALL_MATRIX, st.data())
@settings(max_examples=200, deadline=None)
def test_rank_mod_p_is_the_rational_rank_of_small_matrices(rows, data):
    # entries below 50 in at most 6 x 6 keep every minor below p (Hadamard), so
    # the two ranks agree; shifting entries by multiples of p changes no residue
    shifts = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows[0]),
                                         max_size=len(rows[0])),
                                min_size=len(rows), max_size=len(rows)))
    shifted = [[x + _PRIME * s for x, s in zip(row, srow)] for row, srow in zip(rows, shifts)]
    assert _rank_mod_p(shifted) == linalg.rank(rows)


def test_rank_mod_p_never_exceeds_the_rational_rank():
    multiples = [[_PRIME, 0], [0, -2 * _PRIME]]
    assert _rank_mod_p(multiples) == 0 < linalg.rank(multiples)


def reference_pivot_triple(jac):
    """The pivot choice as one det per triple."""
    best, best_det = None, 0.0
    for combo in combinations(range(len(jac)), 3):
        sub = np.array([jac[i] for i in combo])
        scale = np.prod([np.linalg.norm(r) or 1.0 for r in sub])
        d = abs(np.linalg.det(sub)) / scale
        if d > best_det:
            best, best_det = combo, d
    if best is None or best_det < 1e-12:
        return None
    return best


def test_stacked_pivot_choice_matches_the_loop():
    rng = np.random.default_rng(5)
    for trial in range(300):
        k = int(rng.integers(3, 9))
        jac = rng.standard_normal((k, 3)) * 10.0 ** rng.integers(-4, 5, size=(k, 1))
        if trial % 3 == 0:
            jac[int(rng.integers(k))] = 0.0
        if trial % 4 == 0:
            jac[1] = jac[0]  # ties between triples
        if trial % 7 == 0:
            jac[:, 2] = jac[:, 0] - 2.0 * jac[:, 1]  # every triple singular
        assert _pivot_triple(jac) == reference_pivot_triple(jac)
    assert _pivot_triple(np.eye(3)[:2]) is None


class TestCertification:
    def test_certifies_rational_points(self):
        forms = rational_system()
        pts = solve_quadric_system(forms, tol=1e-9, seed=0)
        assert {certify_rational(forms, p) for p in pts} == set(RATIONAL)

    def test_certifies_with_non_integral_coefficients(self):
        # the Newton steps run on d * form, d the lcm of the denominators; a
        # form rounded to integers would move the zeros and certify nothing
        pts = solve_quadric_system(rational_system(), tol=1e-9, seed=0)
        scaled = [f.scaled(Fraction(1, 3) if i % 2 else Fraction(5, 7))
                  for i, f in enumerate(rational_system())]
        assert any(c.denominator % 3 == 0 for f in scaled for c in f.coeffs)
        assert {certify_rational(scaled, p) for p in pts} == set(RATIONAL)

    def test_refuses_complex_points(self):
        forms = conjugate_system()
        pts = solve_quadric_system(forms, tol=1e-9, seed=1)
        complex_pts = [p for p in pts if not p.is_real]
        assert len(complex_pts) == 2
        assert all(certify_rational(forms, p) is None for p in complex_pts)
        assert [certify_rational(forms, p) for p in pts if p.is_real] == [Q]


def farey_midpoints(bound):
    """(n, d) midway between two neighbours a/b < c/e of the Farey sequence of
    order bound (b c - a e = 1), where limit_denominator(bound) ties."""
    def midpoint(ab):
        a, b = ab
        r = -pow(a, -1, b) % b
        e = bound - (bound - r) % b  # the largest e <= bound with a e = -1 mod b
        c = (1 + a * e) // b
        return a * e + b * c, 2 * b * e
    return st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, bound)).filter(
        lambda ab: gcd(*ab) == 1).map(midpoint)


FRACTIONS = st.one_of(
    # dyadic, as exact_newton_polish returns them
    st.tuples(st.integers(-2 ** 258, 2 ** 258), st.just(2 ** 256)),
    st.tuples(st.integers(-10 ** 80, 10 ** 80), st.integers(1, 10 ** 80)),
    # denominators at or below the first bound
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(1, _LADDER[0])),
    # expansions that end exactly between two bounds, given unreduced
    st.tuples(st.integers(-10 ** 40, 10 ** 40), st.integers(10 ** 4, 10 ** 30),
              st.integers(1, 10 ** 20)).map(lambda t: (t[0] * t[2], t[1] * t[2])),
    st.sampled_from(_LADDER).flatmap(farey_midpoints),
)


@given(FRACTIONS)
@example((1, 20000))  # midway between 0/1 and 1/10^4: the convergent 0/1 wins
@settings(max_examples=400, deadline=None)
def test_one_pass_matches_limit_denominator_at_every_bound(nd):
    n, d = nd
    snapped = _limit_denominators(n, d, _LADDER)
    assert all(gcd(p, q) == 1 and q > 0 for p, q in snapped)
    assert [Fraction(p, q) for p, q in snapped] == [
        Fraction(n, d).limit_denominator(b) for b in _LADDER]


class TestDistance:
    def test_scale_and_phase_free(self):
        u = np.array([1.0, 2.0, -1.0, 3.0])
        assert projective_distance(u, 5j * u) < 1e-15

    def test_orthogonal_lines(self):
        assert abs(projective_distance([1, 0, 0, 0], [0, 1, 0, 0]) - 1.0) < 1e-15
