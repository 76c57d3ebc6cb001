import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from centersvar.errors import Inconsistent, NotFinite
from centersvar.forms import Form, monomial_index, monomials
from centersvar.numeric import (_multiplication_rows, _pivot_triple,
                                certify_rational, projective_distance,
                                solve_quadric_system)

MONOS = monomials(2)


def mono_form(entries):
    c = [Fraction(0)] * 10
    for exp, val in entries.items():
        c[MONOS.index(exp)] = Fraction(val)
    return Form(2, tuple(c))


def diagonal_system():
    return [mono_form({tuple(2 if k == i else 0 for k in range(4)): 1, (0, 0, 0, 2): -1})
            for i in range(3)]


class TestSolver:
    def test_separable_system_has_eight_sign_points(self):
        pts = solve_quadric_system(diagonal_system(), expected=8, tol=1e-9, seed=0)
        assert len(pts) == 8
        for p in pts:
            v = p.array()
            v = v / v[np.argmax(np.abs(v))]
            assert np.allclose(np.abs(v), 1, atol=1e-8)
            assert p.residual <= 1e-9

    def test_expected_count_enforced(self):
        with pytest.raises(Inconsistent):
            solve_quadric_system(diagonal_system(), expected=5, tol=1e-9, seed=0)

    def test_positive_dimensional_detected(self):
        line = [mono_form({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1}),
                mono_form({(1, 0, 0, 1): 1}),
                mono_form({(0, 1, 1, 0): 1})]
        with pytest.raises(NotFinite):
            solve_quadric_system(line, tol=1e-9, seed=0)

    def test_degree_six_corank_from_singular_values_rejects_the_line(self):
        line = [mono_form({(1, 0, 1, 0): 1, (0, 1, 0, 1): -1}),
                mono_form({(1, 0, 0, 1): 1}),
                mono_form({(0, 1, 1, 0): 1})]
        with pytest.raises(NotFinite) as caught:
            solve_quadric_system(line, tol=1e-9, seed=0)
        assert caught.value.details == {"corank5": 12, "corank6": 14}

    def test_deterministic_and_permutation_invariant(self):
        forms = diagonal_system()
        first = solve_quadric_system(forms, tol=1e-9, seed=3)
        again = solve_quadric_system(forms, tol=1e-9, seed=3)
        assert [p.coords for p in first] == [p.coords for p in again]
        rng = random.Random(0)
        shuffled = list(forms)
        rng.shuffle(shuffled)
        other = solve_quadric_system(shuffled, tol=1e-9, seed=4)
        for p in first:
            assert min(projective_distance(p.coords, q.coords) for q in other) < 1e-9

    def test_needs_three_forms(self):
        with pytest.raises(NotFinite):
            solve_quadric_system(diagonal_system()[:2], tol=1e-9, seed=0)

    def test_empty_locus(self):
        # x0^2, x1^2, x2^2, x3^2 have no common projective zero
        forms = [mono_form({tuple(2 if k == i else 0 for k in range(4)): 1})
                 for i in range(4)]
        assert solve_quadric_system(forms, tol=1e-9, seed=0) == []


def reference_multiplication_rows(coeff_rows, target_degree):
    """The quadric x monomial products, one coefficient at a time."""
    mult = monomials(target_degree - 2)
    index = monomial_index(target_degree)
    out = np.zeros((len(coeff_rows) * len(mult), len(index)))
    r = 0
    for row in coeff_rows:
        for mu in mult:
            for c, m in zip(row, monomials(2)):
                if c != 0.0:
                    out[r, index[tuple(a + b for a, b in zip(m, mu))]] += c
            r += 1
    return out


@pytest.mark.parametrize("degree", [5, 6])
@pytest.mark.parametrize("nforms", [3, 7])
def test_multiplication_rows_match_the_reference_loop(degree, nforms):
    rng = np.random.default_rng(10 * degree + nforms)
    coeffs = rng.standard_normal((nforms, 10))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
    coeffs[1] = 0.0
    rows = _multiplication_rows(coeffs, degree)
    assert rows.shape == (nforms * len(monomials(degree - 2)), len(monomials(degree)))
    assert np.array_equal(rows, reference_multiplication_rows(coeffs, degree))


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
        pts = solve_quadric_system(diagonal_system(), tol=1e-9, seed=0)
        for p in pts:
            cert = certify_rational(diagonal_system(), p)
            assert cert is not None
            assert all(abs(c) == 1 for c in cert.coords)

    def test_refuses_complex_points(self):
        forms = [mono_form({(2, 0, 0, 0): 1, (0, 0, 0, 2): 1}),  # x0^2 + x3^2
                 mono_form({(0, 2, 0, 0): 1, (0, 0, 0, 2): -1}),
                 mono_form({(0, 0, 2, 0): 1, (0, 0, 0, 2): -1})]
        pts = solve_quadric_system(forms, tol=1e-9, seed=1)
        complex_pts = [p for p in pts if not p.is_real]
        assert complex_pts
        assert all(certify_rational(forms, p) is None for p in complex_pts)


class TestDistance:
    def test_scale_and_phase_free(self):
        u = np.array([1.0, 2.0, -1.0, 3.0])
        assert projective_distance(u, 5j * u) < 1e-15

    def test_orthogonal_lines(self):
        assert abs(projective_distance([1, 0, 0, 0], [0, 1, 0, 0]) - 1.0) < 1e-15
