import math
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centersvar import linalg
from centersvar.errors import Inconclusive, NotFinite
from centersvar.forms import (Form, _product_positions, mono_eval, monomial_index,
                              monomials)
from centersvar.numeric import (_DIRECTIONS, _LADDER, _PRIME, _echelon_mod_p,
                                _hilbert_function, _last_convergents, _pivot_triples,
                                certify_rational, exact_newton_polish,
                                projective_distance, solve_quadric_system,
                                sym_floats)
from centersvar.projective import canonical_coords, cofactors, pp

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
        pts = solve_quadric_system(forms)
        for p in pts:
            assert p.is_real and p.residual <= 1e-9
        for true in RATIONAL:
            assert min(projective_distance(p.coords, true.coords) for p in pts) < 1e-12

    def test_conjugate_pair_and_a_real_point(self):
        pts = solve_quadric_system(conjugate_system())
        assert sorted(p.is_real for p in pts) == [False, False, True]
        complex_point = np.array(U) + 1j * np.array(W)
        for true in (complex_point, complex_point.conj(), np.array(Q.coords)):
            assert min(projective_distance(p.coords, true) for p in pts) < 1e-12

    def test_expected_count_enforced(self):
        # exactly H(3) points, or Inconclusive with H(3) and the count placed
        from centersvar.loci import quadric_pair_n6
        from test_loci_n7 import shortfall_pair

        for forms in (rational_system(), conjugate_system()):
            assert _hilbert_function(forms) == (3, 3)
            assert len(solve_quadric_system(forms)) == 3
        x, y = shortfall_pair(1493)
        a_quads = [quadric_pair_n6(x.drop(k), y.drop(k))[0] for k in range(7)]
        assert _hilbert_function(a_quads) == (3, 3)
        with pytest.raises(Inconclusive) as caught:
            solve_quadric_system(a_quads)
        assert caught.value.details == {"h3": 3, "found": 1}

    def test_positive_dimensional_detected(self):
        forms = line_system()
        assert len(forms) == 7
        with pytest.raises(NotFinite) as caught:
            solve_quadric_system(forms)
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
            solve_quadric_system(line)
        assert caught.value.details == {"h2": 7, "h3": 8}

    def test_deterministic_and_permutation_invariant(self):
        for forms in (rational_system(), conjugate_system()):
            first = solve_quadric_system(forms)
            again = solve_quadric_system(forms)
            assert [p.coords for p in first] == [p.coords for p in again]
            shuffled = list(forms)
            random.Random(0).shuffle(shuffled)
            other = solve_quadric_system(shuffled)
            assert len(other) == len(first) == 3
            for p in first:
                assert min(projective_distance(p.coords, q.coords) for q in other) < 1e-9

    def test_needs_three_forms(self):
        with pytest.raises(NotFinite):
            solve_quadric_system(rational_system()[:2])

    def test_empty_locus(self):
        forms = [unit(k) for k in range(10)]
        assert solve_quadric_system(forms) == []


def _rank_mod_p(rows):
    """Rank over GF(_PRIME) of an integer matrix, by dense elimination: the
    reference for the sparse degree-3 rank of _hilbert_function."""
    rows = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, _PRIME)
        top = [x * inv % _PRIME for x in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(x - f * y) % _PRIME for x, y in zip(rows[i][c:], top)]
        rank += 1
    return rank


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


def reference_hilbert_function(forms):
    """(H(2), H(3)) with the degree-3 part spanned by z_k * (every input row)."""
    rows = [canonical_coords(f.coeffs) for f in forms]
    index3 = monomial_index(3)
    products = []
    for k in range(4):
        cols = [index3[tuple(e + (i == k) for i, e in enumerate(m))] for m in monomials(2)]
        for row in rows:
            product = [0] * len(index3)
            for c, col in zip(row, cols):
                product[col] = c
            products.append(product)
    return len(monomials(2)) - _rank_mod_p(rows), len(index3) - _rank_mod_p(products)


POINTS = st.lists(st.integers(-4, 4), min_size=4, max_size=4).filter(any)
SCALES = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)


@st.composite
def quadric_systems(draw):
    """1 to 14 forms, each an integer combination, scaled by a Fraction, of
    the quadrics through a few drawn points, of random quadrics, or of the
    quadrics through a line; fewer generators than forms makes the rows
    dependent."""
    kind = draw(st.sampled_from(["points", "random", "line"]))
    if kind == "points":
        pts = draw(st.lists(POINTS, max_size=9))
        gens = quadrics_vanishing_on([veronese(p) for p in pts]) if pts else \
            [unit(k) for k in range(10)]
    elif kind == "random":
        gens = [Form(2, tuple(row)) for row in draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=10, max_size=10), min_size=1, max_size=12))]
    else:
        gens = line_system()
    forms = []
    k = draw(st.integers(1, 14))
    for weights in draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(gens),
                                          max_size=len(gens)), min_size=k, max_size=k)):
        coeffs = [sum(w * g.coeffs[i] for w, g in zip(weights, gens)) for i in range(10)]
        forms.append(Form(2, tuple(coeffs)).scaled(draw(SCALES)))
    return [f for f in forms if not f.is_zero()]


@given(quadric_systems())
@example([unit(k) for k in range(10)] + rational_system())  # more forms than monomials
@settings(max_examples=100, deadline=None)
def test_hilbert_function_from_the_echelon_basis_matches_all_rows(forms):
    if not forms:
        return
    assert _hilbert_function(forms) == reference_hilbert_function(forms)


def test_hilbert_function_of_seven_quadrics_through_a_line():
    assert _hilbert_function(line_system()) == reference_hilbert_function(line_system()) == (3, 4)


def dense_hilbert_function(forms):
    """(H(2), H(3)) with the products z_k * (echelon basis row) ranked by
    dense elimination: the route the sparse echelon replaced."""
    basis = _echelon_mod_p([canonical_coords(f.coeffs) for f in forms])
    products = []
    for cols in _product_positions(1, 2):
        for row in basis:
            product = [0] * len(monomials(3))
            for c, col in zip(row, cols):
                product[col] = c
            products.append(product)
    return len(monomials(2)) - len(basis), len(monomials(3)) - _rank_mod_p(products)


def linear_form_products(rng, count):
    """count quadrics, each a product of two random integer linear forms."""
    def linear():
        return Form(1, tuple(rng.randint(-5, 5) for _ in range(4)))
    return [f for f in (linear() * linear() for _ in range(count)) if not f.is_zero()]


@given(quadric_systems())
@example(line_system())
@example(rational_system() + rational_system())  # rank-deficient: 14 rows of rank 7
@example([unit(k) for k in range(10)])
@settings(max_examples=150, deadline=None)
def test_sparse_degree_three_rank_matches_the_dense_elimination(forms):
    if not forms:
        return
    assert _hilbert_function(forms) == dense_hilbert_function(forms)


def test_sparse_degree_three_rank_on_structured_systems():
    rng = random.Random(11)
    systems = [line_system(), conjugate_system(), rational_system()[:4],
               rational_system()[:1], [unit(0)] * 3]
    for count in (1, 2, 4, 7, 10, 14):
        systems += [linear_form_products(rng, count) for _ in range(20)]
    # random integer systems, some with repeated rows or huge entries
    for count in (3, 7, 9):
        for scale in (1, 10 ** 30):
            rows = [[rng.randint(-9, 9) * scale for _ in range(10)] for _ in range(count)]
            systems.append([Form(2, tuple(r)) for r in rows + rows[:2] if any(r)])
    for forms in systems:
        forms = [f for f in forms if not f.is_zero()]
        assert _hilbert_function(forms) == dense_hilbert_function(forms) \
            == reference_hilbert_function(forms)


def test_echelon_basis_is_reduced_and_spans_the_rows():
    rows = [[3, 6, 0, 9], [1, 2, 0, 3], [0, 0, 5, 1], [2, 4, 1, 7]]
    basis = _echelon_mod_p(rows)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    assert len(basis) == _rank_mod_p(rows) == linalg.rank(rows) == 3
    for b, c in zip(basis, pivots):
        assert b[c] == 1 and all(other[c] == 0 for other in basis if other is not b)
    assert _rank_mod_p(rows + basis) == 3


def reference_echelon_mod_p(rows):
    """_echelon_mod_p as a dense elimination: every step reduces, normalizes
    and back-substitutes whole rows."""
    basis, pivots = [], []
    for row in rows:
        row = [x % _PRIME for x in row]
        for c, b in zip(pivots, basis):
            f = row[c]
            if f:
                row = [(x - f * y) % _PRIME for x, y in zip(row, b)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None:
            continue
        inv = pow(row[c], -1, _PRIME)
        row = [x * inv % _PRIME for x in row]
        for i, b in enumerate(basis):
            f = b[c]
            if f:
                basis[i] = [(x - f * y) % _PRIME for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(c)
    return basis


@given(quadric_systems())
@example([unit(k) for k in range(10)] + rational_system())
@settings(max_examples=150, deadline=None)
def test_echelon_of_the_free_columns_matches_the_dense_elimination(forms):
    rows = [canonical_coords(f.coeffs) for f in forms]
    assert _echelon_mod_p(rows) == reference_echelon_mod_p(rows)


def test_echelon_of_the_free_columns_on_random_matrices():
    rng = random.Random(19)
    for _ in range(400):
        rows = [[rng.randint(-3, 3) * rng.choice([1, 10 ** 30, _PRIME]) for _ in range(10)]
                for _ in range(rng.randint(1, 12))]
        rows += rows[:2]  # repeated rows
        assert _echelon_mod_p(rows) == reference_echelon_mod_p(rows)
    assert _echelon_mod_p([]) == []


def reference_pivot_triples(jac):
    """The pivot order as one det per triple: every triple scoring at least
    1e-12, largest score first, the first triple first on a tie."""
    scored = []
    for combo in combinations(range(len(jac)), 3):
        sub = np.array([jac[i] for i in combo])
        scale = np.prod([np.linalg.norm(r) or 1.0 for r in sub])
        scored.append((abs(np.linalg.det(sub)) / scale, combo))
    return [combo for d, combo in sorted(scored, key=lambda t: -t[0]) if d >= 1e-12]


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
        assert _pivot_triples(jac) == reference_pivot_triples(jac)
    assert _pivot_triples(np.eye(3)[:2]) == []


def reference_integer_solve(a, b):
    """(numerators, d) with x = numerators / d the unique solution of A x = b
    for square A, or None if A is singular, read off the fraction-free
    elimination of the augmented matrix: the Newton step of
    exact_newton_polish before it took one cofactor vector."""
    n = len(a)
    m, pivots, d, _, _ = linalg._eliminate([list(row) + [b[i]] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [m[i][n] for i in range(n)], d


def check_cofactor_step(rows):
    """The step s with J s = -f of the augmented rows (J_i | f_i) is
    (c_0, c_1, c_2) / c_3 for their cofactor vector c, singular exactly
    when c_3 = 0, as the elimination finds it."""
    jac, f = [r[:3] for r in rows], [r[3] for r in rows]
    c = cofactors(*rows)
    want = reference_integer_solve(jac, [-v for v in f])
    if want is None:
        assert c[3] == 0
        return False
    numerators, d = want
    x = [Fraction(v, d) for v in numerators]
    assert all(sum(j * v for j, v in zip(row, x)) == -fi for row, fi in zip(jac, f))
    assert [Fraction(v, c[3]) for v in c[:3]] == x
    return True


HUGE = st.integers(-10 ** 80, 10 ** 80)
AUGMENTED_ROW = st.lists(HUGE, min_size=4, max_size=4)


@st.composite
def singular_systems(draw):
    """Three augmented rows whose Jacobian part is of rank at most 2: the
    third is an integer combination of the first two, f left free."""
    r0, r1 = draw(AUGMENTED_ROW), draw(AUGMENTED_ROW)
    u, v = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    return [r0, r1, [u * x + v * y for x, y in zip(r0[:3], r1[:3])] + [draw(HUGE)]]


@given(st.one_of(st.lists(AUGMENTED_ROW, min_size=3, max_size=3), singular_systems()))
@settings(max_examples=300, deadline=None)
def test_cofactor_step_matches_the_elimination(rows):
    check_cofactor_step(rows)


def test_cofactor_step_on_random_small_and_singular_systems():
    rng = random.Random(20)
    solved = 0
    for trial in range(2000):
        bound = (3, 10 ** 8, 10 ** 80)[trial % 3]
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(3)]
        if trial % 4 == 0:
            rows[2][:3] = [rng.randint(-2, 2) * x for x in rows[rng.randint(0, 1)][:3]]
        solved += check_cofactor_step(rows)
    assert 1000 < solved < 2000


def reference_exact_newton_polish(forms, point):
    """exact_newton_polish with each Newton step by the fraction-free 3 x 3
    elimination and the pivot triples scored one det at a time."""
    p = np.asarray(point, dtype=complex)
    if np.max(np.abs(p.imag)) > 1e-6 * np.max(np.abs(p)):
        return None
    real = p.real / np.linalg.norm(p.real)
    j = int(np.argmax(np.abs(real)))
    unknowns = [k for k in range(4) if k != j]
    jac_float = 2.0 * (sym_floats(np.array([f.floats for f in forms])) @ real)
    start = [round(math.ldexp(v, 64)) for v in real / real[j]]
    start[j] = 1 << 64
    for best in reference_pivot_triples(jac_float[:, unknowns]):
        triple = [forms[i] for i in best]
        x, e = start, 64
        for e_next in (128, 256):
            jac = [[sum(f.integer_hessian[k][m] * x[m] for m in range(4)) for k in unknowns]
                   for f in triple]
            step = reference_integer_solve(jac, [-f.integer_value(x) for f in triple])
            if step is None:
                break
            numerators, d = step
            x = [v << (e_next - e) for v in x]
            for k, s in zip(unknowns, numerators):
                x[k] += (2 * (s << (e_next - e)) * d + d * d) // (2 * d * d)  # nearest, halves up
            e = e_next
        else:
            return x, 1 << e
    return None


@pytest.mark.parametrize("bound", [10, 1000])
def test_newton_polish_matches_the_elimination_route(bound):
    from centersvar.datagen import generate_reconstruction
    from centersvar.loci import quadric_pair_n6
    polished = 0
    for seed in range(20):
        rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
        quads = [quadric_pair_n6(rec.x.drop(k), rec.y.drop(k))[0] for k in range(7)]
        for p in solve_quadric_system(quads):
            got = exact_newton_polish(quads, p.array())
            assert got == reference_exact_newton_polish(quads, p.array())
            polished += got is not None
    assert polished >= 40


def test_certifies_a_point_whose_denominators_are_the_prime():
    # frozen to its largest coordinate the first point is (1 : 1/p : 2/p : 3/p),
    # a snap with denominators _PRIME. The forms are products of planes
    # through the points, which stay independent mod _PRIME.
    rng = random.Random(22)
    points = [pp(_PRIME, 1, 2, 3), pp(0, 2, -3, 5), pp(7, -1, 4, 2)]

    def plane_through(*pts):
        return Form(1, cofactors(*pts, *([rng.randint(-9, 9) for _ in range(4)]
                                         for _ in range(3 - len(pts)))))

    forms = []
    for k in range(7):
        a, b, c = (points[(k + i) % 3].coords for i in range(3))
        forms.append(plane_through(a, b) * plane_through(c))
    found = {certify_rational(forms, p) for p in solve_quadric_system(forms)}
    assert found == set(points)


def test_directions_are_the_first_eight_draws_of_seed_zero_and_read_only():
    rng = random.Random(0)
    c, d = _DIRECTIONS
    assert c.tobytes() == np.array([rng.gauss(0.0, 1.0) for _ in range(4)]).tobytes()
    assert d.tobytes() == np.array([rng.gauss(0.0, 1.0) for _ in range(4)]).tobytes()
    for row in (_DIRECTIONS, c, d):
        with pytest.raises(ValueError):
            row[0] = 0.0


class TestCertification:
    def test_certifies_rational_points(self):
        forms = rational_system()
        pts = solve_quadric_system(forms)
        assert {certify_rational(forms, p) for p in pts} == set(RATIONAL)

    def test_certifies_with_non_integral_coefficients(self):
        # the Newton steps run on d * form, d the lcm of the denominators; a
        # form rounded to integers would move the zeros and certify nothing
        pts = solve_quadric_system(rational_system())
        scaled = [f.scaled(Fraction(1, 3) if i % 2 else Fraction(5, 7))
                  for i, f in enumerate(rational_system())]
        assert any(c.denominator % 3 == 0 for f in scaled for c in f.coeffs)
        assert {certify_rational(scaled, p) for p in pts} == set(RATIONAL)

    def test_refuses_complex_points(self):
        forms = conjugate_system()
        pts = solve_quadric_system(forms)
        complex_pts = [p for p in pts if not p.is_real]
        assert len(complex_pts) == 2
        assert all(certify_rational(forms, p) is None for p in complex_pts)
        assert [certify_rational(forms, p) for p in pts if p.is_real] == [Q]


def reference_last_convergents(x: Fraction, bounds) -> list[Fraction]:
    """For each bound, the last convergent of x with denominator <= bound:
    the plain expansion x = a_0 + 1 / (a_1 + 1 / (a_2 + ...)), each
    convergent evaluated from its partial quotients in Fractions."""
    quotients, convergents = [], []
    while not convergents or convergents[-1].denominator <= max(bounds):
        a = math.floor(x)
        quotients.append(a)
        value = Fraction(quotients[-1])
        for q in reversed(quotients[:-1]):
            value = q + 1 / value
        convergents.append(value)
        if x == a:
            break
        x = 1 / (x - a)
    return [[c for c in convergents if c.denominator <= b][-1] for b in bounds]


FRACTIONS = st.one_of(
    # dyadic, as exact_newton_polish returns them
    st.tuples(st.integers(-2 ** 258, 2 ** 258), st.just(2 ** 256)),
    st.tuples(st.integers(-10 ** 80, 10 ** 80), st.integers(1, 10 ** 80)),
    # denominators at or below the first bound
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(1, _LADDER[0])),
    # expansions that end exactly between two bounds, given unreduced
    st.tuples(st.integers(-10 ** 40, 10 ** 40), st.integers(10 ** 4, 10 ** 30),
              st.integers(1, 10 ** 20)).map(lambda t: (t[0] * t[2], t[1] * t[2])),
)


@given(FRACTIONS)
@settings(max_examples=400, deadline=None)
def test_one_pass_matches_the_plain_expansion_at_every_bound(nd):
    n, d = nd
    snapped = _last_convergents(n, d, _LADDER)
    assert all(gcd(p, q) == 1 and q > 0 for p, q in snapped)
    assert [Fraction(p, q) for p, q in snapped] == reference_last_convergents(
        Fraction(n, d), _LADDER)


@st.composite
def near_dyadics(draw):
    """(b, p, q, X): a bound b of _LADDER, a coprime p/q with q <= b and
    the numerator X of a dyadic X / 2**256 within 1 / (2 q b) of p/q."""
    b = draw(st.sampled_from(_LADDER))
    q = draw(st.integers(1, b))
    p = draw(st.integers(-10 ** 40, 10 ** 40).filter(lambda p: gcd(p, q) == 1))
    reach = 2 ** 256 // (2 * q * b) - 1  # |X - p 2**256 / q| < 2**256 / (2 q b)
    return b, p, q, p * 2 ** 256 // q + draw(st.integers(-reach, reach))


@given(near_dyadics())
@settings(max_examples=400, deadline=None)
def test_a_dyadic_within_half_over_q_b_snaps_to_p_over_q_at_rung_b(case):
    b, p, q, x = case
    assert 2 * b * abs(x * q - p * 2 ** 256) < 2 ** 256
    assert _last_convergents(x, 2 ** 256, _LADDER)[_LADDER.index(b)] == (p, q)


class TestDistance:
    def test_scale_and_phase_free(self):
        u = np.array([1.0, 2.0, -1.0, 3.0])
        assert projective_distance(u, 5j * u) < 1e-15

    def test_orthogonal_lines(self):
        assert abs(projective_distance([1, 0, 0, 0], [0, 1, 0, 0]) - 1.0) < 1e-15

    def test_small_angles_have_no_floor(self):
        # sqrt(1 - c^2) rounds every angle up to about 1.5e-8 to 0
        u, w = np.array([1, 2, -2, 0]) / 3, np.array([0, 0, 0, 1j])
        for k in range(8, 15):
            angle = 10.0 ** -k
            v = (np.cos(angle) * u + np.sin(angle) * w) * np.exp(0.7j)
            assert abs(projective_distance(u, v) - angle) <= 1e-16 + 1e-6 * angle
            assert abs(projective_distance(v, u) - angle) <= 1e-16 + 1e-6 * angle
