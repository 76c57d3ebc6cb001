"""An exact completeness oracle for n = 7: on each side, the number of exact
centers the report carries equals the number of rational common zeros of
the side's seven quadrics, counted by sympy over Q.

The oracle. The integer dual kernel of the seven quadrics (their 7 x 10
coefficient rows) is spanned by the Veronese vectors v_2(p_k) of their
three common zeros p_k. Read as moment matrices, v_2(p) is p p^T, so a
kernel basis K_1, K_2, K_3 gives, for a direction c,

    A_c = [M(K_1) c, M(K_2) c, M(K_3) c] = P diag(p_k . c) mu^T,

with P the 4 x 3 matrix of the zeros and mu the change of basis. On three
rows R, g(t) = det(R_d - t R_c) = det(R P) det(mu) prod_k (p_k . d - t p_k . c).
So g has degree 3 exactly when det R_c != 0, and then its roots
t_k = (p_k . d) / (p_k . c) are distinct exactly when disc g != 0. Over the
splitting field the roots and the zeros then correspond one to one, and
Galois respects that, so a root is rational exactly when its zero is: the
linear factors of g over Q count the rational zeros. g is an integer
cubic, expanded by multilinearity in the columns.
"""

import random
from itertools import combinations, product

import pytest
import sympy

from centersvar import linalg
from centersvar.datagen import generate_reconstruction
from centersvar.errors import ToolkitError
from centersvar.forms import moment_positions
from centersvar.loci import ThreePairsN7, centers_variety
from centersvar.projective import Configuration, _det3
from test_loci_n7 import rand_config

T = sympy.Symbol("t")

# the directions c, d are taken in pairs, in this order, until g qualifies
DIRECTIONS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
              (1, -1, 2, -3))

# a random pair from [-1, 1] whose three center pairs are all rational
THREE_EXACT = (
    [(1, 1, -1, -1), (1, 1, 0, 1), (1, 0, 1, -1), (0, 1, 1, -1), (0, 1, 1, 1), (1, 1, 0, 0),
     (1, 1, -1, 0)],
    [(1, 0, -1, 0), (1, -1, -1, 1), (1, -1, 1, 0), (0, 1, -1, 1), (1, 0, -1, 1), (1, -1, 1, -1),
     (1, -1, 0, 1)])


def _cubic(rc, rd):
    """The integer coefficients of det(rd - t rc), highest degree first: the
    sum over each choice of columns from rc or rd."""
    coeffs = [0] * 4
    for pick in product((0, 1), repeat=3):
        rows = [[(rc if p else rd)[r][k] for k, p in enumerate(pick)] for r in range(3)]
        coeffs[3 - sum(pick)] += (-1) ** sum(pick) * _det3(rows)
    return coeffs


def rational_roots(quadrics):
    """(c, d, roots): the first direction pair whose cubic g has degree 3 and
    distinct roots, and the rational roots of g."""
    kernel = linalg.integer_kernel([list(q.coeffs) for q in quadrics])
    assert len(kernel) == 3
    moments = [[[v[k] for k in row] for row in moment_positions()] for v in kernel]
    for c, d in combinations(DIRECTIONS, 2):
        ac, ad = ([[sum(m[r][k] * e[k] for k in range(4)) for m in moments] for r in range(4)]
                  for e in (c, d))
        for rows in combinations(range(4), 3):
            g = sympy.Poly(_cubic([ac[r] for r in rows], [ad[r] for r in rows]), T)
            if g.degree() == 3 and g.discriminant() != 0:
                _, factors = g.factor_list()
                return c, d, [-f.nth(0) / f.nth(1) for f, _ in factors if f.degree() == 1]
    raise AssertionError("no direction pair gives a cubic with distinct roots")


def root_of(p, c, d):
    """The root t = (p . d) / (p . c) that a zero p gives g."""
    return sympy.Rational(sum(u * v for u, v in zip(p.coords, d)),
                          sum(u * v for u, v in zip(p.coords, c)))


def test_the_oracle_finds_the_planted_root_and_the_three_of_a_split_input():
    for seed in range(3):
        rec = generate_reconstruction(7, seed=seed)
        result = centers_variety(rec.x, rec.y)
        for quads, planted in ((result.candidates.a_quadrics, rec.a_true),
                               (result.candidates.b_quadrics, rec.b_true)):
            c, d, roots = rational_roots(quads)
            assert roots == [root_of(planted, c, d)]
    x, y = (Configuration(pts) for pts in THREE_EXACT)
    result = centers_variety(x, y)
    for quads, side in ((result.candidates.a_quadrics, "a"), (result.candidates.b_quadrics, "b")):
        c, d, roots = rational_roots(quads)
        exact = [getattr(m, side).exact for m in result.pairs]
        assert len(roots) == 3 and None not in exact
        assert sorted(roots) == sorted(root_of(p, c, d) for p in exact)


def _generated(bound, seeds):
    for seed in seeds:
        rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
        yield rec.x, rec.y


def _random(count):
    rng = random.Random(20261020)
    for _ in range(count):
        yield rand_config(rng, 7), rand_config(rng, 7)


_D1 = pytest.mark.xfail(raises=AssertionError, strict=True,
                        reason="D1: the denominator ladder misses the planted center "
                               "(ROADMAP item 2)")


@pytest.mark.parametrize("inputs", [
    pytest.param(lambda: _generated(10, range(10)), id="bound=10"),
    pytest.param(lambda: _generated(10 ** 3, range(10)), id="bound=1000"),
    pytest.param(lambda: _random(20), id="random"),
    pytest.param(lambda: _generated(10 ** 6, range(5, 10)), id="bound=10^6", marks=_D1),
    pytest.param(lambda: _generated(10 ** 8, range(2)), id="bound=10^8", marks=_D1),
])
def test_each_side_reports_as_many_exact_centers_as_it_has_rational_zeros(inputs):
    counts = []
    for x, y in inputs():
        try:
            result = centers_variety(x, y)
        except ToolkitError:
            continue
        assert isinstance(result, ThreePairsN7)
        for quads, side in ((result.candidates.a_quadrics, "a"),
                            (result.candidates.b_quadrics, "b")):
            exact = sum(getattr(m, side).exact is not None for m in result.pairs)
            assert exact == len(rational_roots(quads)[2])
            counts.append(exact)
    assert len(counts) >= 20
