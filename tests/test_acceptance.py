"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Exact checks use zero tolerance; numeric checks use the stated
thresholds and nothing looser.
"""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from centersvar import linalg
from centersvar.datagen import generate_degenerate, generate_reconstruction
from centersvar.forms import Form, monomials, same_span
from centersvar.invariants import (G5_TRIPLES, InvariantVector, fano,
                                   fano15, fano_sum_odd, igusa_F, morley, t6)
from centersvar.errors import DegenerateInput
from centersvar.loci import (DegenerationTag, candidates_n7, centers_n_ge8,
                             classify_degeneration_n5, cubic_locus_n5,
                             fano15_complex, map_a_to_b_n6, map_b_to_a_n6,
                             pair_candidates_n7, weddle_curve_point)
from centersvar.numeric import projective_distance
from centersvar.projective import (Configuration, gale_transform,
                                   homography_fit, pp)

STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
GOLDEN_A = pp(43, -50, 6, -5)

MONOS2 = monomials(2)


def mono_form(entries):
    c = [Fraction(0)] * 10
    for exp, val in entries.items():
        c[MONOS2.index(exp)] = Fraction(val)
    return Form(2, tuple(c))


def report(num, message):
    print(f"\nCRITERION {num}: PASS - {message}")


def rand_plane_config(rng, n):
    return Configuration([[rng.randint(-9, 9) or 1 for _ in range(3)] for _ in range(n)])


def test_criterion_01_golden_five_point_fiber():
    curve = cubic_locus_n5(STD5, STD5, GOLDEN_A)
    golden = [
        mono_form({(0, 1, 1, 0): 28, (0, 1, 0, 1): 27, (0, 0, 1, 1): -55}),
        mono_form({(1, 0, 1, 0): 185, (1, 0, 0, 1): 288, (0, 0, 1, 1): -473}),
        mono_form({(1, 1, 0, 0): 31, (1, 0, 0, 1): -160, (0, 1, 0, 1): 129}),
    ]
    assert same_span(curve.quadrics, golden)  # exact mutual containment
    assert linalg.rank([f.coeffs for f in curve.quadrics]) == 3
    report(1, "golden n=5 quadric span matches exactly (zero tolerance)")


# the six projected-invariant polynomials in the center coordinates, as displayed
DISPLAYED_SEXTICS = {
    0: [(-1, (2, 2, 1, 1)), (1, (1, 2, 2, 1)), (1, (2, 1, 1, 2)), (1, (1, 2, 1, 2)),
        (-1, (1, 1, 2, 2)), (-1, (0, 2, 2, 2)), (-1, (1, 1, 1, 3)), (1, (0, 1, 2, 3))],
    1: [(-1, (2, 2, 1, 1)), (1, (1, 2, 2, 1)), (1, (2, 2, 0, 2)), (1, (2, 1, 1, 2)),
        (-1, (1, 2, 1, 2)), (-1, (1, 1, 2, 2)), (-1, (2, 1, 0, 3)), (1, (1, 1, 1, 3))],
    2: [(-1, (2, 2, 0, 2)), (1, (2, 1, 1, 2)), (1, (1, 2, 1, 2)), (-1, (1, 1, 2, 2)),
        (1, (1, 2, 0, 3)), (-1, (1, 1, 1, 3)), (-1, (0, 2, 1, 3)), (1, (0, 1, 2, 3))],
    3: [(-1, (2, 2, 1, 1)), (1, (2, 1, 2, 1)), (1, (2, 2, 0, 2)), (-1, (2, 1, 1, 2)),
        (1, (1, 2, 1, 2)), (-1, (1, 1, 2, 2)), (-1, (1, 2, 0, 3)), (1, (1, 1, 1, 3))],
    4: [(-1, (2, 2, 0, 2)), (1, (2, 1, 1, 2)), (1, (1, 2, 1, 2)), (-1, (1, 1, 2, 2)),
        (1, (2, 1, 0, 3)), (-1, (2, 0, 1, 3)), (-1, (1, 1, 1, 3)), (1, (1, 0, 2, 3))],
    5: [(-1, (2, 2, 1, 1)), (1, (2, 1, 2, 1)), (1, (2, 1, 1, 2)), (1, (1, 2, 1, 2)),
        (-1, (2, 0, 2, 2)), (-1, (1, 1, 2, 2)), (-1, (1, 1, 1, 3)), (1, (1, 0, 2, 3))],
}


def _displayed_eval(i, a):
    return sum(Fraction(c) * a[0] ** e0 * a[1] ** e1 * a[2] ** e2 * a[3] ** e3
               for c, (e0, e1, e2, e3) in DISPLAYED_SEXTICS[i])


def _bracket_pipeline_eval(i, a):
    # the literal image representatives of the standard five points
    pts = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (a[0], a[1], a[2]),
           5: (a[3] - a[0], a[3] - a[1], a[3] - a[2])}
    total = Fraction(1)
    for r, s, t in G5_TRIPLES[i]:
        total *= linalg.det([pts[r], pts[s], pts[t]])
    return total


def test_criterion_02_displayed_sextic_identity():
    # twenty deterministic integer points whose coordinates exceed the degree bound
    points = [(k + 7, 2 * k - 5, k * k - 3, -k - 11) for k in range(1, 21)]
    for a in points:
        assert _displayed_eval(0, a) == _bracket_pipeline_eval(0, a)
    # coefficient-by-coefficient: equality on a unisolvent degree-6 lattice
    # pins every coefficient of both degree-6 forms
    for node in monomials(6):
        for i in range(6):
            assert _displayed_eval(i, node) == _bracket_pipeline_eval(i, node)
    report(2, "printed degree-6 invariant images match coefficient-by-coefficient")


def test_criterion_03_igusa_identity():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        cfg = rand_plane_config(rng, 6)
        v = t6(cfg).values
        assert v[5] ** 2 == igusa_F(v[:5])
        checked += 1
    for trial in range(20):
        ts = random.Random(trial).sample(range(-60, 61), 6)
        cfg = Configuration([(1, t, t * t) for t in ts])
        assert t6(cfg).values[5] == 0
    report(3, "t5^2 = F on 100 random 6-tuples; t5 = 0 on 20 conic samples (exact)")


def test_criterion_04_oracle_recovery():
    for seed in range(20):
        rec = generate_reconstruction(5, seed=seed)
        curve = cubic_locus_n5(rec.x, rec.y, rec.a_true)
        assert curve.contains(rec.b_true)
        assert all(curve.contains(p) for p in rec.y)
    for seed in range(20):
        rec = generate_reconstruction(6, seed=seed)
        assert map_a_to_b_n6(rec.x, rec.y, rec.a_true) == rec.b_true
        assert map_b_to_a_n6(rec.x, rec.y, rec.b_true) == rec.a_true
    for seed in range(20):
        rec = generate_reconstruction(7, seed=seed)
        cand = candidates_n7(rec.x, rec.y)
        assert len(cand.a_candidates) == 3 and len(cand.b_candidates) == 3
        pairs = pair_candidates_n7(rec.x, rec.y, cand.a_candidates, cand.b_candidates)
        assert len(pairs) == 3
        at = np.array([float(c) for c in rec.a_true.coords])
        bt = np.array([float(c) for c in rec.b_true.coords])
        hits = [m for m in pairs
                if max(projective_distance(m.a.coords, at),
                       projective_distance(m.b.coords, bt)) < 1e-7]
        assert len(hits) == 1
        assert hits[0].a.exact == rec.a_true  # certified by exact substitution
        assert all(q(rec.a_true.coords) == 0 for q in cand.a_quadrics)
    report(4, "oracle recovery over 20 seeds each for n = 5, 6, 7")


def test_criterion_05_three_points_on_a_plane():
    for seed in range(5):
        rec = generate_reconstruction(7, seed=seed)
        cand = candidates_n7(rec.x, rec.y)
        stack = []
        for p in cand.a_candidates:
            v = np.array(p.coords)
            stack += [v.real, v.imag]
        sv = np.linalg.svd(np.array(stack), compute_uv=False)
        assert sv[3] / sv[0] < 1e-7  # the three candidates share a real plane
        assert sv[2] / sv[0] > 1e-7  # and are honestly three points
    report(5, "three a-candidates lie on one plane (sv ratio < 1e-7, 5 seeds)")


def test_criterion_06_omega_exclusion():
    rec = generate_reconstruction(7, seed=6)
    vertex, residuals = weddle_curve_point(rec.x, seed=0)
    assert max(residuals) < 1e-7
    v = fano15_complex(rec.x, vertex.coords)
    assert projective_distance(v, np.ones(15)) < 1e-7
    cand = candidates_n7(rec.x, rec.y)
    pairs = pair_candidates_n7(rec.x, rec.y,
                               list(cand.a_candidates) + [vertex],
                               list(cand.b_candidates))
    assert len(pairs) == 3
    assert all(projective_distance(m.a.coords, vertex.coords) > 1e-3 for m in pairs)
    report(6, "Weddle-curve center maps to the all-ones direction and is discarded")


def test_criterion_07_fano_morley_identities():
    rng = random.Random(7)
    # vanishing on coincident-pair configurations, for every pair position
    base = [[rng.randint(-9, 9) or 1 for _ in range(3)] for _ in range(7)]
    for i, j in combinations(range(7), 2):
        pts = [list(p) for p in base]
        pts[j] = pts[i]
        values = fano15(Configuration(pts)).values
        assert all(v == 0 for v in values)  # 15 of 15
    # conic configurations: even values equal, odd values are their negatives
    from centersvar.invariants import ODD_FANO_PERMS
    cfg = Configuration([(1, t, t * t) for t in (0, 1, 2, 3, 5, 7, 11)])
    even = fano15(cfg).values
    assert len(set(even)) == 1 and even[0] != 0
    assert all(fano(cfg, perm) == -even[0] for perm in ODD_FANO_PERMS)
    # sum identities on 50 random 7-tuples
    for _ in range(50):
        cfg = rand_plane_config(rng, 7)
        s_even = sum(fano15(cfg).values)
        assert s_even + fano_sum_odd(cfg) == 0
        assert morley(cfg) == 2 * s_even
    # skew symmetry under 10 random transpositions
    for _ in range(10):
        cfg = rand_plane_config(rng, 7)
        i, j = sorted(rng.sample(range(7), 2))
        pts = list(cfg.points)
        pts[i], pts[j] = pts[j], pts[i]
        assert morley(Configuration(pts)) == -morley(cfg)
    report(7, "Fano vanishing, conic sign character, sum and skew identities (exact)")


def _random_generic_pair_n8(seed):
    rng = random.Random(("n8-generic", seed).__repr__())
    while True:
        x = Configuration([[rng.randint(-10, 10) or 3 for _ in range(4)] for _ in range(8)])
        y = Configuration([[rng.randint(-10, 10) or 3 for _ in range(4)] for _ in range(8)])
        try:
            return centers_n_ge8(x, y)
        except DegenerateInput:
            continue


def test_criterion_08_eight_point_emptiness():
    for seed in range(20):
        result = _random_generic_pair_n8(seed)
        assert result.surviving == () and result.span_rank == 10
    for seed in range(5):
        rec = generate_reconstruction(8, seed=seed)
        result = centers_n_ge8(rec.x, rec.y)
        assert result.span_rank == 9
        assert result.surviving == ((rec.a_true, rec.b_true),)
    report(8, "20 generic n=8 pairs empty; 5 oracle pairs are the one exact survivor")


def test_criterion_09_degeneration_classifier():
    expected = {
        "GenericCenter": DegenerationTag.SMOOTH_CUBIC,
        "CoplanarCenter": DegenerationTag.LINE_PLUS_CONIC,
        "BiplanarCenter": DegenerationTag.THREE_LINES,
        "CollinearCenter": DegenerationTag.LINE_PLUS_PLANE,
        "CenterAtWorldPoint": DegenerationTag.ALL_OF_P3,
    }
    for kind, tag in expected.items():
        for seed in (1, 2):
            x, a = generate_degenerate(kind, seed=seed)
            assert classify_degeneration_n5(x, a) == tag
    # line-plus-conic component structure, five exact sample points per component
    x, a = generate_degenerate("CoplanarCenter", seed=2)
    curve = cubic_locus_n5(x, x, a)
    triple = next((i, j, k) for i, j, k in combinations(range(5), 3)
                  if linalg.det([x[i].coords, x[j].coords, x[k].coords, a.coords]) == 0)
    comp = [i for i in range(5) if i not in triple]
    p, q = x[comp[0]], x[comp[1]]
    for s, t in [(1, 1), (1, 2), (2, 1), (3, -1), (-2, 5)]:
        coords = [s * p[i] + t * q[i] for i in range(4)]
        assert all(qf(coords) == 0 for qf in curve.quadrics)
    basis = [list(x[i].fractions()) for i in triple]

    def plane_point(u, v, w):
        return [u * basis[0][i] + v * basis[1][i] + w * basis[2][i] for i in range(4)]

    nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    vals = next(r for r in ([Fraction(qf(plane_point(*n))) for n in nodes]
                            for qf in curve.quadrics) if any(r))
    c3, c4, c5 = vals[3] - vals[0] - vals[1], vals[4] - vals[0] - vals[2], vals[5] - vals[1] - vals[2]
    assert vals[0] == vals[1] == vals[2] == 0  # the conic passes through the triple
    rng = random.Random(5)
    found = 0
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
    report(9, "all five degeneration cases classified; line and conic components verified")


def test_criterion_10_gale_involution():
    rng = random.Random(10)
    checked = 0
    while checked < 20:
        cfg = rand_plane_config(rng, 6)
        v = t6(cfg)
        if v.non_semistable:
            continue
        once = t6(gale_transform(cfg))
        negated = InvariantVector("N6", v.values[:5] + (-v.values[5],))
        assert once.proportional(negated)       # one application flips t5
        twice = t6(gale_transform(gale_transform(cfg)))
        assert twice.proportional(v)            # the association is an involution
        checked += 1
    # six points on a conic are self-associated
    for ts in [(0, 1, 2, 3, 5, 7), (-3, -1, 0, 2, 4, 9), (1, 2, 4, 8, 16, 32)]:
        cfg = Configuration([(1, t, t * t) for t in ts])
        g = gale_transform(cfg)
        assert t6(g).proportional(t6(cfg))
        assert homography_fit(cfg, g) is not None  # projectively equivalent
    report(10, "Gale application negates t5, double application restores; "
               "conic 6-tuples self-associated")
