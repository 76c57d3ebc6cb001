import random
from fractions import Fraction
from math import gcd

import pytest

from centersvar import linalg
from centersvar.datagen import generate_reconstruction
from centersvar.errors import (DegenerateInput, InadmissibleCenter,
                               NoRationalImage, ToolkitError)
from centersvar.forms import Form, sym_from_quad
from centersvar.invariants import lifted_quadrics, t6_lifted
from centersvar.loci import (_resected_center, cubic_locus_n5, map_a_to_b_n6,
                             map_b_to_a_n6, quadric_pair_n6, sample_surface_point)
from centersvar.projective import (Configuration, ProjectivePoint, apply_matrix,
                                   canonical_coords, homography_fit, pp, project)


def rand_config(rng, n):
    return Configuration([[rng.randint(-9, 9) or 1 for _ in range(4)] for _ in range(n)])


class TestQuadricPair:
    def test_surfaces_contain_their_points(self):
        rng = random.Random(1)
        x, y = rand_config(rng, 6), rand_config(rng, 6)
        s_beta, s_alpha = quadric_pair_n6(x, y)
        assert all(s_beta(p) == 0 for p in x)
        assert all(s_alpha(p) == 0 for p in y)

    def test_equal_configurations_degenerate(self):
        # for X = Y the two relations coincide and the weighted combination
        # vanishes identically: the diagonal (a, a) is unconstrained
        rng = random.Random(2)
        x = rand_config(rng, 6)
        with pytest.raises(DegenerateInput):
            quadric_pair_n6(x, x)

    def test_oracle_centers_on_surfaces(self):
        for seed in range(3):
            rec = generate_reconstruction(6, seed=seed)
            s_beta, s_alpha = quadric_pair_n6(rec.x, rec.y)
            assert s_beta(rec.a_true) == 0
            assert s_alpha(rec.b_true) == 0


def ref_quadric_pair(x, y):
    """quadric_pair_n6 in Fractions: the lifted quadrics, the kernel_basis
    relation of each side, and the weighted sum over the rationals."""
    def relation(quads):
        (weights,) = linalg.kernel_basis([[Fraction(q.coeffs[r]) for q in quads]
                                          for r in range(10)])
        return weights

    def weighted_sum(weights, quads):
        w = canonical_coords(weights)
        total = [sum((wi * Fraction(q.coeffs[r]) for wi, q in zip(w, quads)), Fraction(0))
                 for r in range(10)]
        return Form(2, tuple(Fraction(c) for c in canonical_coords(total)))

    qx, qy = lifted_quadrics(x), lifted_quadrics(y)
    return weighted_sum(relation(qy), qx), weighted_sum(relation(qx), qy)


def generated_six_subsets(bound):
    """Generated n = 6 instances and every leave-one-out subset of generated n = 7."""
    for seed in range(3):
        rec = generate_reconstruction(6, seed=seed, coord_bound=bound)
        yield rec.x, rec.y
        rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
        for k in range(7):
            yield rec.x.drop(k), rec.y.drop(k)


@pytest.mark.parametrize("bound", [10, 1000])
def test_integer_quadric_pair_matches_the_fraction_reference(bound):
    for x, y in generated_six_subsets(bound):
        for surface, ref in zip(quadric_pair_n6(x, y), ref_quadric_pair(x, y)):
            coeffs = surface.coeffs
            assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
            assert surface == ref


def ref_sample_surface_point(s, through, seed, avoid):
    """sample_surface_point with the line p + t d met in Fractions through the
    symmetric matrix S: t = -2 p^T S d / q(d); None where it finds no point."""
    rng = random.Random(seed)
    sym = sym_from_quad(s)
    for _ in range(200):
        d = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        if all(v == 0 for v in d):
            continue
        qd = s(d)
        if qd == 0:
            continue
        cross = sum((Fraction(through[i]) * sym[i][j] * d[j]
                     for i in range(4) for j in range(4)), Fraction(0))
        t = -2 * cross / qd
        coords = [Fraction(through[i]) + t * d[i] for i in range(4)]
        if all(c == 0 for c in coords):
            continue
        pt = ProjectivePoint(coords)
        if pt == through or pt in avoid:
            continue
        assert s(pt.coords) == 0
        return pt
    return None


@pytest.mark.parametrize("bound", [10, 1000])
def test_integer_sampler_matches_the_fraction_line_intersection(bound):
    for seed in range(5):
        rec = generate_reconstruction(6, seed=seed, coord_bound=bound)
        for s, w in zip(quadric_pair_n6(rec.x, rec.y), (rec.x, rec.y)):
            for attempt in range(5):
                avoid = list(w.points)
                expected = ref_sample_surface_point(s, w[0], attempt, avoid)
                assert expected is not None
                assert sample_surface_point(s, w[0], seed=attempt, avoid=avoid) == expected


def ref_resected_center(x, y, a):
    """_resected_center with the camera and its center read from Fraction rrefs."""
    def kernel(rows):
        m, pivots = linalg.rref(rows)
        basis = []
        for f in (c for c in range(len(rows[0])) if c not in pivots):
            v = [Fraction(int(c == f)) for c in range(len(rows[0]))]
            for r, p in enumerate(pivots):
                v[p] = -m[r][f]
            basis.append(v)
        return basis

    if a in x.points:
        raise InadmissibleCenter("the center map is undefined at a world point")
    q = [project(xi, a) for xi in x]
    rows = []
    for yi, qi in zip(y.points, q):
        for r, s in ((1, 2), (2, 0), (0, 1)):
            row = [0] * 12
            for c in range(4):
                row[4 * r + c] = qi[s] * yi[c]
                row[4 * s + c] = -qi[r] * yi[c]
            rows.append(row)
    solutions = kernel(rows)
    if len(solutions) != 1:
        raise NoRationalImage(f"the resection has a {len(solutions)}-dimensional solution space")
    camera = [solutions[0][4 * r: 4 * r + 4] for r in range(3)]
    if linalg.rank(camera) != 3:
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(kernel(camera)[0])
    if b in y.points:
        raise NoRationalImage("the matched center is a world point")
    assert all(apply_matrix(camera, yi) == qi for yi, qi in zip(y.points, q))
    return b


def outcome(fn, *args):
    try:
        return fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


def generated_probes(n, bound):
    """(x, y, a) for generated instances: the true center, a world point, an
    off-surface point and, for n = 6, sampled points of the a-quadric."""
    for seed in range(4):
        rec = generate_reconstruction(n, seed=seed, coord_bound=bound)
        probes = [rec.a_true, rec.x[1], pp(3, 1, 4, 1)]
        if n == 6:
            s_beta, _ = quadric_pair_n6(rec.x, rec.y)
            for attempt in range(6):
                try:
                    probes.append(sample_surface_point(s_beta, rec.x[0], seed=attempt,
                                                       avoid=list(rec.x.points)))
                except DegenerateInput:
                    pass
        for a in probes:
            yield rec.x, rec.y, a


# y_0..y_3 lie in the plane z_3 = 0; X = T Y, so every a off X is matched
# by b = T^-1 a, and no four-point frame starts at y_0, y_1, y_2, y_3.
T = [[2, 1, 0, 1], [0, 1, 3, 0], [1, 0, 1, 1], [0, 2, 0, 1]]
Y_FIRST_FOUR_COPLANAR = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
                                       (1, 1, 1, 1), (2, -1, 3, 5), (4, 1, -2, 3), (1, -3, 2, 2)])


def test_resected_center_matches_the_fraction_reference():
    cases = [*generated_probes(6, 10), *generated_probes(6, 1000), *generated_probes(8, 10)]
    for n in (6, 8):
        y = Configuration(Y_FIRST_FOUR_COPLANAR.points[:n])
        x = y.transformed(T)
        for b in (pp(3, 1, 4, 1), pp(1, 5, -2, 7)):
            cases.append((x, y, apply_matrix(T, b)))
            assert _resected_center(x, y, apply_matrix(T, b)) == b
    centers = 0
    for x, y, a in cases:
        got = outcome(_resected_center, x, y, a)
        assert got == outcome(ref_resected_center, x, y, a)
        centers += isinstance(got, ProjectivePoint)
    assert centers >= 60


def test_resection_refuses_coplanar_world_points():
    # every camera plus any v h^T (h the plane) fits: no frame, no unique resection
    y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
                       (2, -1, 3, 0), (4, 1, -2, 0)])
    x = y.transformed(T)
    a = apply_matrix(T, pp(3, 1, 4, 1))
    for resect in (_resected_center, ref_resected_center):
        with pytest.raises(NoRationalImage):
            resect(x, y, a)


class TestCenterMap:
    def test_oracle_round_trip(self):
        rec = generate_reconstruction(6, seed=4)
        b = map_a_to_b_n6(rec.x, rec.y, rec.a_true)
        assert b == rec.b_true
        assert map_b_to_a_n6(rec.x, rec.y, rec.b_true) == rec.a_true

    def test_full_weighted_proportionality(self):
        rec = generate_reconstruction(6, seed=5)
        b = map_a_to_b_n6(rec.x, rec.y, rec.a_true)
        va = t6_lifted(rec.x, rec.a_true)
        vb = t6_lifted(rec.y, b)
        assert va.proportional(vb)
        # the weight-2 entry cross-check, spelled out
        i = next(k for k in range(5) if va.values[k] != 0)
        assert va.values[5] * vb.values[i] ** 2 == vb.values[5] * va.values[i] ** 2

    def test_center_at_world_point_refused(self):
        rec = generate_reconstruction(6, seed=6)
        with pytest.raises(InadmissibleCenter):
            map_a_to_b_n6(rec.x, rec.y, rec.x[2])

    def test_center_off_surface_rejected(self):
        rec = generate_reconstruction(6, seed=7)
        s_beta, _ = quadric_pair_n6(rec.x, rec.y)
        off = pp(3, 1, 4, 1)
        if s_beta(off) == 0:  # vanishingly unlikely; adjust the probe
            off = pp(3, 1, 4, 2)
        with pytest.raises(NoRationalImage):
            map_a_to_b_n6(rec.x, rec.y, off)

    def test_sampled_surface_points_map_consistently(self):
        rec = generate_reconstruction(6, seed=8)
        s_beta, s_alpha = quadric_pair_n6(rec.x, rec.y)
        done = 0
        for attempt in range(20):
            try:
                a = sample_surface_point(s_beta, rec.x[0], seed=attempt,
                                         avoid=list(rec.x.points))
                b = map_a_to_b_n6(rec.x, rec.y, a, pair=(s_beta, s_alpha))
            except (NoRationalImage, InadmissibleCenter):
                continue
            assert s_alpha(b) == 0
            assert t6_lifted(rec.x, a).proportional(t6_lifted(rec.y, b))
            done += 1
            if done == 3:
                break
        assert done == 3

    def test_other_surface_points_do_not_match(self):
        # uniqueness: no point of S_alpha other than the matched one satisfies
        # the weighted proportionality with (X, a)
        rec = generate_reconstruction(6, seed=10)
        s_beta, s_alpha = quadric_pair_n6(rec.x, rec.y)
        va = t6_lifted(rec.x, rec.a_true)
        checked = 0
        for attempt in range(30):
            try:
                b = sample_surface_point(s_alpha, rec.y[0], seed=100 + attempt,
                                         avoid=list(rec.y.points) + [rec.b_true])
            except Exception:
                continue
            vb = t6_lifted(rec.y, b)
            assert vb.non_semistable or not va.proportional(vb)
            checked += 1
            if checked == 10:
                break
        assert checked == 10

    def test_matched_center_lies_on_all_six_cubics(self):
        # reference: the matched b is on every leave-one-out cubic, the
        # images of all six points are equivalent, and the map inverts
        for seed in range(6):
            rec = generate_reconstruction(6, seed=seed)
            pair = quadric_pair_n6(rec.x, rec.y)
            done = 0
            for attempt in range(20):
                try:
                    a = sample_surface_point(pair[0], rec.x[0], seed=attempt,
                                             avoid=list(rec.x.points))
                    b = map_a_to_b_n6(rec.x, rec.y, a, pair=pair)
                except (NoRationalImage, InadmissibleCenter):
                    continue
                for k in range(6):
                    assert cubic_locus_n5(rec.x.drop(k), rec.y.drop(k), a).contains(b)
                assert homography_fit(Configuration([project(p, a) for p in rec.x]),
                                      Configuration([project(p, b) for p in rec.y])) is not None
                assert map_b_to_a_n6(rec.x, rec.y, b) == a
                done += 1
                if done == 3:
                    break
            assert done == 3
