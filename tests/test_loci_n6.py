import json
import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar import io as cio, linalg, loci, projective
from centersvar.cli import main
from centersvar.datagen import generate_reconstruction
from centersvar.errors import (DegenerateInput, InadmissibleCenter, Inconsistent,
                               NoRationalImage, ToolkitError)
from centersvar.forms import Form
from centersvar.invariants import lifted_quadrics, t6_lifted
from centersvar.loci import (_resected_center, candidates_n7, centers_n_ge8, centers_variety,
                             cubic_locus_n5, map_a_to_b_n6, map_b_to_a_n6, quadric_pair_n6,
                             sample_surface_point)
from centersvar.projective import (Configuration, ProjectivePoint, apply_matrix, bracket,
                                   canonical_coords, cofactors, cross, decide_equivalence,
                                   homography_fit, outer_sum, pp, project)
from test_centers_property import _check_pair
from test_forms import sym_from_quad
from test_loci_n7 import _unimodular


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


# the walk of loci._directions: the nonzero vectors of {-3..3}^4 by max |d_i|,
# lexicographic within each value (a stable sort of the product order)
REF_WALK = sorted((d for d in product(range(-3, 4), repeat=4) if any(d)),
                  key=lambda d: max(map(abs, d)))


def ref_sample_surface_point(s, through):
    """sample_surface_point with the line p + t d met in Fractions through the
    symmetric matrix S: t = -2 p^T S d / q(d), for each d of the walk with
    q(d) != 0."""
    sym = sym_from_quad(s)
    for d in REF_WALK:
        qd = s(d)
        if qd == 0:
            continue
        cross = sum((Fraction(through[i]) * sym[i][j] * d[j]
                     for i in range(4) for j in range(4)), Fraction(0))
        t = -2 * cross / qd
        pt = ProjectivePoint([Fraction(through[i]) + t * d[i] for i in range(4)])
        assert s(pt.coords) == 0
        yield pt


def test_the_walk_is_the_fixed_list_of_small_directions():
    walk = list(loci._directions())
    assert len(walk) == len(set(walk)) == 2400 and walk == REF_WALK
    assert walk[:3] == [(-1, -1, -1, -1), (-1, -1, -1, 0), (-1, -1, -1, 1)]


@pytest.mark.parametrize("bound", [10, 1000])
def test_integer_sampler_matches_the_fraction_line_intersection(bound):
    for seed in range(5):
        rec = generate_reconstruction(6, seed=seed, coord_bound=bound)
        for s, w in zip(quadric_pair_n6(rec.x, rec.y), (rec.x, rec.y)):
            expected = list(islice(ref_sample_surface_point(s, w[0]), 60))
            assert len(expected) == 60
            assert list(islice(sample_surface_point(s, w[0]), 60)) == expected


@pytest.mark.parametrize("bound", [10, 1000])
def test_sampled_pairs_are_the_first_three_mapped_points_of_the_walk(bound):
    # centers takes the walk's points on S_beta in one pass, skipping world
    # points and repeats, and keeps the first three that map, within 40 tries;
    # here the points are met in Fractions and b is resected from Fraction rrefs
    for seed in range(5):
        rec = generate_reconstruction(6, seed=seed, coord_bound=bound)
        s_beta, _ = quadric_pair_n6(rec.x, rec.y)
        expected, tried = [], []
        for a in ref_sample_surface_point(s_beta, rec.x[0]):
            if a in rec.x.points or a in tried:
                continue
            tried.append(a)
            try:
                expected.append((a, ref_resected_center(rec.x, rec.y, a)))
            except NoRationalImage:
                pass
            if len(expected) == 3 or len(tried) == 40:
                break
        assert len(expected) == 3
        assert centers_variety(rec.x, rec.y).sampled_pairs == tuple(expected)


def test_samples_that_never_map_are_tried_once_each(monkeypatch):
    # a random [-3, 3] pair whose resected cameras all have rank below 3; the
    # walk meets the same points again and again there, and each of the 40
    # tries is a new point off X
    x = Configuration([(1, 3, 3, 2), (1, 3, 1, -1), (1, -1, -1, -1), (0, 1, 0, 3), (3, 1, 1, 0),
                       (2, 2, 2, 3)])
    y = Configuration([(2, 0, -1, -1), (2, 1, -2, -1), (1, 0, -3, 2), (3, 1, 0, 3), (2, 1, -2, 2),
                       (1, 0, -2, 1)])
    tried = []
    map_a_to_b = loci.map_a_to_b_n6
    monkeypatch.setattr(loci, "map_a_to_b_n6",
                        lambda x, y, a, pair: tried.append(a) or map_a_to_b(x, y, a, pair))
    assert centers_variety(x, y).sampled_pairs == ()
    assert len(tried) == len(set(tried)) == 40
    assert not set(tried) & set(x.points)


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
            probes += _sampled(s_beta, rec.x, 6)
        for a in probes:
            yield rec.x, rec.y, a


# y_0..y_3 lie in the plane z_3 = 0; X = T Y, so every a off X is matched
# by b = T^-1 a, and no four-point frame starts at y_0, y_1, y_2, y_3.
T = [[2, 1, 0, 1], [0, 1, 3, 0], [1, 0, 1, 1], [0, 2, 0, 1]]
Y_FIRST_FOUR_COPLANAR = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
                                       (1, 1, 1, 1), (2, -1, 3, 5), (4, 1, -2, 3), (1, -3, 2, 2)])


def certified_n7_probes():
    """(x, y, a) for the certified a-candidates of generated n = 7 instances."""
    for seed in range(3):
        rec = generate_reconstruction(7, seed=seed)
        for p in candidates_n7(rec.x, rec.y).a_candidates:
            if p.exact is not None:
                yield rec.x, rec.y, p.exact


def n9_survivor_probe():
    """(x, y, a) for the one surviving pair of a generated n = 9 instance."""
    rec = generate_reconstruction(9, seed=0)
    ((a, _),) = centers_n_ge8(rec.x, rec.y).surviving
    return rec.x, rec.y, a


def test_resected_center_matches_the_fraction_reference():
    cases = [*generated_probes(6, 10), *generated_probes(6, 1000), *generated_probes(6, 10 ** 6),
             *generated_probes(8, 10), *certified_n7_probes(), n9_survivor_probe()]
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
    assert centers >= 90


def test_resection_refuses_coplanar_world_points():
    # every camera plus any v h^T (h the plane) fits: no frame, no unique resection
    y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
                       (2, -1, 3, 0), (4, 1, -2, 0)])
    x = y.transformed(T)
    a = apply_matrix(T, pp(3, 1, 4, 1))
    for resect in (_resected_center, ref_resected_center):
        with pytest.raises(NoRationalImage):
            resect(x, y, a)


def kernel_resected_center(x, y, a):
    """_resected_center with the frame searched and lambda taken as the
    Bareiss integer kernel of the 3(n - 4) x 4 system on every call."""
    if a in x.points:
        raise InadmissibleCenter("the center map is undefined at a world point")
    ac = a.coords
    k = 3 if ac[3] else next(i for i in range(4) if ac[i])
    q = [[ac[k] * xi[j] - xi[k] * ac[j] for j in range(4) if j != k]
         for xi in (p.coords for p in x.points)]
    ys = [yi.coords for yi in y.points]
    frame = next((f for f in combinations(range(len(ys)), 4)
                  if bracket([y[i] for i in f]) != 0), None)
    if frame is None:
        raise NoRationalImage("the world points lie in a plane, so the resection is not unique")
    w = [cofactors(*(ys[g] for g in frame if g != f)) for f in frame]
    rows = []
    for j, yj in enumerate(ys):
        if j in frame:
            continue
        weights = [sum(map(mul, wk, yj)) for wk in w]
        crosses = [cross(q[f], q[j]) for f in frame]
        rows.extend([c * v[r] for c, v in zip(weights, crosses)] for r in range(3))
    kernel = linalg.integer_kernel(rows)
    if len(kernel) != 1:
        raise NoRationalImage(f"the resection has a {len(kernel)}-dimensional solution space")
    camera = outer_sum(kernel[0], [q[f] for f in frame], w)
    center = cofactors(*camera)
    if not any(center):
        raise NoRationalImage("the resected camera has rank below 3")
    b = ProjectivePoint(center)
    if b in y.points:
        raise NoRationalImage("the matched center is a world point")
    if any(any(cross([sum(map(mul, row, yi)) for row in camera], qi)) for yi, qi in zip(ys, q)):
        raise Inconsistent("the resected camera misses a correspondence")
    return b


def random_point(rng, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(4)]
        if any(v):
            return v


def chart(a):
    """The coordinate project drops at the center a."""
    return 3 if a[3] else next(k for k in range(4) if a[k])


def sending_to_axis(p, k):
    """An integer matrix of rank 4 that sends p to a multiple of e_k: up to
    row signs, the adjugate of the matrix whose column k is p and whose other
    columns are unit vectors that complete it to a basis."""
    r = next(i for i in range(4) if p[i])
    units = [tuple(int(i == j) for i in range(4)) for j in range(4) if j != r]
    cols = units[:k] + [p.coords] + units[k:]
    return [cofactors(*(cols[:i] + cols[i + 1:])) for i in range(4)]


# sends e_1 to (0 : 2 : -3 : 0), a chart-1 point off the axis
CHART1_SPREAD = [[1, 0, 0, 0], [0, 2, 0, 0], [0, -3, 1, 0], [0, 0, 0, 1]]


def off_chart_cases(rng):
    """(x, y, a) with a off chart 3 of project: random sets at (0 : 0 : 1 : 0),
    (0 : 1 : 0 : 0) and (0 : 3 : -2 : 0), and the true centers of generated
    n = 6 and 8 instances, moved with their side by an integer map of P^3 to
    (0 : 0 : 1 : 0), (0 : 1 : 0 : 0), (0 : 2 : -3 : 0) and (1 : 0 : 0 : 0);
    the other center is unchanged."""
    for n in (6, 8):
        for center in (pp(0, 0, 1, 0), pp(0, 1, 0, 0), pp(0, 3, -2, 0)):
            for _ in range(3):
                yield (Configuration([random_point(rng, 10) for _ in range(n)]),
                       Configuration([random_point(rng, 10) for _ in range(n)]), center)
        for seed in range(3):
            rec = generate_reconstruction(n, seed=seed)
            for x, y, a in ((rec.x, rec.y, rec.a_true), (rec.y, rec.x, rec.b_true)):
                for k in (2, 1, 0):
                    t = sending_to_axis(a, k)
                    yield x.transformed(t), y, apply_matrix(t, a)
                    if k == 1:
                        yield (x.transformed(t).transformed(CHART1_SPREAD), y,
                               apply_matrix(CHART1_SPREAD, apply_matrix(t, a)))


def kernel_parity_cases():
    """(x, y, a): random sets with random centers, generated instances with
    their true centers (through subsets too), centers on every chart of
    project, and degenerate inputs."""
    rng = random.Random(20261019)
    for n in (6, 7, 8):
        for bound in (3, 10 ** 6):
            for _ in range(15):
                x = Configuration([random_point(rng, bound) for _ in range(n)])
                y = Configuration([random_point(rng, bound) for _ in range(n)])
                yield x, y, ProjectivePoint(random_point(rng, bound))
                yield x, y, x[rng.randrange(n)]
        for bound in (10, 1000):
            rec = generate_reconstruction(n, seed=n, coord_bound=bound)
            yield rec.x, rec.y, rec.a_true
            yield rec.y, rec.x, rec.b_true
            yield rec.x.drop(0), rec.y.drop(0), rec.a_true
    y = Configuration(Y_FIRST_FOUR_COPLANAR.points[:6])
    x = y.transformed(T)
    yield x, y, apply_matrix(T, pp(3, 1, 4, 1))
    # coplanar y
    yield x, Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
                            (2, -1, 3, 0), (4, 1, -2, 0)]), pp(1, 1, 1, 1)
    # rank-deficient systems: every x_i on one line through a (all images
    # equal, rank 0), and every x_i on one plane through a (images collinear)
    a = pp(1, 2, -1, 3)
    for n in (6, 7):
        y = Configuration([random_point(rng, 5) for _ in range(n)])
        line = Configuration([[s + t * c for s, c in zip((1, 0, 2, -1), a.coords)]
                              for t in range(1, n + 1)])
        plane = Configuration([[s * u + t * v + c for u, v, c in zip((1, 0, 2, -1), (0, 3, 1, 1),
                                                                     a.coords)]
                               for s, t in zip(range(1, n + 1), (2, -1, 5, 3, -4, 7, 1))])
        yield line, y, a
        yield plane, y, a
    # the camera P with center y_0 fits every correspondence, x_0 is free as
    # P y_0 = 0, and the fitted lambda has lambda_0 = 0: the center is y_0
    y = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
                       (2, -1, 3, 5)])
    camera = [[0, 1, 2, 3], [0, -1, 0, 4], [0, 2, 5, -1]]
    a = pp(1, 2, 3, 1)
    images = [[sum(map(mul, row, yi.coords)) for row in camera] + [0] for yi in y.points]
    x = Configuration([(3, -1, 2, 7)] + [[v + (i + 1) * c for v, c in zip(images[i], a.coords)]
                                         for i in range(1, 6)])
    yield x, y, a
    yield from off_chart_cases(random.Random(20261020))


def test_resected_center_matches_the_integer_kernel_reference():
    messages = set()
    centers = [0] * 4
    for x, y, a in kernel_parity_cases():
        got = outcome(_resected_center, x, y, a)
        assert got == outcome(kernel_resected_center, x, y, a)
        if isinstance(got, ProjectivePoint):
            centers[chart(a)] += 1
        else:
            messages.add(got)
    assert min(centers) >= 12
    for k in (0, 2, 4):
        assert (NoRationalImage, f"the resection has a {k}-dimensional solution space") in messages
    assert (InadmissibleCenter, "the center map is undefined at a world point") in messages
    assert (NoRationalImage,
            "the world points lie in a plane, so the resection is not unique") in messages
    assert (NoRationalImage, "the resected camera has rank below 3") in messages
    assert (NoRationalImage, "the matched center is a world point") in messages


def test_frame_maps_are_built_from_primitive_weights(monkeypatch):
    # every outer_sum call of homography_fit gets weights with gcd 1, here
    # also on the projected images of each generated pair
    weights = []

    def recorded(w, columns, rows):
        weights.append(tuple(w))
        return outer_sum(w, columns, rows)

    monkeypatch.setattr(projective, "outer_sum", recorded)
    for n in (6, 7):
        for seed in range(3):
            rec = generate_reconstruction(n, seed=seed)
            centers_variety(rec.x, rec.y, a=rec.a_true if n == 6 else None)
            assert homography_fit(
                Configuration([project(p, rec.a_true) for p in rec.x]),
                Configuration([project(p, rec.b_true) for p in rec.y])) is not None
    rng = random.Random(28)
    for _ in range(20):
        p, q = (Configuration([[rng.randint(-9, 9) or 1 for _ in range(3)] for _ in range(5)])
                for _ in range(2))
        decide_equivalence(p, p.transformed([[rng.randint(-3, 3) for _ in range(3)]
                                             for _ in range(3)]))
        decide_equivalence(p, q)
    assert len(weights) >= 40
    assert all(gcd(*w) == 1 for w in weights)


def test_a_failed_check_on_a_sampled_point_ends_the_run(monkeypatch, tmp_path, capsys):
    # S_beta reads 1 too many at every point the sampler finds, so the
    # sampler's own check fails; its base point, its line probes (lists) and
    # the given center read true
    rec = generate_reconstruction(6, seed=1)
    known = (rec.x[0].coords, rec.a_true.coords)

    class Faulty(Form):
        def integer_value(self, ints):
            return super().integer_value(ints) + (type(ints) is tuple and ints not in known)

    quadric_pair = loci.quadric_pair_n6

    def faulty_pair(x, y):
        s_beta, s_alpha = quadric_pair(x, y)
        return Faulty(s_beta.degree, s_beta.coeffs), s_alpha

    monkeypatch.setattr(loci, "quadric_pair_n6", faulty_pair)
    with pytest.raises(Inconsistent, match="the sampled point is not on the quadric"):
        centers_variety(rec.x, rec.y, a=rec.a_true)
    paths = [str(tmp_path / name) for name in ("x.json", "y.json")]
    for path, cfg in zip(paths, (rec.x, rec.y)):
        cio.atomic_write_json(path, cio.configuration_to_json(cfg))
    center = ",".join(map(str, rec.a_true.coords))
    assert main(["centers", "-i", paths[0], "-j", paths[1], "--center", center]) == 4
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "Inconsistent", "message": "the sampled point is not on the quadric"}


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
        for a in _sampled(s_beta, rec.x, 20):
            try:
                b = map_a_to_b_n6(rec.x, rec.y, a, pair=(s_beta, s_alpha))
            except NoRationalImage:
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
        for b in _sampled(s_alpha, rec.y, 30):
            if b == rec.b_true:
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
            for a in _sampled(pair[0], rec.x, 20):
                try:
                    b = map_a_to_b_n6(rec.x, rec.y, a, pair=pair)
                except NoRationalImage:
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


def _sampled(s, w, count):
    """The first count distinct points sampled on the quadric s through w's
    first point, off w's points."""
    seen = {p.coords for p in w.points}
    points = []
    for pt in sample_surface_point(s, w[0]):
        if pt.coords not in seen:
            seen.add(pt.coords)
            points.append(pt)
            if len(points) == count:
                break
    return points


def _mapped_pairs(rec, pair, count):
    """Every (a, b) the two maps return from the true centers, from points
    sampled on S_beta (mapped to b) and from points sampled on S_alpha
    (mapped back to a); a refused center gives no pair."""
    x, y = rec.x, rec.y
    pairs = []
    for a in [rec.a_true, *_sampled(pair[0], x, count)]:
        try:
            pairs.append((a, map_a_to_b_n6(x, y, a, pair=pair)))
        except NoRationalImage:
            pass
    for b in [rec.b_true, *_sampled(pair[1], y, count)]:
        try:
            pairs.append((map_b_to_a_n6(x, y, b), b))
        except NoRationalImage:
            pass
    return pairs


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 10 ** 6), bound=st.sampled_from([10, 1000]))
def test_every_mapped_pair_passes_the_checks_its_resection_proves(seed, bound):
    # the map checks only a on S_beta; b on S_alpha, the weighted
    # proportionality of the lifted invariants and the projection oracle
    # over all six points follow from the resection
    rec = generate_reconstruction(6, seed=seed, coord_bound=bound)
    s_beta, s_alpha = pair = quadric_pair_n6(rec.x, rec.y)
    pairs = _mapped_pairs(rec, pair, 3)
    assert (rec.a_true, rec.b_true) in pairs and len(pairs) >= 4
    for a, b in pairs:
        assert s_beta(a) == 0 and s_alpha(b) == 0
        assert t6_lifted(rec.x, a).proportional(t6_lifted(rec.y, b))
        _check_pair(rec.x, rec.y, a, b)


def _map_outcome(x, y, a):
    try:
        return map_a_to_b_n6(x, y, a)
    except ToolkitError as exc:
        return exc.code, str(exc)


def _relabelled(x, y, rng):
    perm = rng.sample(range(6), 6)
    return (Configuration([x[i] for i in perm]), Configuration([y[i] for i in perm]),
            lambda pair: pair, lambda a, b: (a, b))


def _moved_x(x, y, rng):
    h = _unimodular(rng)
    return (x.transformed(h), y, lambda pair: (pair[0].compose_linear(h).primitive(), pair[1]),
            lambda a, b: (apply_matrix(h, a), b))


def _moved_y(x, y, rng):
    h = _unimodular(rng)
    return (x, y.transformed(h), lambda pair: (pair[0], pair[1].compose_linear(h).primitive()),
            lambda a, b: (a, apply_matrix(h, b) if isinstance(b, ProjectivePoint) else b))


def _swapped(x, y, rng):
    return (y, x, lambda pair: pair[::-1],
            lambda a, b: (b, a) if isinstance(b, ProjectivePoint) else None)


@pytest.mark.parametrize("transform", [_relabelled, _moved_x, _moved_y, _swapped],
                         ids=["relabel", "homography-x", "homography-y", "swap"])
def test_six_point_pairs_follow_the_symmetries_of_the_problem(transform):
    # relabelling both sides alike keeps the quadric pair and the map; a
    # det +-1 homography H on X pulls S_beta back to S_beta o H and sends a
    # to H a, and on Y the same for S_alpha and b; swapping X and Y swaps
    # the pair and maps b to a.
    # A refused center (a world point, a point off S_beta) is refused alike.
    rng = random.Random(31)
    matched = refused = 0
    for seed in range(10):
        rec = generate_reconstruction(6, seed=seed)
        x, y = rec.x, rec.y
        pair = quadric_pair_n6(x, y)
        tx, ty, pull_back, move = transform(x, y, rng)
        assert pull_back(quadric_pair_n6(tx, ty)) == pair
        for a in [rec.a_true, x[2], pp(3, 1, 4, 1), *_sampled(pair[0], x, 4)]:
            b = _map_outcome(x, y, a)
            moved = move(a, b)
            if moved is not None:
                assert _map_outcome(tx, ty, moved[0]) == moved[1]
            matched += isinstance(b, ProjectivePoint)
            refused += not isinstance(b, ProjectivePoint)
    assert matched >= 40 and refused == 20
