"""The plain-int kernels against the general routes they replaced.

Each reference below is the earlier route, kept here only: canonical_coords
through Fractions, the weighted quadric product as one generator sum per
coefficient, a quadric's value by Form.integer_value, the generator's
side check by projecting every point and testing collinearity, its bracket
table through the Configuration cofactor cache, its 6-subset relations
through subset configurations, its certificate by projecting every point and
fitting the witness homography, its camera center by linalg.rank and a
Fraction kernel_basis vector, and apply_matrix as one generator sum per row.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar import datagen, linalg
from centersvar.datagen import (_bracket_table, _camera_center, _certified, _side_generic,
                                generate_reconstruction)
from centersvar.errors import DegenerateInput, InvalidInput
from centersvar.forms import Form, monomial_indices
from centersvar.invariants import t6_factors, t6_relation
from centersvar.loci import (_quadric_relations_n6, _quadric_value, _weighted_products,
                             quadric_net, quadric_pair_n6)
from centersvar.projective import (Configuration, ProjectivePoint, _to_fraction, apply_matrix,
                                   bracket, canonical_coords, homography_fit,
                                   no_three_collinear, pp, project)


def reference_canonical_coords(coords):
    """Every coordinate through a Fraction, over the lcm of the denominators."""
    fracs = [c if isinstance(c, (int, Fraction)) else _to_fraction(c) for c in coords]
    if all(f == 0 for f in fracs):
        raise InvalidInput("projective point must have a nonzero coordinate")
    denom_lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def reference_weighted_products(weights, factors):
    """One generator sum per graded lex coefficient of sum_k w_k (u_k . z)(v_k . z)."""
    terms = [([w * c for c in u], v) for w, (u, v) in zip(weights, factors) if w]
    return tuple(sum(wu[i] * v[i] for wu, v in terms) if i == j
                 else sum(wu[i] * v[j] + wu[j] * v[i] for wu, v in terms)
                 for i, j in monomial_indices(2))


def reference_side_generic(x, a):
    """The side check with the images built: a off X, every bracket of four
    points nonzero, then project and test every triple."""
    return (a not in x.points
            and all(bracket([x[i] for i in q]) for q in combinations(range(x.n), 4))
            and no_three_collinear([project(p, a) for p in x]))


def reference_bracket_table(x, a):
    """The bracket table with each cofactor vector read through
    Configuration.cofactors_of, which builds and caches it."""
    pts = [p.coords for p in x.points] + [a.coords]
    return {(i, j, k, l): sum(map(mul, x.cofactors_of(i, j, k), pts[l]))
            for i, j, k in combinations(range(x.n), 3) for l in range(k + 1, x.n + 1)}


def reference_apply_matrix(m, x):
    """The image of x with each row as a generator sum of products."""
    return ProjectivePoint([sum(r * c for r, c in zip(row, x.coords)) for row in m])


def reference_relations_usable(x, y):
    """Every 6-subset's relations decided through two subset configurations
    and _quadric_relations_n6."""
    for c in combinations(range(x.n), 6):
        try:
            _quadric_relations_n6(x.subset(c), y.subset(c))
        except DegenerateInput:
            return False
    return True


def reference_certified(x, y, a, b):
    """The witness homography fit to the projected images, over all n points;
    below four points general position is enough."""
    if x.n < 4:
        return True
    return homography_fit(Configuration([project(pt, a) for pt in x]),
                          Configuration([project(pt, b) for pt in y])) is not None


def reference_accepted(x, y, a, b):
    """The generator's predicates on one draw, by the references above."""
    return (reference_side_generic(x, a) and reference_side_generic(y, b)
            and reference_relations_usable(x, y) and reference_certified(x, y, a, b))


BIG = 10 ** 40
INTS = st.integers(-BIG, BIG)
FRACTIONS = st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10 ** 12)
STRINGS = st.one_of(INTS.map(str),
                    st.tuples(INTS, st.integers(1, 10 ** 9)).map(lambda t: f"{t[0]}/{t[1]}"))


class TestCanonicalCoords:
    @given(st.lists(st.one_of(INTS, st.integers(-3, 3)), min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_ints(self, coords):
        try:
            expected = reference_canonical_coords(coords)
        except InvalidInput:
            with pytest.raises(InvalidInput, match="nonzero coordinate"):
                canonical_coords(coords)
            return
        assert canonical_coords(coords) == canonical_coords(tuple(coords)) == expected
        assert all(type(c) is int for c in canonical_coords(coords))

    @given(st.lists(st.one_of(INTS, FRACTIONS, STRINGS, st.integers(-2, 2)),
                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_fractions_strings_and_mixed(self, coords):
        try:
            expected = reference_canonical_coords(coords)
        except InvalidInput:
            with pytest.raises(InvalidInput, match="nonzero coordinate"):
                canonical_coords(coords)
            return
        assert canonical_coords(coords) == expected

    @pytest.mark.parametrize("coords", [
        (0, 0, 0, 0), [0], (Fraction(0), 0, "0"), ("0/5", Fraction(0, 3)), (0.0, 0)])
    def test_all_zero_is_invalid(self, coords):
        with pytest.raises(InvalidInput, match="nonzero coordinate"):
            reference_canonical_coords(coords)
        with pytest.raises(InvalidInput, match="nonzero coordinate"):
            canonical_coords(coords)

    @pytest.mark.parametrize("coords", [
        (0, -6, 9, 3), (-BIG, 2 * BIG, 0, BIG), (1, 0, 0, 0), (-1,), (0, 0, -7),
        (2 ** 70, -(2 ** 71)), (True, 2), (0.5, -1.25, 3), ("-3/4", 6, "9"),
        iter([4, -8, 12])])
    def test_named_inputs(self, coords):
        coords = list(coords)
        assert canonical_coords(coords) == reference_canonical_coords(coords)

    def test_a_primitive_int_tuple_is_returned_as_it_is(self):
        coords = (3, -5, 7, 11)
        assert canonical_coords(coords) is coords


def six_point_sets(rng, count, bound):
    for _ in range(count):
        yield Configuration([[rng.randint(-bound, bound) or 1 for _ in range(4)] for _ in range(6)])


def degenerate_six_point_sets(rng):
    """Coplanar, collinear, repeated and twisted-cubic points, and the
    points of a generated instance."""
    for _ in range(10):
        p, q, r = ([rng.randint(-5, 5) or 1 for _ in range(4)] for _ in range(3))
        plane = [[a * u + b * v + c * w for u, v, w in zip(p, q, r)]
                 for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, -1, 3), (1, 2, -2))]
        line = [[a * u + b * v for u, v in zip(p, q)] for a, b in ((1, 0), (0, 1), (1, 1))]
        if all(any(v) for v in plane):
            yield Configuration(plane)
        if all(any(v) for v in line):
            yield Configuration(line + plane[2:5])
        yield Configuration([p, p] + [[rng.randint(-5, 5) or 1 for _ in range(4)] for _ in range(4)])
    yield Configuration([(1, t, t * t, t ** 3) for t in (-2, -1, 0, 1, 2, 3)])
    yield generate_reconstruction(6, seed=3).x


class TestWeightedProducts:
    def test_matches_the_generator_sum(self):
        rng = random.Random(7)
        sets = (list(six_point_sets(rng, 60, 3)) + list(six_point_sets(rng, 30, 10 ** 6))
                + list(degenerate_six_point_sets(rng)))
        for x, y in zip(sets, sets[1:] + sets[:1]):
            fx, fy = t6_factors(x), t6_factors(y)
            for w, f in ((t6_relation(y, fy), fx), (t6_relation(x, fx), fy),
                         ((0, 0, 0, 0, 0), fx), ((0, 3, 0, 0, -1), fy)):
                assert _weighted_products(w, f) == reference_weighted_products(w, f)


QUADRICS = st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=10, max_size=10)
POINTS = st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=4, max_size=4).filter(any)


class TestQuadricValue:
    @given(QUADRICS.filter(any), POINTS)
    @settings(max_examples=300, deadline=None)
    def test_matches_integer_value_of_the_primitive_form(self, coeffs, point):
        q = Form(2, tuple(coeffs)).primitive()
        p = ProjectivePoint(point)
        assert _quadric_value(q, p) == q.integer_value(p.coords)

    def test_world_points_of_quadric_pairs(self):
        rng = random.Random(3)
        checked = 0
        for x, y in zip(six_point_sets(rng, 40, 10 ** 3), six_point_sets(rng, 40, 10 ** 3)):
            s_beta, s_alpha = quadric_pair_n6(x, y)
            for q, points in ((s_beta, x.points), (s_alpha, y.points), (s_beta, y.points)):
                for p in points:
                    assert _quadric_value(q, p) == q.integer_value(p.coords)
                    checked += 1
        assert checked == 720

    def test_monomials_are_built_once_per_point(self, monkeypatch):
        # quadric_net reads each of its seven points once, as one row of the
        # products c_i c_j in the graded lex order of a quadric's coefficients
        x = generate_reconstruction(7, seed=0).x
        rows = []
        kernel_basis = linalg.kernel_basis
        monkeypatch.setattr(linalg, "kernel_basis", lambda m: rows.append(m) or kernel_basis(m))
        net = quadric_net(x)
        assert len(rows) == 1
        assert [tuple(r) for r in rows[0]] == [tuple(p[i] * p[j] for i, j in monomial_indices(2))
                                               for p in x.points]
        assert all(q(p.coords) == 0 for q in net for p in x.points)
        p = x[0]
        assert p == ProjectivePoint(p.coords) and hash(p) == hash(ProjectivePoint(p.coords))


def side_cases(rng):
    """(x, a): random points and centers, and a coplanar with three points, a
    on a line through two points, a at a point, and repeated points."""
    for n in (4, 5, 6, 7, 8):
        for _ in range(25):
            x = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(n)]
            x = [v if any(v) else [0, 0, 0, 1] for v in x]
            a = [rng.randint(-2, 2) for _ in range(4)]
            a = a if any(a) else [1, 0, 0, 0]
            yield x, a
            i, j, k = rng.sample(range(n), 3)
            s, t, u = (rng.choice([-2, -1, 1, 2]) for _ in range(3))
            plane = [s * p + t * q + u * r for p, q, r in zip(x[i], x[j], x[k])]
            line = [s * p + t * q for p, q in zip(x[i], x[j])]
            for c in (plane, line, x[i]):
                if any(c):
                    yield x, c
            yield x[:-1] + [x[0]], a
    for seed in range(3):
        rec = generate_reconstruction(7, seed=seed)
        yield [p.coords for p in rec.x], rec.a_true.coords
        yield [p.coords for p in rec.y], rec.b_true.coords


class TestSideGeneric:
    def test_matches_projecting_every_point(self):
        rng = random.Random(19)
        outcomes = set()
        for x, a in side_cases(rng):
            x, a = Configuration(x), ProjectivePoint(a)
            got = _side_generic(_bracket_table(x, a))
            assert got == reference_side_generic(x, a)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_bracket_is_the_image_determinant_up_to_the_chart_square(self):
        # det(images of x_i, x_j, x_l) = +-a_k^2 [x_i x_j x_l a] on project's chart k
        rng = random.Random(23)
        for _ in range(200):
            x = Configuration([[rng.randint(-5, 5) or 1 for _ in range(4)] for _ in range(3)])
            a = [rng.randint(-5, 5) for _ in range(3)] + [rng.choice([0, rng.randint(1, 5)])]
            if not any(a) or ProjectivePoint(a) in x.points:
                continue
            a = ProjectivePoint(a)
            k = 3 if a[3] else next(i for i in range(4) if a[i])
            images = [[a[k] * p[j] - p[k] * a[j] for j in range(4) if j != k] for p in x]
            (r0, r1, r2) = images
            det = (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1]) - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
                   + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))
            lifted = sum(c * v for c, v in zip(x.cofactors_of(0, 1, 2), a.coords))
            assert abs(det) == a[k] ** 2 * abs(lifted)


def bracket_table_cases(rng, bound):
    """(x, a): random sides of n = 3..9 points in the box of the bound, the
    same with a at a point of X, and with four points of X in one plane."""
    def box(count):
        return [[rng.randint(-bound, bound) or 1 for _ in range(4)] for _ in range(count)]

    for n in range(3, 10):
        for _ in range(6):
            x, (a,) = box(n), box(1)
            yield x, a
            yield x, x[rng.randrange(n)]
            if n >= 4:
                i, j, k, l = rng.sample(range(n), 4)
                s, t = rng.randint(-3, 3) or 1, rng.randint(-3, 3)
                plane = [s * p + t * q + r for p, q, r in zip(x[i], x[j], x[k])]
                if any(plane):
                    yield x[:l] + [plane] + x[l + 1:], a


class TestBracketTable:
    @pytest.mark.parametrize("bound", [10, 10 ** 3, 10 ** 6])
    def test_matches_the_cached_cofactor_route(self, bound):
        rng = random.Random(bound + 31)
        zeros = Counter()
        for x, a in bracket_table_cases(rng, bound):
            x, a = Configuration(x), ProjectivePoint(a)
            table = _bracket_table(x, a)
            assert table == reference_bracket_table(x, a)
            zeros[0 in table.values()] += 1
        assert zeros[True] > 60 and zeros[False] > 30

    def test_matches_the_cached_cofactor_route_on_generated_sides(self):
        for n in range(3, 10):
            for seed in range(4):
                rec = generate_reconstruction(n, seed=seed, coord_bound=10 ** (1 + seed % 3))
                for x, a in ((rec.x, rec.a_true), (rec.y, rec.b_true)):
                    assert _bracket_table(x, a) == reference_bracket_table(x, a)

    def test_fills_no_configuration_cache(self):
        rec = generate_reconstruction(7, seed=2)
        x = Configuration(rec.x.points)
        _bracket_table(x, rec.a_true)
        assert x._table[0] == {}


INT_ENTRIES = st.integers(-10 ** 12, 10 ** 12)
MIXED_ENTRIES = st.one_of(INT_ENTRIES, st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                                    max_denominator=10 ** 6))


@st.composite
def matrices_and_points(draw):
    """A rows x cols int matrix, or one of ints and Fractions, and a point of
    P^(cols-1)."""
    rows, cols = draw(st.sampled_from([(3, 4), (4, 4), (4, 5), (3, 3)]))
    entries = draw(st.sampled_from([INT_ENTRIES, MIXED_ENTRIES]))
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    coords = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=cols, max_size=cols)
                  .filter(any))
    return m, ProjectivePoint(coords)


class TestApplyMatrix:
    @given(matrices_and_points())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_generator_sum(self, case):
        m, x = case
        try:
            expected = reference_apply_matrix(m, x)
        except InvalidInput:
            with pytest.raises(InvalidInput):
                apply_matrix(m, x)
            return
        assert apply_matrix(m, x) == expected

    def test_a_kernel_point_is_invalid(self):
        m = [[1, 0, 0, 0], [0, 1, 0, 0], [Fraction(1, 2), 0, 0, 0]]
        with pytest.raises(InvalidInput):
            apply_matrix(m, pp(0, 0, 1, 5))
        assert apply_matrix(m, pp(2, 3, 0, 1)) == pp(2, 3, 1)


def bumped(c, j, k):
    """The configuration with coordinate k of point j raised by one."""
    pts = [list(p.coords) for p in c]
    pts[j][k] += 1
    return Configuration(pts)


def certificate_cases(rng, n, bound):
    """(x, y, a, b): planted pairs, the same with one Y coordinate bumped, and
    random pairs, all in the box of the bound."""
    def box(count):
        return [[rng.randint(-bound, bound) or 1 for _ in range(4)] for _ in range(count)]

    for seed in range(6):
        rec = generate_reconstruction(n, seed=seed, coord_bound=bound)
        yield rec.x, rec.y, rec.a_true, rec.b_true
        y = bumped(rec.y, rng.randrange(n), rng.randrange(4))
        yield rec.x, y, rec.a_true, rec.b_true
        yield (Configuration(box(n)), Configuration(box(n)),
               ProjectivePoint(box(1)[0]), ProjectivePoint(box(1)[0]))


class TestCertificate:
    @pytest.mark.parametrize("bound", [10, 10 ** 3])
    def test_frame_identity_matches_the_witness_homography(self, bound):
        rng = random.Random(bound)
        outcomes = Counter()
        for n in range(4, 10):
            for x, y, a, b in certificate_cases(rng, n, bound):
                tx, ty = _bracket_table(x, a), _bracket_table(y, b)
                if not (_side_generic(tx) and _side_generic(ty)):
                    continue
                got = _certified(tx, ty, n)
                assert got == reference_certified(x, y, a, b)
                outcomes[n, got] += 1
        assert all(outcomes[n, True] >= 6 for n in range(4, 10))
        assert all(outcomes[n, False] >= 6 for n in range(5, 10))
        assert not outcomes[4, False]

    @pytest.mark.parametrize("bound", [10, 10 ** 3])
    def test_generator_returns_the_reference_instance(self, bound, monkeypatch):
        """Every draw of seeds 0-39 (0-9 at n = 9; 0-4 at n = 10 and 12, bound
        10 only) gets the reference verdict, and the instance kept is the one
        the reference keeps."""
        seeds = {n: range(40) for n in range(4, 9)}
        seeds[9] = range(10)
        if bound == 10:
            seeds[10] = seeds[12] = range(5)
        draws = Counter()
        accepted = datagen._accepted

        def checked(x, y, a, b):
            got = reference_accepted(x, y, a, b)
            assert accepted(x, y, a, b) == got
            draws[got] += 1
            return got

        for n, ns in seeds.items():
            for seed in ns:
                rec = generate_reconstruction(n, seed=seed, coord_bound=bound)
                with monkeypatch.context() as m:
                    m.setattr(datagen, "_accepted", checked)
                    assert generate_reconstruction(n, seed=seed, coord_bound=bound) == rec
        assert draws[True] == sum(map(len, seeds.values()))


def reference_camera_center(m):
    """The center by rank, then the first Fraction kernel_basis vector."""
    return ProjectivePoint(linalg.kernel_basis(m)[0]) if linalg.rank(m) == 4 else None


def camera_matrices(rng):
    """Random 4 x 5 integer matrices in small and large boxes, and ones whose
    last row, or last two rows, are combinations of the others."""
    for bound in (1, 3, 10, 10 ** 6):
        for _ in range(60):
            m = [[rng.randint(-bound, bound) for _ in range(5)] for _ in range(4)]
            yield m
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            m = m[:3] + [[s * p + t * q for p, q in zip(m[0], m[1])]]
            yield m
            yield m[:2] + [[s * p for p in m[0]]] + m[3:]
    for seed in range(3):
        rec = generate_reconstruction(7, seed=seed)
        yield [list(row) for row in rec.aprime]
        yield [list(row) for row in rec.bprime]


class TestCameraCenter:
    def test_matches_rank_and_kernel_basis(self):
        rng = random.Random(29)
        ranks = Counter()
        for m in camera_matrices(rng):
            assert _camera_center(m) == reference_camera_center(m)
            ranks[linalg.rank(m)] += 1
        assert ranks[4] > 100 and ranks[3] > 100 and ranks[2] > 50
