import collections
import itertools
import json
import random
import warnings

import numpy as np
import pytest

from centersvar import io as cio
from centersvar import linalg, loci, numeric
from centersvar.cli import main
from centersvar.datagen import generate_reconstruction
from centersvar.errors import (DegenerateInput, Inconclusive, Inconsistent,
                              NoRationalImage, ToolkitError)
from centersvar.forms import Form, mono_eval, monomials
from centersvar.invariants import EVEN_FANO_PERMS, FANO_LINES, fano15_lifted, weddle_quartic
from centersvar.loci import (_span_common_zero, candidates_n7, centers_n_ge8,
                             centers_variety, fano15_complex, pair_candidates_n7,
                             quadric_net, weddle_curve_point)
from centersvar.numeric import NumericPoint, projective_distance
from centersvar.projective import Configuration, apply_matrix, pp
from test_forms import sym_from_quad


def rand_config(rng, n):
    return Configuration([[rng.randint(-10, 10) or 3 for _ in range(4)] for _ in range(n)])


def floats(point):
    return np.array([float(c) for c in point.coords])


@pytest.mark.parametrize("bound", [10 ** 3, 10 ** 4])
@pytest.mark.parametrize("seed", range(4))
def test_certifies_true_centers_at_large_coordinates(seed, bound):
    # the true centers have 48-68-bit coordinates here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
        cand = candidates_n7(rec.x, rec.y)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rec.a_true in [p.exact for p in cand.a_candidates]
    assert rec.b_true in [p.exact for p in cand.b_candidates]


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="D1: the polished error and the denominator ladder miss "
                          "30-39-digit centers (ROADMAP item 2)")
@pytest.mark.parametrize(("bound", "seed"),
                         [(10 ** 6, 6), (10 ** 6, 8)] + [(10 ** 8, s) for s in range(4)])
def test_certifies_the_planted_center_at_huge_coordinates(bound, seed):
    rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
    assert rec.a_true in [m.a.exact for m in centers_variety(rec.x, rec.y).pairs]


IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]


def _rescaled_pair(seed, side, m):
    """Generated seed `seed` with diag(m, 1, 1, 1) applied to X or to Y, and
    the planted pair moved with it."""
    rec = generate_reconstruction(7, seed=seed)
    d = [[m, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    hx, hy = (d, IDENTITY) if side == "X" else (IDENTITY, d)
    return (rec.x.transformed(hx), rec.y.transformed(hy),
            (apply_matrix(hx, rec.a_true), apply_matrix(hy, rec.b_true)))


@pytest.mark.parametrize("side", ["X", "Y"])
def test_rescaling_one_coordinate_by_10_to_the_4_keeps_the_planted_pair(side):
    for seed in range(10):
        x, y, planted = _rescaled_pair(seed, side, 10 ** 4)
        assert planted in [(m.a.exact, m.b.exact) for m in centers_variety(x, y).pairs]


@pytest.mark.xfail(raises=Inconclusive, strict=True,
                   reason="D6: the float solver finds 1 of the 3 zeros once one coordinate "
                          "is 10^8 times the others (the solver's scale sensitivity)")
@pytest.mark.parametrize("side", ["X", "Y"])
@pytest.mark.parametrize("seed", range(4))
def test_rescaling_one_coordinate_by_10_to_the_8_keeps_the_planted_pair(seed, side):
    x, y, planted = _rescaled_pair(seed, side, 10 ** 8)
    assert planted in [(m.a.exact, m.b.exact) for m in centers_variety(x, y).pairs]


INTERMEDIATE_BOUND = (
    Configuration([(209035, 278236, 705499, 252497), (31900, -1474531, 445591, -13997),
                   (170593, 385248, 486417, 259722), (2088532, 1746179, -1161849, 142003),
                   (858865, -354049, -2015373, -447710), (356581, 212695, -536972, -185098),
                   (470749, 819329, 803696, 634183)]),
    Configuration([(149346, 62642, 88903, 286672), (839231, -486223, -509422, 347962),
                   (424399, 341682, 188489, 128276), (1697669, -1161600, -1578189, 877409),
                   (109347, -1737134, -1560763, 771982), (223533, 1695048, 1156594, -998491),
                   (1329338, 1057262, 483628, 250593)]),
)


def test_certifies_at_an_intermediate_denominator_bound():
    # 48-bit centers: no denominator bound below 10^16 certifies a, and b is
    # resected from the certified a
    x, y = INTERMEDIATE_BOUND
    a = pp(132204235157746, 103823749478173, 172483532955506, 40798132632662)
    b = pp(39269765319732, 223054029881585, 128746690443929, -190778232898101)
    cand = candidates_n7(x, y)
    assert a in [p.exact for p in cand.a_candidates]
    assert b in [p.exact for p in cand.b_candidates]


def reference_gauss_newton(syms, point):
    """Twelve Gauss-Newton steps, one matrix product per form."""
    p = point / np.linalg.norm(point)
    for _ in range(12):
        residuals = np.array([p @ s @ p for s in syms])
        jac = np.vstack([[2.0 * (s @ p) for s in syms], p.conj()[None, :]])
        step = np.linalg.lstsq(jac, np.concatenate([residuals, [0.0]]), rcond=None)[0]
        p = p - step
        p = p / np.linalg.norm(p)
    return p


N7_INSTANCES = [(seed, 10) for seed in (3, 5, 9)] + [
    (seed, bound) for bound in (10 ** 3, 10 ** 4) for seed in range(4)] + [INTERMEDIATE_BOUND]


def _instance_id(instance):
    if isinstance(instance[0], Configuration):
        return "intermediate-bound"
    return f"seed={instance[0]} bound={instance[1]}"


@pytest.mark.parametrize("instance", N7_INSTANCES, ids=_instance_id)
def test_gauss_newton_stops_once_converged(monkeypatch, instance):
    lstsq, gauss_newton = np.linalg.lstsq, numeric._gauss_newton
    steps, runs = [0], []

    def counted_lstsq(*args, **kwargs):
        steps[0] += 1
        return lstsq(*args, **kwargs)

    def recorded(syms, point):
        before = steps[0]
        p = gauss_newton(syms, point)
        runs.append((syms, point, p, steps[0] - before))
        return p

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(numeric, "_gauss_newton", recorded)
    if isinstance(instance[0], Configuration):
        candidates_n7(*instance)
    else:
        rec = generate_reconstruction(7, seed=instance[0], coord_bound=instance[1])
        candidates_n7(rec.x, rec.y)
    assert len(runs) == 6
    for syms, point, p, taken in runs:
        assert 1 <= taken <= 3
        assert np.max(np.abs(p - reference_gauss_newton(syms, point))) <= 1e-12


def reference_fano15_complex(x, a):
    """fano15_complex with one 4 x 4 det at a time."""
    rows = np.array([p.coords for p in x.points], dtype=float)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    av = np.asarray(a, dtype=complex)
    av = av / np.linalg.norm(av)
    values = []
    for perm in EVEN_FANO_PERMS:
        prod = 1.0 + 0.0j
        for line in FANO_LINES:
            m = np.vstack([rows[[perm[i - 1] - 1 for i in line]], av[None, :]])
            prod *= np.linalg.det(m)
        values.append(prod)
    return np.array(values)


def max_relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_fano_vector_matches_the_per_matrix_determinants():
    # the brackets come from the exact cofactor vectors, not from 4 x 4 float
    # determinants, so the two routes agree to rounding, not bit for bit
    rng = random.Random(11)
    nrng = np.random.default_rng(11)
    for trial in range(40):
        x = rand_config(rng, 7) if trial % 2 else generate_reconstruction(7, seed=trial).x
        a = nrng.standard_normal(4) + (1j * nrng.standard_normal(4) if trial % 3 else 0.0)
        got, want = fano15_complex(x, a), reference_fano15_complex(x, a)
        assert got.dtype == want.dtype and got.shape == want.shape == (15,)
        assert max_relative_error(got, want) <= 1e-12


def test_fano_vector_of_an_integer_center_is_proportional_to_the_exact_one():
    rng = random.Random(12)
    for trial in range(40):
        x = rand_config(rng, 7) if trial % 2 else generate_reconstruction(7, seed=trial).x
        a = [rng.randint(-10 ** 3, 10 ** 3) for _ in range(4)]
        exact = np.array([float(v) for v in fano15_lifted(x, a).values])
        got = fano15_complex(x, a)
        assert got.shape == (15,) and np.all(got.imag == 0)
        k = int(np.argmax(np.abs(exact)))
        assert max_relative_error(got.real * (exact[k] / got.real[k]), exact) <= 1e-12


def test_fano_vector_of_points_past_the_float_range():
    # cofactor vectors near 10^330 do not fit a float; the scaled route gives
    # the same unit brackets as the determinants of the unit points
    rng = random.Random(13)
    nrng = np.random.default_rng(13)
    for _ in range(5):
        x = Configuration([[rng.randint(-10 ** 110, 10 ** 110) for _ in range(4)]
                           for _ in range(7)])
        a = nrng.standard_normal(4)
        assert max_relative_error(fano15_complex(x, a), reference_fano15_complex(x, a)) <= 1e-12


def reference_unit_bracket_forms(x):
    """The 35 x 4 unit bracket forms as built before the float view: float()
    of the cofactor vectors and of the points, scaled by powers of two only
    where that overflows."""
    cofs = [x.cofactors_of(*t) for t in loci._TRIPLES]
    coords = [p.coords for p in x.points]
    try:
        forms = np.array(cofs, dtype=float)
        norms = np.linalg.norm(np.array(coords, dtype=float), axis=1)
    except OverflowError:
        e = [max(map(abs, c)).bit_length() for c in coords]
        norms = np.linalg.norm(np.array([[v / (1 << s) for v in c] for c, s in zip(coords, e)]),
                               axis=1)
        forms = np.array([[v / (1 << (e[i] + e[j] + e[k])) for v in c]
                          for c, (i, j, k) in zip(cofs, loci._TRIPLES)])
    ni, nj, nk = norms[loci._TRIPLE_POINTS.T, None]
    return forms / ni / nj / nk


def test_the_float_view_is_the_unscaled_floats_bit_for_bit():
    # scaling by a power of two commutes with rounding, so wherever float()
    # of the integers is finite the view reads the same bits
    configs = [w for bound in (10, 10 ** 3, 10 ** 6) for x, y in _generated_n7(bound)
               for w in (x, y)]
    configs += [w for pair in random_n7_pairs(20, 4) for w in pair]
    for x in configs:
        points, forms = loci._float_view(x)
        assert forms.tobytes() == reference_unit_bracket_forms(x).tobytes()
        want = numeric._unit_rows(np.array([p.coords for p in x.points], dtype=float))
        assert points.tobytes() == want.tobytes()


def test_the_float_view_of_points_past_the_float_range():
    # coordinates near 10^320 and their cofactors near 10^960 have no float;
    # the unit points and brackets stay finite and match the scaled-down input
    rng = random.Random(14)
    for _ in range(5):
        rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)] for _ in range(7)]
        big = Configuration([[v * 10 ** 314 + rng.randint(-9, 9) for v in r] for r in rows])
        points, forms = loci._float_view(big)
        want_points, want_forms = loci._float_view(Configuration(rows))
        assert np.all(np.isfinite(forms)) and np.all(np.isfinite(points))
        assert np.max(np.abs(points - want_points)) <= 1e-12
        assert np.max(np.abs(forms - want_forms)) <= 1e-12


def test_an_exact_point_past_the_float_range_is_read_to_its_unit_vector():
    p = loci._exact_point(pp(4 * 10 ** 400, -3 * 10 ** 400, 10 ** 380, 1))
    assert p.exact == pp(4 * 10 ** 400, -3 * 10 ** 400, 10 ** 380, 1)
    assert np.max(np.abs(p.array() - [0.8, -0.6, 0, 0])) <= 1e-15 and p.is_real


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_fano_vectors_of_stacked_centers_match_one_center_at_a_time_bit_for_bit(k):
    # each center's brackets are built by the same elementwise operations
    rng = random.Random(k)
    nrng = np.random.default_rng(k)
    for trial in range(6):
        x = rand_config(rng, 7) if trial % 2 else generate_reconstruction(7, seed=trial).x
        centers = nrng.standard_normal((k, 4)) + 1j * nrng.standard_normal((k, 4)) * (trial % 3 > 0)
        centers[::2] *= 10.0 ** nrng.integers(-8, 8)  # row norms far apart
        got = fano15_complex(x, centers)
        want = np.array([fano15_complex(x, c) for c in centers], dtype=complex).reshape(k, 15)
        assert got.dtype == want.dtype and got.shape == want.shape == (k, 15)
        assert got.tobytes() == want.tobytes()
        assert k == 0 or max_relative_error(
            got, np.array([reference_fano15_complex(x, c) for c in centers])) <= 1e-12


def test_match_distances_have_no_floor_and_a_zero_row_is_far():
    u = np.array([[1, 2, -2, 0], [0, 0, 0, 0]], dtype=complex) / 3
    w = np.array([0, 0, 0, 1j])
    angles = [10.0 ** -k for k in range(8, 15)]
    v = np.array([(np.cos(t) * u[0] + np.sin(t) * w) * np.exp(0.7j) for t in angles])
    dist = loci._distances(u, v)
    assert all(abs(d - t) <= 1e-16 + 1e-6 * t for d, t in zip(dist[0], angles))
    assert dist[1] == [1.0] * len(angles)
    assert loci._distances(v[:1], np.zeros((1, 4))) == [[1.0]]


class TestCandidates:
    def setup_method(self):
        self.rec = generate_reconstruction(7, seed=3)
        self.cand = candidates_n7(self.rec.x, self.rec.y)

    def test_three_candidates_each_side(self):
        assert len(self.cand.a_candidates) == 3
        assert len(self.cand.b_candidates) == 3

    def test_ground_truth_found_and_certified(self):
        at = floats(self.rec.a_true)
        hits = [p for p in self.cand.a_candidates
                if projective_distance(p.coords, at) < 1e-7]
        assert len(hits) == 1
        assert hits[0].exact == self.rec.a_true
        # exact substitution into all seven quadrics
        assert all(q(self.rec.a_true.coords) == 0 for q in self.cand.a_quadrics)

    def test_candidates_span_exactly_a_plane(self):
        stack = []
        for p in self.cand.a_candidates:
            v = np.array(p.coords)
            stack += [v.real, v.imag]
        sv = np.linalg.svd(np.array(stack), compute_uv=False)
        assert sv[3] / sv[0] < 1e-7   # common (real) plane
        assert sv[2] / sv[0] > 1e-7   # genuinely three independent points

    def test_pairing_recovers_ground_truth(self):
        pairs = pair_candidates_n7(self.rec.x, self.rec.y,
                                   self.cand.a_candidates, self.cand.b_candidates)
        assert len(pairs) == 3
        at, bt = floats(self.rec.a_true), floats(self.rec.b_true)
        best = min(max(projective_distance(m.a.coords, at),
                       projective_distance(m.b.coords, bt)) for m in pairs)
        assert best < 1e-7
        # every pair is a genuine ambiguity: tiny invariant distance
        assert all(m.invariant_distance < 1e-7 for m in pairs)

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_pairs_follow_the_a_candidates(self, seed):
        rec = generate_reconstruction(7, seed=seed)
        cand = candidates_n7(rec.x, rec.y)
        pairs = pair_candidates_n7(rec.x, rec.y, cand.a_candidates, cand.b_candidates)
        assert [m.a for m in pairs] == list(cand.a_candidates)

    def test_omega_candidate_is_discarded(self):
        vertex, _ = weddle_curve_point(self.rec.x, seed=0)
        padded = list(self.cand.a_candidates) + [vertex]
        pairs = pair_candidates_n7(self.rec.x, self.rec.y,
                                   padded, list(self.cand.b_candidates))
        assert len(pairs) == 3
        for m in pairs:
            assert projective_distance(m.a.coords, vertex.coords) > 1e-3


def test_a_world_point_among_the_zeros_is_degenerate():
    # every b-quadric vanishes at the world point y_7, which certification
    # finds as an exact candidate paired with a = (67 : 6 : 13 : -49)
    x = Configuration([(2, 3, 2, -2), (3, -1, 3, 0), (-3, 2, -1, 1), (3, 0, -1, -3),
                   (-2, 0, 1, 2), (3, -3, 1, 0), (0, 0, 0, 1)])
    y = Configuration([(0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 3, 1), (1, -3, 1, 0),
                   (-2, 1, -3, 3), (-1, -2, -2, -1), (1, -1, 0, -3)])
    with pytest.raises(DegenerateInput, match="world point"):
        centers_variety(x, y)


def test_a_world_point_among_the_a_zeros_is_degenerate():
    # the input above with X and Y swapped: x_7 is a common zero of the a-quadrics
    x = Configuration([(0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 3, 1), (1, -3, 1, 0),
                       (-2, 1, -3, 3), (-1, -2, -2, -1), (1, -1, 0, -3)])
    y = Configuration([(2, 3, 2, -2), (3, -1, 3, 0), (-3, 2, -1, 1), (3, 0, -1, -3),
                       (-2, 0, 1, 2), (3, -3, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(DegenerateInput, match="world point"):
        centers_variety(x, y)


SINGULAR_TRIPLE_X = Configuration([(1, 1, 1, 3), (2, 0, 1, -1), (1, 3, 3, 1), (1, 0, 1, -1),
                                   (3, -3, 2, -3), (1, -3, 2, 3), (2, 3, -3, 3)])
SINGULAR_TRIPLE_Y = Configuration([(1, 2, 3, -3), (3, 0, 2, 3), (1, 3, 2, 3), (1, 1, 0, 1),
                                   (2, -1, -3, -1), (1, 1, 1, 1), (1, -3, -3, 3)])


def test_a_world_point_the_certifier_misses_is_degenerate(tmp_path):
    # x_6 = (1 : -3 : 2 : 3) is a common zero of the a-quadrics; the world
    # point check needs no certificate
    with pytest.raises(DegenerateInput, match="world point"):
        candidates_n7(SINGULAR_TRIPLE_X, SINGULAR_TRIPLE_Y)
    assert _centers_report(tmp_path, SINGULAR_TRIPLE_X, SINGULAR_TRIPLE_Y) == (2, None)


# each has a four-point index set coplanar on both sides: {0, 1, 2, 3} and
# {1, 3, 5, 6} in the first two, {0, 3, 4, 6} and {0, 2, 3, 4} in inputs 47 and
# 381 of random_n7_pairs(600, 7); their Fano vectors cannot pair the candidates
COPLANAR_QUADRUPLE_PAIRS = [
    (Configuration([[1, 2, -1, -1], [-3, 0, 2, 2], [2, -2, -3, -3], [2, -2, 1, 1],
                    [-3, 3, 2, 1], [1, 3, -1, -2], [-3, -2, 3, 1]]),
     Configuration([[-3, 2, 0, 3], [-3, -2, 1, -2], [-1, -2, -1, 2], [-3, 3, 1, 1],
                    [-3, 3, 0, 3], [0, -1, 3, 0], [0, -3, -1, 3]])),
    (Configuration([[0, -3, -2, 1], [3, 2, -1, 3], [-3, -1, 2, 3], [0, 1, -2, 0],
                    [2, 1, -3, -1], [-1, -3, 1, -1], [1, 0, 0, 1]]),
     Configuration([[-2, 2, -2, 0], [1, -1, 0, 0], [-1, 0, 2, -1], [-2, -2, -2, -3],
                    [-3, -3, 3, 2], [0, 2, 1, -1], [-2, 0, -1, -3]])),
    (Configuration([[3, 2, -2, 0], [2, -2, -1, -3], [3, 2, -1, -1], [0, 3, 1, 1],
                    [3, -2, -1, 0], [1, 0, 1, -1], [3, -3, 1, 1]]),
     Configuration([[1, -3, 0, 0], [1, -1, 1, -3], [1, -1, -2, 2], [0, 3, -3, -1],
                    [2, 1, -2, 1], [2, -1, -2, 3], [3, -3, 0, 2]])),
    (Configuration([[3, -2, -1, 2], [1, -1, 0, 1], [3, 2, -3, 2], [1, -2, 3, 2],
                    [2, 2, -1, 2], [2, -1, 1, -1], [2, 0, 1, 3]]),
     Configuration([[1, 1, 0, 1], [3, -3, -2, 1], [0, 2, -1, 2], [3, 2, 0, 2],
                    [0, 0, 1, 0], [0, 2, -2, 1], [1, 1, 1, -3]])),
]


@pytest.mark.parametrize("index", range(len(COPLANAR_QUADRUPLE_PAIRS)))
def test_coplanar_quadruples_pair_without_ambiguity(index):
    x, y = COPLANAR_QUADRUPLE_PAIRS[index]
    result = centers_variety(x, y)
    cand = result.candidates
    assert reference_fano_pairs(x, y, cand.a_candidates, cand.b_candidates) is None
    assert len(result.pairs) == 3
    assert sorted(cand.b_candidates.index(p.b) for p in result.pairs) == [0, 1, 2]


def reference_fano_pairs(x, y, a_candidates, b_candidates):
    """The Fano assignment search that paired n = 7 candidates before pairing
    by resection: after the omega filter, the assignment of least total
    distance between the unit Fano vectors, the first of a tie in
    permutations order, as (a index, b index) pairs in the order of the
    a-candidates. None where it is ambiguous: the kept counts differ, or
    some kept a-candidate has two b-candidates within loci._MATCH_TOL."""
    ua, ub = (numeric._unit_rows(fano15_complex(w, np.reshape([p.coords for p in c], (-1, 4))))
              for w, c in ((x, a_candidates), (y, b_candidates)))
    omega = [d for (d,) in loci._distances(np.vstack([ua, ub]), np.full((1, 15), 15 ** -0.5))]
    keep_a = [i for i in range(len(ua)) if omega[i] >= loci._MATCH_TOL]
    keep_b = [j for j in range(len(ub)) if omega[len(ua) + j] >= loci._MATCH_TOL]
    if not keep_a or len(keep_a) != len(keep_b):
        return None
    dist = loci._distances(ua[keep_a], ub[keep_b])
    if any(len(row) > 1 and sorted(row)[1] < loci._MATCH_TOL for row in dist):
        return None
    best = min(itertools.permutations(range(len(keep_b))),
               key=lambda perm: sum(dist[i][j] for i, j in enumerate(perm)))
    return [(keep_a[i], keep_b[j]) for i, j in enumerate(best)]


def test_resection_pairs_as_the_fano_search_did_wherever_it_was_unambiguous():
    inputs = itertools.chain(*(_generated_n7(bound) for bound in (10, 10 ** 3, 10 ** 6)),
                             random_n7_pairs(200, 7))
    compared, refused = 0, []
    for index, (x, y) in enumerate(inputs):
        try:
            cand = candidates_n7(x, y)
        except ToolkitError:
            continue
        reference = reference_fano_pairs(x, y, cand.a_candidates, cand.b_candidates)
        pairs = pair_candidates_n7(x, y, cand.a_candidates, cand.b_candidates)
        if reference is None:
            refused.append(index - 30)
            assert len(pairs) == 3
            continue
        assert [(m.a, m.b) for m in pairs] == [
            (cand.a_candidates[i], cand.b_candidates[j]) for i, j in reference]
        compared += 1
    # the generated inputs come first; the search refused random inputs 47 and 68
    assert refused == [47, 68]
    assert compared >= 200


# a float zero of the a-quadrics of SINGULAR_TRIPLE_X, SINGULAR_TRIPLE_Y near
# (1 : -3 : 2 : 3) at which the float order of the Newton triples puts the two
# singular ones first; the order moves with the last bits of the point
SINGULAR_TRIPLE_NEAR = (0.20851441405707474, -0.6255432421712243,
                        0.41702882811414954, 0.6255432421712244)


def test_a_singular_first_newton_triple_does_not_lose_a_rational_zero():
    # the float-best triple (1, 4, 6) of the a-quadrics at (1 : -3 : 2 : 3)
    # has an exactly singular integer Jacobian, and so has (0, 4, 6); the
    # third, (1, 3, 4), certifies the zero
    x, y = SINGULAR_TRIPLE_X, SINGULAR_TRIPLE_Y
    quads = [loci.quadric_pair_n6(x.drop(k), y.drop(k))[0] for k in range(7)]
    points = numeric.solve_quadric_system(quads)
    (solved,) = [p for p in points if projective_distance(p.coords, floats(pp(1, -3, 2, 3))) < 1e-9]
    assert numeric.certify_rational(quads, solved) == pp(1, -3, 2, 3)
    # built directly, so no renormalization moves the pinned point
    near = numeric.NumericPoint(tuple(map(complex, SINGULAR_TRIPLE_NEAR)), 4.163336342344337e-17,
                                is_real=True)
    real = near.array().real
    j = int(np.argmax(np.abs(real)))
    jac = 2.0 * (numeric.sym_floats(np.array([f.floats for f in quads])) @ (real / np.linalg.norm(real)))
    assert numeric._pivot_triples(jac[:, [k for k in range(4) if k != j]])[:3] == [
        (1, 4, 6), (0, 4, 6), (1, 3, 4)]
    assert numeric.certify_rational(quads, near) == pp(1, -3, 2, 3)
    for f in quads:
        assert f.integer_hessian is f.integer_hessian
        assert f.integer_hessian == tuple(map(tuple, reference_integer_hessian(f)))


def reference_integer_hessian(form):
    """The Hessian of a primitive integer quadric, from its coefficients."""
    h = [[0] * 4 for _ in range(4)]
    for c, (i, k) in zip(form.coeffs, [(i, k) for i in range(4) for k in range(i, 4)]):
        h[i][k] += c
        h[k][i] += c
    return h


def reference_b_candidates(cand):
    """The b-candidates as certified on their own: the solve of the b-quadrics
    with every rational candidate certified by the denominator ladder."""
    points = numeric.solve_quadric_system(list(cand.b_quadrics))
    return [loci._with_certificate(p, cand.b_quadrics) for p in points]


def random_n7_pairs(count, seed, n=7, bound=3):
    """count random pairs of n points (seven by default) with entries in
    [-bound, bound], an all-zero point replaced by (0, 0, 0, 1): per pair the
    points of X, then those of Y, from one random.Random(seed) stream."""
    rng = random.Random(seed)

    def vector():
        v = [rng.randint(-bound, bound) for _ in range(4)]
        return v if any(v) else [0, 0, 0, 1]

    for _ in range(count):
        yield Configuration([vector() for _ in range(n)]), Configuration([vector() for _ in range(n)])


def _generated_n7(bound):
    for seed in range(10):
        rec = generate_reconstruction(7, seed=seed, coord_bound=bound)
        yield rec.x, rec.y


@pytest.mark.parametrize("bound", [10, 10 ** 3, None], ids=["bound=10", "bound=1000", "random"])
def test_resected_b_candidates_equal_the_certified_ones(bound):
    pairs = random_n7_pairs(100, 5) if bound is None else _generated_n7(bound)
    exact_pairs = checked = 0
    for x, y in pairs:
        try:
            cand = candidates_n7(x, y)
        except ToolkitError:
            continue
        checked += 1
        # the same floats, bit for bit, and the same exact points
        assert list(cand.b_candidates) == reference_b_candidates(cand)
        exact_a = [p.exact for p in cand.a_candidates if p.exact is not None]
        assert len(exact_a) == sum(p.exact is not None for p in cand.b_candidates)
        for m in pair_candidates_n7(x, y, cand.a_candidates, cand.b_candidates):
            assert (m.a.exact is None) == (m.b.exact is None)
            if m.a.exact is not None:
                assert m.b.exact == loci._resected_center(x, y, m.a.exact)
                exact_pairs += 1
    # every generated input has one rational pair; the random ones have none
    assert checked >= (60 if bound is None else 10)
    assert exact_pairs == (0 if bound is None else 10)


def _outcome(x, y):
    try:
        return centers_variety(x, y).pairs
    except ToolkitError as exc:
        return exc.code


def _unimodular(rng):
    while True:
        m = [[rng.choice((-1, 0, 1)) for _ in range(4)] for _ in range(4)]
        if abs(linalg.det(m)) == 1:
            return m


def _relabelled(x, y, rng):
    perm = rng.sample(range(7), 7)
    return (Configuration([x[i] for i in perm]), Configuration([y[i] for i in perm]),
            lambda m: (m.a.coords, m.b.coords, m.a.exact, m.b.exact))


def _moved(x, y, rng):
    hx, hy = _unimodular(rng), _unimodular(rng)

    def image(m):
        return (np.array(hx) @ m.a.array(), np.array(hy) @ m.b.array(),
                m.a.exact and apply_matrix(hx, m.a.exact),
                m.b.exact and apply_matrix(hy, m.b.exact))

    return x.transformed(hx), y.transformed(hy), image


def _swapped(x, y, rng):
    return y, x, lambda m: (m.b.coords, m.a.coords, m.b.exact, m.a.exact)


@pytest.mark.parametrize("transform", [_relabelled, _moved, _swapped],
                         ids=["relabel", "homography", "swap"])
def test_seven_point_pairs_follow_the_symmetries_of_the_problem(transform):
    # relabelling both sides alike keeps the pairs, det +-1 homographies
    # H_X, H_Y map them to (H_X a, H_Y b), and swapping X and Y to (b, a);
    # an input that is refused is refused alike
    rng = random.Random(9)
    inputs = list(itertools.chain(_generated_n7(10), random_n7_pairs(40, 9),
                                  COPLANAR_QUADRUPLE_PAIRS))
    paired = 0
    for x, y in inputs:
        before = _outcome(x, y)
        tx, ty, image = transform(x, y, rng)
        after = _outcome(tx, ty)
        if isinstance(before, str):
            assert after == before
            continue
        assert not isinstance(after, str) and len(after) == len(before)
        for a, b, exact_a, exact_b in map(image, before):
            (hit,) = [m for m in after if projective_distance(m.a.coords, a) < 1e-6
                      and projective_distance(m.b.coords, b) < 1e-6]
            assert (hit.a.exact, hit.b.exact) == (exact_a, exact_b)
        paired += 1
    assert paired >= 40


def test_a_resected_center_off_the_b_quadrics_is_inconsistent(monkeypatch):
    rec = generate_reconstruction(7, seed=3)
    monkeypatch.setattr(loci, "_resected_center", lambda x, y, a: pp(1, 2, 3, 4))
    with pytest.raises(Inconsistent, match="b-quadric"):
        candidates_n7(rec.x, rec.y)


def test_a_resected_center_far_from_every_b_candidate_is_inconclusive(monkeypatch):
    rec = generate_reconstruction(7, seed=3)
    solve = numeric.solve_quadric_system
    b_quads = [loci.quadric_pair_n6(rec.x.drop(k), rec.y.drop(k))[1] for k in range(7)]

    def shifted(forms):
        # the solve of the b-quadrics is told apart by its forms; only b moves
        points = solve(forms)
        if list(forms) != b_quads:
            return points
        return [numeric.NumericPoint.from_vector(p.array() + [0, 0, 0, 1e-3], p.residual)
                for p in points]

    monkeypatch.setattr(loci, "solve_quadric_system", shifted)
    with pytest.raises(Inconclusive, match="no single b-candidate"):
        candidates_n7(rec.x, rec.y)


@pytest.mark.parametrize(("a_slots", "b_slots", "message"), [
    ((0, 1, 2), (1, 1, 2), r"a-candidate 0: .* b-candidate \(0 within 1e-6; the nearest at "),
    ((0, 1, 2), (0, 0, 2), r"a-candidate 0: .* b-candidate \(2 within 1e-6; the nearest at "),
    ((0, 0, 2), (0, 1, 2), r"a-candidate 1: .*\(1 within 1e-6, already taken; the nearest at "),
])
def test_an_ambiguous_match_names_the_a_candidate_and_the_near_count(a_slots, b_slots, message):
    # slot k holds the candidate paired with a-candidate k; repeating one
    # leaves another a with no partner, or two, or one already taken
    rec = generate_reconstruction(7, seed=3)
    cand = candidates_n7(rec.x, rec.y)
    pairs = pair_candidates_n7(rec.x, rec.y, cand.a_candidates, cand.b_candidates)
    with pytest.raises(Inconclusive, match=message):
        pair_candidates_n7(rec.x, rec.y, [pairs[k].a for k in a_slots],
                           [pairs[k].b for k in b_slots])


def test_unequal_counts_and_an_exact_center_with_an_inexact_one_are_inconclusive():
    rec = generate_reconstruction(7, seed=3)
    cand = candidates_n7(rec.x, rec.y)
    pairs = pair_candidates_n7(rec.x, rec.y, cand.a_candidates, cand.b_candidates)
    with pytest.raises(Inconclusive, match="cannot match 1 a-candidates with 3 b-candidates"):
        pair_candidates_n7(rec.x, rec.y, [pairs[0].a], [m.b for m in pairs])
    (k,) = [k for k, m in enumerate(pairs) if m.a.exact is not None]
    stripped = [m.a if i != k else NumericPoint(m.a.coords, m.a.residual, m.a.is_real)
                for i, m in enumerate(pairs)]
    with pytest.raises(Inconclusive, match="an exact center is matched with an inexact one"):
        pair_candidates_n7(rec.x, rec.y, stripped, [m.b for m in pairs])


# pairs of random_n7_pairs(3000, 1, bound=1) whose a-quadrics certify
# H(2) = H(3) = 3 while the floats place only 1 or 2 distinct zeros: the
# zeros are world points with multiplicity, x_5 triple for 1493, x_4 double
# and x_1 simple for 2301 (0-based, by Groebner bases over Q in the affine
# charts). Each maps to the 0-based labels of the world points that are
# common zeros on the a-side and on the b-side.
SHORTFALLS = {1493: ([5], [1]), 2301: ([1, 4], [3, 6])}


def shortfall_pair(index):
    """Pair `index` of random_n7_pairs(3000, 1, bound=1)."""
    return next(itertools.islice(random_n7_pairs(index + 1, 1, bound=1), index, None))


@pytest.mark.parametrize("index", sorted(SHORTFALLS))
def test_world_points_the_floats_cannot_place_are_degenerate(tmp_path, capsys, index):
    # the exact world-point check reads only the quadrics and runs before the
    # solves, so these inputs exit 2, not with the solver's shortfall (exit 3,
    # test_numeric.py::TestSolver::test_expected_count_enforced)
    x, y = shortfall_pair(index)
    quads = list(zip(*(loci.quadric_pair_n6(x.drop(k), y.drop(k)) for k in range(7))))
    assert tuple([k for k in range(7) if not loci._quadric_value(q[k], w[k])]
                 for q, w in zip(quads, (x, y))) == SHORTFALLS[index]
    with pytest.raises(DegenerateInput, match="common zero .* is a world point"):
        centers_variety(x, y)
    assert _centers_report(tmp_path, x, y) == (2, None)
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "DegenerateInput"
    assert "is a world point" in error["message"]


class TestWeddleCurve:
    def setup_method(self):
        self.rec = generate_reconstruction(7, seed=4)
        self.vertex, self.residuals = weddle_curve_point(self.rec.x, seed=1)

    def test_net_of_quadrics(self):
        net = quadric_net(self.rec.x)
        assert len(net) == 3
        for q in net:
            assert all(q(p) == 0 for p in self.rec.x)

    def test_vertex_on_all_seven_weddle_quartics(self):
        assert max(self.residuals) < 1e-7

    def test_fano_direction_is_all_ones(self):
        v = fano15_complex(self.rec.x, self.vertex.coords)
        assert projective_distance(v, np.ones(15)) < 1e-7

    def test_projection_from_vertex_lands_on_a_conic(self):
        rows = np.array([p.coords for p in self.rec.x.points], dtype=float)
        av = np.array(self.vertex.coords)
        k = int(np.argmax(np.abs(av)))
        images = []
        for r in rows:
            img = np.array([av[k] * r[j] - r[k] * av[j] for j in range(4) if j != k])
            images.append(img / np.linalg.norm(img))
        # six points lie on a conic iff the 6x6 matrix of conic monomials drops rank
        for sub in itertools.combinations(range(7), 6):
            m = []
            for i in sub:
                u, v, w = images[i]
                m.append([u * u, v * v, w * w, u * v, u * w, v * w])
            sv = np.linalg.svd(np.array(m), compute_uv=False)
            assert abs(sv[-1]) / sv[0] < 1e-7


def reference_weddle_curve_point(x, seed=0):
    """weddle_curve_point as it read the net and the quartics before: float()
    of the Fraction symmetric matrices and of each quartic's coefficients."""
    net = [np.array(sym_from_quad(q), dtype=float) for q in quadric_net(x)]
    rng = random.Random(seed)
    for _ in range(50):
        c1 = [rng.randint(-9, 9) for _ in range(3)]
        c2 = [rng.randint(-9, 9) for _ in range(3)]
        m1 = sum(c * m for c, m in zip(c1, net))
        m2 = sum(c * m for c, m in zip(c2, net))
        try:
            roots, vectors = np.linalg.eig(np.linalg.solve(m2, -m1))
        except np.linalg.LinAlgError:
            continue
        vertex = vectors[:, min(range(4), key=lambda i: (abs(roots[i].imag), roots[i].real))]
        residuals = []
        for k in range(7):
            coeff = np.array([float(c) for c in weddle_quartic(x.drop(k)).form.coeffs])
            coeff /= np.linalg.norm(coeff)
            vals = np.array([np.prod((vertex / np.linalg.norm(vertex)) ** np.array(m))
                             for m in monomials(4)], dtype=complex)
            residuals.append(float(abs(coeff @ vals)))
        if max(residuals) < 1e-7:
            return vertex, residuals
    return None


def test_the_weddle_point_is_the_unscaled_reading_bit_for_bit():
    # one power of two for the whole net and one per quartic commute with
    # the eigen-solve and the normalization
    for seed in range(10):
        x = generate_reconstruction(7, seed=seed).x
        point, residuals = weddle_curve_point(x)
        vertex, want = reference_weddle_curve_point(x)
        assert np.array(point.coords).tobytes() == np.array(
            NumericPoint.from_vector(vertex, 0.0).coords).tobytes()
        assert np.array(residuals).tobytes() == np.array(want).tobytes()


def test_a_weddle_point_of_a_set_past_the_float_range_ends_in_a_point_or_an_error():
    # the net of this sheared set has coefficients past 10^308
    shear = [[1, 10 ** 320, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    x = generate_reconstruction(7, seed=0).x.transformed(shear)
    with pytest.raises(OverflowError):
        np.array(sym_from_quad(quadric_net(x)[0]), dtype=float)
    try:
        point, residuals = weddle_curve_point(x)
    except ToolkitError:
        return
    assert np.all(np.isfinite(point.array())) and max(residuals) < 1e-7


def _quadrics_vanishing_on(rows):
    """A basis of the quadrics whose coefficient vectors annihilate the rows."""
    return [Form(2, tuple(v)) for v in linalg.kernel_basis(rows)]


def _veronese(point):
    return [mono_eval(m, point.coords) for m in monomials(2)]


def _dual_vector(quadrics):
    """The one vector spanning the dual kernel of a rank-9 span of quadrics."""
    (kernel,) = linalg.integer_kernel([q.coeffs for q in quadrics])
    return kernel


def _walk_over(monkeypatch, quadrics):
    """centers_n_ge8 on a generated n = 8 instance whose 6-subsets each give
    the next of the quadrics, cyclically, on both sides."""
    feed = itertools.cycle(quadrics)
    monkeypatch.setattr(loci, "quadric_pair_n6", lambda x, y: (next(feed),) * 2)
    rec = generate_reconstruction(8, seed=0)
    return centers_n_ge8(rec.x, rec.y)


class TestSpanCommonZero:
    POINTS = [pp(0, 2, -3, 5), pp(7, -1, 4, 2), pp(1, 0, 0, 0), pp(3, 3, -8, 0)]

    def test_all_quadrics_have_no_common_zero(self, monkeypatch):
        units = [Form(2, tuple(int(i == j) for j in range(10))) for i in range(10)]
        assert _walk_over(monkeypatch, units) == loci.EmptyN8(10, ())

    @pytest.mark.parametrize("p", POINTS)
    def test_the_quadrics_through_a_point_give_it_back(self, p):
        quadrics = _quadrics_vanishing_on([_veronese(p)])
        assert len(quadrics) == 9
        assert _span_common_zero(_dual_vector(quadrics)) == p

    @pytest.mark.parametrize("p, q", list(zip(POINTS, POINTS[1:])))
    def test_two_common_zeros_are_inconclusive(self, p, q, monkeypatch):
        quadrics = _quadrics_vanishing_on([_veronese(p), _veronese(q)])
        assert len(quadrics) == 8
        with pytest.raises(Inconclusive) as caught:
            _walk_over(monkeypatch, quadrics)
        assert caught.value.details == {"rank_a": 8, "rank_b": 8}

    @pytest.mark.parametrize("p, q", list(zip(POINTS, POINTS[1:])))
    def test_a_kernel_off_the_veronese_has_no_common_zero(self, p, q):
        kernel = [u + v for u, v in zip(_veronese(p), _veronese(q))]
        with pytest.raises(NoRationalImage):
            _span_common_zero(_dual_vector(_quadrics_vanishing_on([kernel])))


def _ninth_point_pair():
    # the first eight points share a reconstruction; the ninth pair breaks it
    rec = generate_reconstruction(8, seed=0)
    return (Configuration(list(rec.x.points) + [pp(3, -7, 2, 5)]),
            Configuration(list(rec.y.points) + [pp(1, 4, -6, 9)]))


def _centers_report(tmp_path, x, y):
    files = []
    for name, cfg in (("x.json", x), ("y.json", y)):
        files.append(str(tmp_path / name))
        cio.atomic_write_json(files[-1], cio.configuration_to_json(cfg))
    out = tmp_path / "report.json"
    code = main(["centers", "-i", files[0], "-j", files[1], "-o", str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


# the a-quadrics of all 28 6-subsets span only 7 of 10 dimensions; the
# b-side spans 9, and resecting a from its single candidate fails
D4_PAIR = (Configuration([[3, 0, -2, 0], [1, -3, 3, 1], [0, 1, -1, -1], [0, 1, 0, -2],
                          [3, 0, 3, 2], [3, -3, 1, 1], [0, 1, -2, 0], [3, 1, 0, 2]]),
           Configuration([[1, -1, 0, 3], [3, -3, -2, 3], [1, -3, -2, 1], [2, 2, -2, 3],
                          [1, -1, 3, -3], [1, -1, -1, -1], [3, -2, 2, 3], [0, 0, 0, 1]]))

# inputs whose spans both stay below rank 9: the first has 15 usable
# 6-subsets, the second (x_5 = x_6 and y_2 = y_4) has 4
BELOW_RANK_NINE = [
    (Configuration([[-1, -1, 2, -2], [1, 3, -2, 2], [3, 3, 3, -1], [3, -2, 3, -1],
                    [-1, -3, -1, -3], [2, 3, -2, -2], [-1, 2, 1, 1], [2, -2, 1, -3]]),
     Configuration([[3, -2, 3, 2], [-1, -3, 3, 3], [3, 2, -2, 2], [3, -2, -1, 2],
                    [-3, 3, -3, -2], [-3, -2, -1, -2], [1, 2, -1, -3], [3, -2, 2, 2]])),
    (Configuration([[-1, 1, -3, -1], [1, 1, 3, -1], [2, 2, -3, -1], [-1, 2, 1, 1],
                    [1, 3, 3, -1], [-3, -1, 3, 2], [-3, -1, 3, 2], [1, -3, -1, -1]]),
     Configuration([[-1, 3, 2, -2], [2, 2, -3, -3], [-2, -2, -3, 2], [3, -2, -2, -1],
                    [-2, -2, -3, 2], [-1, -3, 2, 2], [-3, -2, 1, 1], [-3, 3, -2, 2]])),
]


class TestEightPlus:
    def test_generic_pairs_share_nothing(self):
        rng = random.Random(17)
        for _ in range(3):
            x, y = rand_config(rng, 8), rand_config(rng, 8)
            result = centers_n_ge8(x, y)
            assert result.surviving == () and result.span_rank == 10

    def test_oracle_pair_is_the_exact_survivor(self):
        rec = generate_reconstruction(8, seed=2)
        result = centers_n_ge8(rec.x, rec.y)
        assert result.span_rank == 9
        assert result.surviving == ((rec.a_true, rec.b_true),)

    def test_ninth_point_pair_is_checked(self, tmp_path):
        # only the first eight pairs share a reconstruction, so nothing may
        # survive; the subsets with the ninth point lift the span to rank 10
        code, report = _centers_report(tmp_path, *_ninth_point_pair())
        assert code == 0
        assert report["variant"] == "EmptyN8" and report["span_rank"] == 10
        assert report["surviving"] == [] and report["empty"] is True

    def test_shared_seven_prefix_only_is_empty(self):
        # first seven points share a reconstruction, the eighth pair does not
        rec = generate_reconstruction(7, seed=5)
        rng = random.Random(23)
        x = Configuration(list(rec.x.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        y = Configuration(list(rec.y.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        result = centers_n_ge8(x, y)
        assert result.surviving == ()

    def test_a_degenerate_seven_point_subproblem_does_not_abort(self, tmp_path):
        # the first seven pairs and the last seven, each solved alone, raise
        # DegenerateInput (a common zero of their leave-one-out quadrics is a
        # world point), which must not decide the exact n = 8 verdict
        x = Configuration([[1, 2, 2, -2], [-1, 3, -2, 3], [1, -2, 3, -1], [1, -2, -2, -1],
                           [-1, 2, -1, 1], [2, 3, 1, 2], [3, 1, 1, 3], [1, -2, -2, -2]])
        y = Configuration([[1, 1, 3, 2], [-2, 1, 3, -1], [-1, 3, -2, 3], [-1, 2, 1, 2],
                           [-1, -1, -2, -1], [-1, -2, 3, -2], [2, -2, -2, 2], [1, 1, -1, 3]])
        code, report = _centers_report(tmp_path, x, y)
        assert code == 0
        assert report["variant"] == "EmptyN8" and report["span_rank"] == 10
        assert report["surviving"] == [] and report["empty"] is True

    def test_a_rank_seven_a_side_is_decided_empty(self, tmp_path):
        x, y = D4_PAIR
        result = centers_variety(x, y)
        assert result.span_rank == 9 and result.surviving == ()
        code, report = _centers_report(tmp_path, x, y)
        assert code == 0 and report["empty"] is True

    def test_relabelling_both_sides_keeps_the_verdict(self):
        # some 6-subsets are degenerate and skipped; in either labelling the
        # same points are decided empty at span rank 10
        x = Configuration([[2, 0, 2, 2], [0, 0, -2, 1], [0, -2, 1, 2], [1, 2, -2, 1],
                           [3, 3, -1, -1], [1, 2, 3, 0], [2, 2, -2, 0], [-1, -1, 2, -1]])
        y = Configuration([[0, 2, 0, 0], [2, -2, 1, -1], [1, 1, 0, -3], [1, -3, 0, -3],
                           [-3, -3, -3, 1], [0, 2, -3, 1], [-1, -1, 1, 1], [-2, -2, -1, -2]])
        perm = [1, 6, 2, 0, 7, 4, 5, 3]

        def verdict(x, y):
            try:
                result = centers_variety(x, y)
            except ToolkitError as exc:
                return exc.code
            return result.span_rank, set(result.surviving)

        assert verdict(x, y) == verdict(Configuration([x[i] for i in perm]),
                                        Configuration([y[i] for i in perm])) == (10, set())

    @pytest.mark.parametrize(("index", "swap", "ranks"),
                             [(0, False, (7, 8)), (0, True, (8, 7)), (1, False, (4, 4))],
                             ids=["ranks-7-8", "ranks-8-7", "ranks-4-4"])
    def test_spans_below_rank_nine_are_inconclusive(self, index, swap, ranks, tmp_path, capsys):
        # every usable 6-subset is read and both spans stay below rank 9, so
        # each side may have many common zeros; the refusal names both exact
        # ranks, swapping X and Y swaps them, and the CLI exits 3 with them
        x, y = BELOW_RANK_NINE[index]
        x, y = (y, x) if swap else (x, y)
        with pytest.raises(Inconclusive) as caught:
            centers_n_ge8(x, y)
        details = {"rank_a": ranks[0], "rank_b": ranks[1]}
        assert caught.value.details == details
        assert str(caught.value) == (f"the quadrics span only {ranks[0]} (a-side) and "
                                     f"{ranks[1]} (b-side) of 10 dimensions")
        capsys.readouterr()
        assert _centers_report(tmp_path, x, y) == (3, None)
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "Inconclusive" and error["details"] == details

    def test_the_walk_is_every_subset_once_windows_then_combinations(self):
        for n in range(8, 16):
            walk = list(loci._subset_walk(n))
            windows = {tuple(sorted((i + j) % n for j in range(6))) for i in range(n)}
            assert set(walk[:n]) == windows
            assert walk[0] == tuple(range(6))
            assert walk[n:] == [c for c in itertools.combinations(range(n), 6)
                                if c not in windows]

    @pytest.mark.parametrize("n", [20, 40])
    def test_large_inputs_are_decided_after_at_most_n_quadric_pairs(self, n, monkeypatch):
        # ROADMAP item 14 (D7): a random pair at n = 40 and a generated pair
        # at n = 20 whose last y point is moved, so that only subsets with
        # that point show the planted pair is gone; the cyclic windows bring
        # it in early, and no list of the C(n, 6) subsets is built
        if n == 40:
            rng = random.Random(40)
            x, y = rand_config(rng, n), rand_config(rng, n)
        else:
            rec = generate_reconstruction(n, seed=0)
            moved = [list(p.coords) for p in rec.y.points]
            moved[-1][0] += 1
            x, y = rec.x, Configuration(moved)
        calls = []
        pair = loci.quadric_pair_n6
        monkeypatch.setattr(loci, "quadric_pair_n6", lambda *a: calls.append(1) or pair(*a))
        result = centers_n_ge8(x, y)
        assert result.span_rank == 10 and result.surviving == ()
        assert len(calls) <= n

    def test_verdict_needs_no_numeric_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numeric stage ran for n >= 8")

        for name in ("candidates_n7", "pair_candidates_n7", "solve_quadric_system"):
            monkeypatch.setattr(loci, name, refuse)
        rec = generate_reconstruction(8, seed=2)
        assert centers_variety(rec.x, rec.y).surviving == ((rec.a_true, rec.b_true),)
        assert centers_variety(*_ninth_point_pair()).surviving == ()


def _eight_plus_inputs():
    """Random n = 8 and n = 9 pairs in [-3, 3], generated n = 8, 9 and 12
    instances, the inputs below rank nine and one decided empty at rank 9."""
    generated = [generate_reconstruction(n, seed=seed)
                 for n, seed in [(8, 0), (8, 1), (8, 2), (9, 0), (9, 1), (12, 0)]]
    return [*random_n7_pairs(50, 88, n=8), *random_n7_pairs(50, 99, n=9),
            *((rec.x, rec.y) for rec in generated), *BELOW_RANK_NINE, D4_PAIR]


def _n8_outcome(x, y):
    """(span_rank, surviving) of centers_n_ge8, or (code, details) of its refusal."""
    try:
        result = centers_n_ge8(x, y)
    except ToolkitError as exc:
        return exc.code, exc.details
    return result.span_rank, result.surviving


def _n8_relabelled(x, y, rng):
    perm = rng.sample(range(x.n), x.n)
    return Configuration([x[i] for i in perm]), Configuration([y[i] for i in perm]), lambda o: o


def _n8_moved(side):
    def transform(x, y, rng):
        h = _unimodular(rng)

        def image(outcome):
            rank, pairs = outcome
            if isinstance(rank, str):
                return outcome
            return rank, tuple((apply_matrix(h, a), b) if side == "x" else (a, apply_matrix(h, b))
                               for a, b in pairs)

        return (x.transformed(h), y, image) if side == "x" else (x, y.transformed(h), image)

    return transform


def _n8_swapped(x, y, rng):
    def image(outcome):
        first, second = outcome
        if first == "Inconclusive":
            return first, {"rank_a": second["rank_b"], "rank_b": second["rank_a"]}
        return outcome if isinstance(first, str) else (first, tuple((b, a) for a, b in second))

    return y, x, image


@pytest.mark.parametrize("transform", [_n8_relabelled, _n8_moved("x"), _n8_moved("y"),
                                       _n8_swapped],
                         ids=["relabel", "homography-x", "homography-y", "swap"])
def test_eight_plus_points_follow_the_symmetries_of_the_problem(transform):
    # relabelling both sides alike keeps the verdict, det +-1 homographies
    # H_X, H_Y map the surviving pair to (H_X a, H_Y b), and swapping X and
    # Y to (b, a); a refusal keeps its code and swaps or keeps its ranks
    rng = random.Random(32)
    seen = collections.Counter()
    for x, y in _eight_plus_inputs():
        before = _n8_outcome(x, y)
        tx, ty, image = transform(x, y, rng)
        assert _n8_outcome(tx, ty) == image(before)
        seen[before[0] if isinstance(before[0], str) else (before[0], len(before[1]))] += 1
    assert seen == {(10, 0): 99, (9, 1): 6, (9, 0): 1, "Inconclusive": 3}


def test_planted_pairs_are_decided_within_thirteen_quadric_pairs(monkeypatch):
    built = []
    quadric_pair = loci.quadric_pair_n6

    def recording(x, y):
        built.append((x, y))
        return quadric_pair(x, y)

    monkeypatch.setattr(loci, "quadric_pair_n6", recording)
    for n in (8, 9, 12):
        for bound in (10, 10 ** 3, 10 ** 6):
            rec = generate_reconstruction(n, seed=1, coord_bound=bound)
            built.clear()
            assert centers_n_ge8(rec.x, rec.y).surviving == ((rec.a_true, rec.b_true),)
            assert len(built) <= 13
