import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from centersvar import io as cio
from centersvar import linalg, loci
from centersvar.cli import main
from centersvar.datagen import generate_reconstruction
from centersvar.errors import DegenerateInput, Inconclusive
from centersvar.forms import Form, mono_eval, monomials
from centersvar.invariants import EVEN_FANO_PERMS, FANO_LINES
from centersvar.loci import (_span_common_zero, candidates_n7, centers_n_ge8,
                             centers_variety, fano15_complex, pair_candidates_n7,
                             quadric_net, weddle_curve_point)
from centersvar.numeric import projective_distance
from centersvar.projective import Configuration, pp


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


def test_certifies_at_an_intermediate_denominator_bound():
    # 48-bit centers; the polished b is accurate to about 1e-44 only, so the
    # denominator bound 10^12 is below its denominator and 10^30 lets another
    # fraction come closer: only an intermediate bound certifies it
    x = Configuration([(209035, 278236, 705499, 252497), (31900, -1474531, 445591, -13997),
                       (170593, 385248, 486417, 259722), (2088532, 1746179, -1161849, 142003),
                       (858865, -354049, -2015373, -447710), (356581, 212695, -536972, -185098),
                       (470749, 819329, 803696, 634183)])
    y = Configuration([(149346, 62642, 88903, 286672), (839231, -486223, -509422, 347962),
                       (424399, 341682, 188489, 128276), (1697669, -1161600, -1578189, 877409),
                       (109347, -1737134, -1560763, 771982), (223533, 1695048, 1156594, -998491),
                       (1329338, 1057262, 483628, 250593)])
    a = pp(132204235157746, 103823749478173, 172483532955506, 40798132632662)
    b = pp(39269765319732, 223054029881585, 128746690443929, -190778232898101)
    cand = candidates_n7(x, y)
    assert a in [p.exact for p in cand.a_candidates]
    assert b in [p.exact for p in cand.b_candidates]


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


def test_stacked_fano_vector_matches_the_per_matrix_loop_bit_for_bit():
    rng = random.Random(11)
    nrng = np.random.default_rng(11)
    for trial in range(20):
        x = rand_config(rng, 7) if trial % 2 else generate_reconstruction(7, seed=trial).x
        a = nrng.standard_normal(4) + (1j * nrng.standard_normal(4) if trial % 3 else 0.0)
        got, want = fano15_complex(x, a), reference_fano15_complex(x, a)
        assert got.dtype == want.dtype and got.shape == want.shape == (15,)
        assert got.tobytes() == want.tobytes()


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
        import itertools
        for sub in itertools.combinations(range(7), 6):
            m = []
            for i in sub:
                u, v, w = images[i]
                m.append([u * u, v * v, w * w, u * v, u * w, v * w])
            sv = np.linalg.svd(np.array(m), compute_uv=False)
            assert abs(sv[-1]) / sv[0] < 1e-7


def _quadrics_vanishing_on(rows):
    """A basis of the quadrics whose coefficient vectors annihilate the rows."""
    return [Form(2, tuple(v)) for v in linalg.kernel_basis(rows)]


def _veronese(point):
    return [mono_eval(m, point.coords) for m in monomials(2)]


class TestSpanCommonZero:
    POINTS = [pp(0, 2, -3, 5), pp(7, -1, 4, 2), pp(1, 0, 0, 0), pp(3, 3, -8, 0)]

    def test_all_quadrics_have_no_common_zero(self):
        units = [Form(2, tuple(Fraction(int(i == j)) for j in range(10))) for i in range(10)]
        assert _span_common_zero(units) == (10, None)

    @pytest.mark.parametrize("p", POINTS)
    def test_the_quadrics_through_a_point_give_it_back(self, p):
        quadrics = _quadrics_vanishing_on([_veronese(p)])
        assert len(quadrics) == 9
        assert _span_common_zero(quadrics) == (9, p)

    @pytest.mark.parametrize("p, q", list(zip(POINTS, POINTS[1:])))
    def test_a_kernel_off_the_veronese_has_no_common_zero(self, p, q):
        kernel = [u + v for u, v in zip(_veronese(p), _veronese(q))]
        assert _span_common_zero(_quadrics_vanishing_on([kernel])) == (9, None)

    @pytest.mark.parametrize("p, q", list(zip(POINTS, POINTS[1:])))
    def test_two_common_zeros_are_inconclusive(self, p, q):
        quadrics = _quadrics_vanishing_on([_veronese(p), _veronese(q)])
        assert len(quadrics) == 8
        with pytest.raises(Inconclusive):
            _span_common_zero(quadrics)


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
        # the windows see only the first eight points, so nothing may survive
        code, report = _centers_report(tmp_path, *_ninth_point_pair())
        assert code == 0
        assert report["variant"] == "EmptyN8" and report["span_rank"] == 9
        assert report["surviving"] == [] and report["empty"] is True

    def test_shared_seven_prefix_only_is_empty(self):
        # first seven points share a reconstruction, the eighth pair does not
        rec = generate_reconstruction(7, seed=5)
        rng = random.Random(23)
        x = Configuration(list(rec.x.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        y = Configuration(list(rec.y.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        result = centers_n_ge8(x, y)
        assert result.surviving == ()

    def test_window_match_ambiguity_does_not_abort(self, tmp_path):
        # the 7-point windows of this pair cannot be matched numerically
        # (AmbiguousMatch), which must not decide the exact n = 8 verdict
        x = Configuration([[1, 2, 2, -2], [-1, 3, -2, 3], [1, -2, 3, -1], [1, -2, -2, -1],
                           [-1, 2, -1, 1], [2, 3, 1, 2], [3, 1, 1, 3], [1, -2, -2, -2]])
        y = Configuration([[1, 1, 3, 2], [-2, 1, 3, -1], [-1, 3, -2, 3], [-1, 2, 1, 2],
                           [-1, -1, -2, -1], [-1, -2, 3, -2], [2, -2, -2, 2], [1, 1, -1, 3]])
        code, report = _centers_report(tmp_path, x, y)
        assert code == 0
        assert report["variant"] == "EmptyN8" and report["span_rank"] == 10
        assert report["surviving"] == [] and report["empty"] is True

    def test_verdict_needs_no_numeric_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numeric stage ran for n >= 8")

        for name in ("candidates_n7", "pair_candidates_n7", "solve_quadric_system"):
            monkeypatch.setattr(loci, name, refuse)
        rec = generate_reconstruction(8, seed=2)
        assert centers_variety(rec.x, rec.y).surviving == ((rec.a_true, rec.b_true),)
        assert centers_variety(*_ninth_point_pair()).surviving == ()
