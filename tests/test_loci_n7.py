import random
import warnings

import numpy as np
import pytest

from centersvar.datagen import generate_reconstruction
from centersvar.loci import (candidates_n7, centers_n_ge8, fano15_complex,
                             pair_candidates_n7, quadric_net,
                             weddle_curve_point)
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

    def test_omega_candidate_is_discarded(self):
        vertex, _ = weddle_curve_point(self.rec.x, seed=0)
        padded = list(self.cand.a_candidates) + [vertex]
        pairs = pair_candidates_n7(self.rec.x, self.rec.y,
                                   padded, list(self.cand.b_candidates))
        assert len(pairs) == 3
        for m in pairs:
            assert projective_distance(m.a.coords, vertex.coords) > 1e-3


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


class TestEightPlus:
    def test_generic_pairs_share_nothing(self):
        rng = random.Random(17)
        for _ in range(3):
            x, y = rand_config(rng, 8), rand_config(rng, 8)
            cert = centers_n_ge8(x, y)
            assert cert.surviving == ()
            assert len(cert.window_1) == 3 and len(cert.window_2) == 3

    def test_oracle_pair_survives_both_windows(self):
        rec = generate_reconstruction(8, seed=2)
        cert = centers_n_ge8(rec.x, rec.y)
        assert len(cert.surviving) == 1
        p1, p2 = cert.surviving[0]
        at = floats(rec.a_true)
        assert projective_distance(p1.a.coords, at) < 1e-7
        assert projective_distance(p2.a.coords, at) < 1e-7

    def test_shared_seven_prefix_only_is_empty(self):
        # first seven points share a reconstruction, the eighth pair does not
        rec = generate_reconstruction(7, seed=5)
        rng = random.Random(23)
        x = Configuration(list(rec.x.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        y = Configuration(list(rec.y.points) + [[rng.randint(-9, 9) or 2 for _ in range(4)]])
        cert = centers_n_ge8(x, y)
        assert cert.surviving == ()
