import hashlib
import json
import random
from itertools import product

import pytest

from centersvar import linalg
from centersvar.datagen import (_PLANE_BOX_POINTS, DEGENERATE_KINDS, _bracket_table,
                                _random_point, _side_generic, generate_degenerate,
                                generate_reconstruction)
from centersvar.errors import InvalidInput
from centersvar.invariants import fano15, fano15_lifted, g5_lifted, t6, t6_lifted
from centersvar.projective import (Configuration, ProjectivePoint, StabilityClass,
                                   apply_matrix, stability_class)


class TestReconstruction:
    def test_deterministic_per_seed(self):
        r1 = generate_reconstruction(6, seed=11)
        r2 = generate_reconstruction(6, seed=11)
        assert r1 == r2
        assert r1 != generate_reconstruction(6, seed=12)

    def test_scene_avoids_the_center_line(self):
        rec = generate_reconstruction(7, seed=1)
        for z in rec.z:
            assert linalg.rank([rec.aprime_center.coords, rec.bprime_center.coords,
                                z.coords]) == 3

    def test_a_scene_point_on_the_center_line_fails_the_side_check(self):
        # z = s a' + t b' images to t a on X's side and to s b on Y's: a zero
        # image is refused, and an image at the center zeroes its lifted
        # brackets, so the generator needs no collinearity redraw
        for seed in range(4):
            rec = generate_reconstruction(6, seed=seed)
            for s, t in ((1, 0), (0, 1), (2, -3), (-1, 4)):
                z = ProjectivePoint([s * p + t * q for p, q in zip(rec.aprime_center.coords,
                                                                   rec.bprime_center.coords)])
                scene = rec.z.points[:5] + (z,)
                for m, center, weight in ((rec.aprime, rec.a_true, t),
                                          (rec.bprime, rec.b_true, s)):
                    if weight == 0:
                        with pytest.raises(InvalidInput):
                            apply_matrix(m, z)
                        continue
                    side = Configuration([apply_matrix(m, p) for p in scene])
                    assert side[5] == center
                    assert not _side_generic(_bracket_table(side, center))

    def test_world_points_are_the_scene_projections(self):
        from centersvar.projective import apply_matrix
        rec = generate_reconstruction(5, seed=2)
        for z, x, y in zip(rec.z, rec.x, rec.y):
            assert apply_matrix(rec.aprime, z) == x
            assert apply_matrix(rec.bprime, z) == y

    def test_center_formulas(self):
        from centersvar.projective import apply_matrix
        rec = generate_reconstruction(6, seed=3)
        assert all(type(v) is int for row in rec.aprime + rec.bprime for v in row)
        assert apply_matrix(rec.aprime, rec.bprime_center) == rec.a_true
        assert apply_matrix(rec.bprime, rec.aprime_center) == rec.b_true

    @pytest.mark.parametrize("n,check", [
        (5, lambda r: g5_lifted(r.x, r.a_true).proportional(g5_lifted(r.y, r.b_true))),
        (6, lambda r: t6_lifted(r.x, r.a_true).proportional(t6_lifted(r.y, r.b_true))),
        (7, lambda r: fano15_lifted(r.x, r.a_true).proportional(fano15_lifted(r.y, r.b_true))),
    ])
    def test_invariant_proportionality(self, n, check):
        for seed in range(3):
            assert check(generate_reconstruction(n, seed=seed))

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidInput):
            generate_reconstruction(2, seed=0)
        with pytest.raises(InvalidInput):
            generate_reconstruction(5, seed=0, coord_bound=5)


class TestDegenerate:
    def test_on_conic_kills_every_six_subset_t5(self):
        cfg = generate_degenerate("OnConic", seed=1, n=7)
        for drop in range(7):
            assert t6(cfg.drop(drop)).values[5] == 0

    def test_four_collinear_is_stable_with_goepel_pattern(self):
        # the generator checks seven distinct points with at most four on a
        # line, and no stability class: those are STABLE by definition
        for seed in range(20):
            cfg = generate_degenerate("FourCollinear", seed=seed)
            assert stability_class(cfg) == StabilityClass.STABLE
            values = fano15(cfg).values
            nonzero = [v for v in values if v != 0]
            assert len(nonzero) == 3 and len(set(nonzero)) == 1

    def test_coincident_pair_kills_fano(self):
        cfg = generate_degenerate("CoincidentPair", seed=1)
        assert fano15(cfg).non_semistable

    def test_five_collinear_unstable(self):
        cfg = generate_degenerate("FiveCollinear", seed=1)
        assert stability_class(cfg) == StabilityClass.UNSTABLE

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            generate_degenerate("Nonsense", seed=0)

    @pytest.mark.parametrize("kind, n", [
        ("FourCollinear", 3), ("FourCollinear", 5), ("FourCollinear", 6),
        ("FourCollinear", 8), ("FiveCollinear", 4), ("FiveCollinear", 0),
        ("CoincidentPair", 1), ("CoincidentPair", 0), ("OnConic", 90), ("OnConic", 0),
    ])
    def test_unrealizable_n_is_rejected_up_front(self, kind, n):
        with pytest.raises(InvalidInput, match="cannot be realized"):
            generate_degenerate(kind, seed=0, n=n)

    @pytest.mark.parametrize("kind, n", [
        ("CoincidentPair", 2), ("FiveCollinear", 5), ("OnConic", 1), ("OnConic", 81),
    ])
    def test_smallest_and_largest_realizable_n(self, kind, n):
        assert generate_degenerate(kind, seed=0, n=n).n == n

    def test_box_point_count(self):
        box = {ProjectivePoint(v) for v in product(range(-9, 10), repeat=3) if any(v)}
        assert len(box) == _PLANE_BOX_POINTS

    @pytest.mark.parametrize("kind, most", [("CoincidentPair", _PLANE_BOX_POINTS + 1),
                                            ("FiveCollinear", _PLANE_BOX_POINTS)])
    def test_large_n_redraws_only_the_repeats(self, kind, most):
        cfg = generate_degenerate(kind, seed=0, n=300)
        distinct = len(set(cfg.points))
        assert cfg.n == 300 and distinct == (299 if kind == "CoincidentPair" else 300)
        with pytest.raises(InvalidInput, match="cannot be realized"):
            generate_degenerate(kind, seed=0, n=most + 1)

    @pytest.mark.parametrize("kind", ["CoincidentPair", "FiveCollinear"])
    def test_a_first_draw_without_repeats_is_kept(self, kind):
        # the first draw, as drawn when a repeat still redrew the whole set
        kept = 0
        for n in range(5, 40):
            for seed in range(4):
                rng = random.Random((kind, seed, n).__repr__())
                if kind == "CoincidentPair":
                    drawn = [ProjectivePoint(_random_point(rng, 2, 9)) for _ in range(n - 1)]
                    first = [drawn[0]] + drawn
                else:
                    cs = rng.sample(range(-9, 10), 5)
                    drawn = [ProjectivePoint((1, 0, c)) for c in cs] + [
                        ProjectivePoint(_random_point(rng, 2, 9)) for _ in range(n - 5)]
                    first = drawn
                if len(set(drawn)) == len(drawn):
                    kept += 1
                    assert list(generate_degenerate(kind, seed=seed, n=n).points) == first
        assert kept > 100

    @pytest.mark.parametrize("kind", ["CoplanarCenter", "CollinearCenter", "BiplanarCenter",
                                      "CenterAtWorldPoint", "GenericCenter"])
    def test_center_kinds_are_five_points_seeded_by_kind_and_seed(self, kind):
        assert generate_degenerate(kind, seed=3) == generate_degenerate(kind, seed=3, n=5)
        assert generate_degenerate(kind, seed=3)[0].n == 5
        for n in (0, 4, 6, 7):
            with pytest.raises(InvalidInput, match="cannot be realized"):
                generate_degenerate(kind, seed=3, n=n)

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    def test_draws_match_their_pinned_digests(self, kind):
        # the SHA-256 of the JSON list of (point coordinates, center
        # coordinates or None) drawn for seeds 0-19 at the default n
        draws = []
        for seed in range(20):
            out = generate_degenerate(kind, seed=seed)
            cfg, center = out if isinstance(out, tuple) else (out, None)
            draws.append([[p.coords for p in cfg.points],
                          None if center is None else center.coords])
        assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == DRAW_DIGESTS[kind]


DRAW_DIGESTS = {
    "CoincidentPair": "0c615a34dd073f27f68600ae15fa4769a078cc7d1761b5601022f0cd5edcce9f",
    "FourCollinear": "169090b07d2b4748b236b613f82eca62bdd28c009b8dfebf20800de2018c88cd",
    "FiveCollinear": "0e1f60bfda96e0dbe134aae8083744d15af1fb5852b1690e7521ef73be603662",
    "OnConic": "976e5651c7cb052949807868975edcc69c1b9bf64c3cc154282d6c8534786ed5",
    "CoplanarCenter": "4deefae7198552a6cd3bcaa6c72f5b9baa7da7edc68c0dd419d4e2d9e420d97b",
    "CollinearCenter": "1e0902aad9e792283b544d363474f8994a3b7296b51cc4dcf6e9f1578a75400c",
    "BiplanarCenter": "1907d1ada6a0e99f2fb8ee82a4a62b0e8caccf253316495b6cb14eac36f25f7b",
    "CenterAtWorldPoint": "6373604b93cb4a9ca00c4c58d9c37ac748fbc10c0edc547389f6aa6df71bcf4b",
    "GenericCenter": "0e381b71d1bd3c722149ec68943ca3d4ac612f80c3de8a9638d7c978f5b5a580",
}
