"""Ground-truth instance generation.

Ambiguous center pairs exist exactly when the two world configurations admit
a common preimage scene one dimension up: points Z in P^4 and two full-rank
projections A', B' to P^3 with centers a', b' off the scene, none of the
scene points on the line joining the centers. Projecting the scene from
that line factors through both cameras, so

    a = A' b'   and   b = B' a'

is an explicit ambiguous pair for X = A' Z, Y = B' Z. The generator samples
integer scenes and matrices and rejects a draw until its exact predicates
hold. Each is read off one table per side, the brackets [x_i x_j x_k x_l]
and the lifted brackets [x_i x_j x_k a] (of Y and b on the other side):
every bracket is nonzero, on every 6-subset the two bracket relations are
nonzero and not proportional, and a frame identity of the lifted brackets
proves that a homography maps the image of X from a onto that of Y from b.
No image is projected and no homography is fit. Each camera's center is the
vector of its signed maximal minors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter, mul
from typing import Sequence

from .errors import DegenerateInput, GenerationFailed, InvalidInput
from .invariants import _T6_QUADS, fano15, t6_relation_of_brackets
from .loci import DegenerationTag, _relations_defect, classify_degeneration_n5
from .projective import (Configuration, ProjectivePoint, _frame_weights, _max_collinear,
                         apply_matrix, cofactors)

_MAX_ATTEMPTS = 4000


@dataclass(frozen=True)
class Reconstruction:
    """A P^4 scene with two projections and the ambiguous center pair."""

    z: Configuration
    aprime: tuple[tuple[int, ...], ...]
    bprime: tuple[tuple[int, ...], ...]
    aprime_center: ProjectivePoint
    bprime_center: ProjectivePoint
    x: Configuration
    y: Configuration
    a_true: ProjectivePoint
    b_true: ProjectivePoint
    seed: int
    coord_bound: int

    @property
    def n(self) -> int:
        return self.z.n


def _random_point(rng: random.Random, dim: int, bound: int) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(dim + 1)]
        if any(v):
            return v


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _bracket_table(x: Configuration, a: ProjectivePoint) -> dict[tuple[int, int, int, int], int]:
    """Every bracket the generator's predicates read, keyed by increasing
    index quadruples, with a as point n after the n points of X: [ijkl] =
    [x_i x_j x_k x_l] for l < n, and [ijkn] = [x_i x_j x_k a], the lifted
    bracket [ijk] of the side. Each is one four-term dot product with the
    cofactor vector c_ijk, built from the coordinates (projective.cofactors)
    once per triple; no Configuration cache is read or filled."""
    n = x.n
    pts = [p.coords for p in x.points] + [a.coords]
    table = {}
    for i, j, k in combinations(range(n), 3):
        c0, c1, c2, c3 = cofactors(pts[i], pts[j], pts[k])
        for l in range(k + 1, n + 1):
            z0, z1, z2, z3 = pts[l]
            table[i, j, k, l] = c0 * z0 + c1 * z1 + c2 * z2 + c3 * z3
    return table


def _side_generic(table: dict[tuple[int, int, int, int], int]) -> bool:
    """Every bracket of the side's table is nonzero: every four points of X
    span P^3, and no three images from a are collinear. So, for n >= 3, a is
    off X (a = x_i zeroes every [ijk]), the points are distinct, a lies on
    no line through two of them, and for n = 5, 6, 7 the image is STABLE.

    The images are not built. On project's chart k (a_k != 0) the image of
    x_i is a_k x_i - (x_i)_k a with coordinate k dropped, and
    det(images of x_i, x_j, x_l) = +-a_k^2 [x_i x_j x_l a]: three images are
    collinear exactly when their lifted bracket vanishes."""
    return all(table.values())


@lru_cache(maxsize=1)
def _subset_brackets(n: int) -> tuple[itemgetter, ...]:
    """For each 6-subset of range(n), in combinations order, the getter of its
    ten bracket keys (_T6_QUADS on the subset) from a side's table. Built
    once for the n last drawn."""
    return tuple(itemgetter(*((c[i], c[j], c[k], c[l]) for i, j, k, l in _T6_QUADS))
                 for c in combinations(range(n), 6))


def _relations_usable(tx: dict, ty: dict, n: int) -> bool:
    """Every 6-subset has bracket relations w^x, w^y that pass
    loci._relations_defect (nonzero and not proportional), so each builds
    its quadric pair. Each w is t6_relation_of_brackets of the subset's ten
    brackets, read off the side's table. No quadric is built: proportional
    relations always make the pair vanish, and the converse rests on the
    evidence in loci.quadric_pair_n6."""
    return all(_relations_defect(t6_relation_of_brackets(brackets(tx)),
                                 t6_relation_of_brackets(brackets(ty))) is None
               for brackets in _subset_brackets(n))


def _certified(tx: dict, ty: dict, n: int) -> bool:
    """Whether a homography maps the image of X from a onto the image of Y
    from b, over all n points, decided by the frame identity on each side's
    lifted brackets [ijk] (both tables pass _side_generic).

    Proof, 1-based. Let p_i be the images from a. On project's chart,
    det(p_i, p_j, p_k) = s p_i' p_j' p_k' [ijk] for nonzero scalars s (the
    chart) and p_i' (each image's scale). No three p_i are collinear, so
    p_1 .. p_4 is a frame, and by Cramer's rule
    p_j = (det(p_j p_2 p_3) p_1 + det(p_1 p_j p_3) p_2 + det(p_1 p_2 p_j) p_3)
    / det(p_1 p_2 p_3). So p_j has the coordinates
    ([j23] / [423], [1j3] / [143], [12j] / [124]) in that frame; times
    [423][143][124] they are

        v_j = ([j23][143][124], [423][1j3][124], [423][143][12j]).

    Every index appears equally often in each entry, so the scalars s and
    p_i' scale v_j as a whole. A homography H with H p_i = q_i for all i (the
    images from b) keeps frame coordinates, so v_j^x is proportional to
    v_j^y for every j >= 5. Conversely one H maps the frame p_1 .. p_4 onto
    the frame q_1 .. q_4, and it sends p_j to the point with p_j's frame
    coordinates, which is q_j exactly when v_j^x and v_j^y are proportional.
    Below five points there is no j to check: the frames, or fewer points in
    general position, always have a homography.

    The code reads 0-based increasing keys, [1 2 j] for [j23] and so on;
    the one sign this takes out of each entry is common to all three."""
    def frame_coordinates(t):
        a, b, c = t[1, 2, 3, n], t[0, 2, 3, n], t[0, 1, 3, n]
        return [(t[1, 2, j, n] * b * c, a * t[0, 2, j, n] * c, a * b * t[0, 1, j, n])
                for j in range(4, n)]

    return n < 5 or all(p * s == q * r
                        for u, v in zip(frame_coordinates(tx), frame_coordinates(ty))
                        for (p, q), (r, s) in combinations(zip(u, v), 2))


def _accepted(x: Configuration, y: Configuration, a: ProjectivePoint, b: ProjectivePoint) -> bool:
    """Whether the generator keeps a draw: its exact predicates, each read off
    one bracket table per side."""
    tx, ty = _bracket_table(x, a), _bracket_table(y, b)
    return (_side_generic(tx) and _side_generic(ty) and _relations_usable(tx, ty, x.n)
            and _certified(tx, ty, x.n))


def _camera_center(m: list[list[int]]) -> ProjectivePoint | None:
    """The center of a 4 x 5 integer camera, or None below rank 4.

    Entry k of the center is (-1)^k times the 4 x 4 minor of m without
    column k: its dot product with any row r of m is the 5 x 5 determinant
    with r stacked on m, which repeats a row. The five minors vanish
    together exactly below rank 4, and at rank 4 they span the kernel. They
    expand along the last row in the 3 x 3 minors of the first three rows,
    and those along the third row in the 2 x 2 minors of the first two, so
    each lower minor is built once (as in projective.cofactors)."""
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), (d0, d1, d2, d3, d4) = m
    m01, m02, m03, m04 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0, a0 * b4 - a4 * b0
    m12, m13, m14 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a1 * b4 - a4 * b1
    m23, m24, m34 = a2 * b3 - a3 * b2, a2 * b4 - a4 * b2, a3 * b4 - a4 * b3
    t012, t013 = c0 * m12 - c1 * m02 + c2 * m01, c0 * m13 - c1 * m03 + c3 * m01
    t014, t023 = c0 * m14 - c1 * m04 + c4 * m01, c0 * m23 - c2 * m03 + c3 * m02
    t024, t034 = c0 * m24 - c2 * m04 + c4 * m02, c0 * m34 - c3 * m04 + c4 * m03
    t123, t124 = c1 * m23 - c2 * m13 + c3 * m12, c1 * m24 - c2 * m14 + c4 * m12
    t134, t234 = c1 * m34 - c3 * m14 + c4 * m13, c2 * m34 - c3 * m24 + c4 * m23
    v = (d2 * t134 - d1 * t234 - d3 * t124 + d4 * t123,
         d0 * t234 - d2 * t034 + d3 * t024 - d4 * t023,
         d1 * t034 - d0 * t134 - d3 * t014 + d4 * t013,
         d0 * t124 - d1 * t024 + d2 * t014 - d4 * t012,
         d1 * t023 - d0 * t123 - d2 * t013 + d3 * t012)
    return ProjectivePoint(v) if any(v) else None


def generate_reconstruction(n: int, seed: int = 0, coord_bound: int = 10) -> Reconstruction:
    """Sample a self-certifying ambiguous instance with n points.

    Deterministic per (n, seed, coord_bound). Scene points and camera
    matrices have integer entries within the bound; candidates are rejected
    until the exact genericity predicates hold and the frame identity proves
    that a homography maps the image of X from a onto that of Y from b
    (_accepted). A scene point s a' + t b' on the center line images to t a
    and s b, which _side_generic rejects, or to zero, which apply_matrix does.
    """
    if n < 3:
        raise InvalidInput("generate_reconstruction needs n >= 3")
    if coord_bound < 10:
        raise InvalidInput("coord_bound must be at least 10")
    rng = random.Random((n, seed, coord_bound).__repr__())
    for _ in range(_MAX_ATTEMPTS):
        amat = _random_matrix(rng, 4, 5, coord_bound)
        bmat = _random_matrix(rng, 4, 5, coord_bound)
        aprime, bprime = _camera_center(amat), _camera_center(bmat)
        if aprime is None or bprime is None or aprime == bprime:
            continue
        z = Configuration([_random_point(rng, 4, coord_bound) for _ in range(n)])
        try:
            x = Configuration([apply_matrix(amat, p) for p in z])
            y = Configuration([apply_matrix(bmat, p) for p in z])
        except InvalidInput:
            continue
        a_true = apply_matrix(amat, bprime)
        b_true = apply_matrix(bmat, aprime)
        if not _accepted(x, y, a_true, b_true):
            continue
        return Reconstruction(
            z=z,
            aprime=tuple(map(tuple, amat)), bprime=tuple(map(tuple, bmat)),
            aprime_center=aprime, bprime_center=bprime,
            x=x, y=y, a_true=a_true, b_true=b_true,
            seed=seed, coord_bound=coord_bound)
    raise GenerationFailed(
        f"no generic instance with n={n} within {_MAX_ATTEMPTS} attempts; raise the bound")


DEGENERATE_KINDS = (
    "CoincidentPair", "FourCollinear", "FiveCollinear", "OnConic",
    "CoplanarCenter", "CollinearCenter", "BiplanarCenter",
    "CenterAtWorldPoint", "GenericCenter",
)

CENTER_KINDS = DEGENERATE_KINDS[4:]

# the points of P^2 with coordinates in [-9, 9]: (19^3 - 1) / 2 vectors up to
# sign, less the non-primitive ones, by Moebius inversion over their gcd
_PLANE_BOX_POINTS = 2881

# (lowest, highest) n of each kind: FourCollinear is a stable seven-point
# configuration, OnConic takes distinct parameters in [-40, 40], the other
# plane kinds draw distinct points from the box, and a center kind is five
# points of P^3.
_KIND_SIZES = {"CoincidentPair": (2, _PLANE_BOX_POINTS + 1), "FourCollinear": (7, 7),
               "FiveCollinear": (5, _PLANE_BOX_POINTS), "OnConic": (1, 81),
               **{kind: (5, 5) for kind in CENTER_KINDS}}


def _distinct_plane_points(rng: random.Random, points: Sequence) -> list[ProjectivePoint]:
    """The points in order, each one that repeats an earlier point of P^2
    redrawn from the box [-9, 9]^3 until it is new."""
    out: list[ProjectivePoint] = []
    seen: set[ProjectivePoint] = set()
    for v in points:
        p = ProjectivePoint(v)
        while p in seen:
            p = ProjectivePoint(_random_point(rng, 2, 9))
        seen.add(p)
        out.append(p)
    return out


def _random_space_five(rng: random.Random) -> Configuration:
    """Five points of [-9, 9]^4 that form a projective frame, redrawn until
    they do."""
    while True:
        c = Configuration([_random_point(rng, 3, 9) for _ in range(5)])
        try:
            _frame_weights(c.points)
            return c
        except DegenerateInput:
            continue


def generate_degenerate(kind: str, seed: int = 0, n: int | None = None):
    """Configurations realizing a named degeneration, exactly.

    Plane kinds (CoincidentPair, FourCollinear, FiveCollinear, OnConic)
    return a Configuration of n points in P^2 (seven by default), drawn from
    a generator seeded with (kind, seed, n). Center kinds (CoplanarCenter,
    CollinearCenter, BiplanarCenter, CenterAtWorldPoint, GenericCenter)
    return a pair (five points of P^3, center) hitting one case of the
    five-point degeneration classifier, drawn from a generator seeded with
    (kind, seed); their n is 5. An n the kind cannot realize (see
    _KIND_SIZES) raises InvalidInput.
    """
    if kind not in DEGENERATE_KINDS:
        raise InvalidInput(f"unknown degeneration kind {kind!r}")
    if n is None:
        n = 5 if kind in CENTER_KINDS else 7
    lowest, highest = _KIND_SIZES[kind]
    if not lowest <= n <= highest:
        raise InvalidInput(f"{kind} cannot be realized with n = {n} points")
    key = (kind, seed) if kind in CENTER_KINDS else (kind, seed, n)
    rng = random.Random(key.__repr__())
    if kind == "OnConic":
        ts = rng.sample(range(-40, 41), n)
        return Configuration([(1, t, t * t) for t in ts])
    if kind == "CoincidentPair":
        pts = _distinct_plane_points(rng, [_random_point(rng, 2, 9) for _ in range(n - 1)])
        return Configuration([pts[0]] + pts)
    if kind == "FiveCollinear":
        cs = rng.sample(range(-9, 10), 5)
        rest = [_random_point(rng, 2, 9) for _ in range(n - 5)]
        return Configuration(_distinct_plane_points(rng, [(1, 0, c) for c in cs] + rest))
    if kind == "FourCollinear":
        while True:
            cs = rng.sample(range(-9, 10), 4)
            rest = [_random_point(rng, 2, 9) for _ in range(n - 4)]
            cfg = Configuration([(1, 0, c) for c in cs] + rest)
            # seven distinct points, at most four on a line: STABLE by definition
            if len(set(cfg.points)) != n or _max_collinear(cfg.points) != 4:
                continue
            values = fano15(cfg).values
            nonzero = [v for v in values if v != 0]
            if len(nonzero) == 3 and len(set(nonzero)) == 1:
                return cfg

    want = {
        "CoplanarCenter": DegenerationTag.LINE_PLUS_CONIC,
        "CollinearCenter": DegenerationTag.LINE_PLUS_PLANE,
        "BiplanarCenter": DegenerationTag.THREE_LINES,
        "CenterAtWorldPoint": DegenerationTag.ALL_OF_P3,
        "GenericCenter": DegenerationTag.SMOOTH_CUBIC,
    }[kind]
    while True:
        x = _random_space_five(rng)
        a = _degenerate_center(rng, x, kind)
        if a is None:
            continue
        if classify_degeneration_n5(x, a) == want:
            return x, a


def _degenerate_center(rng: random.Random, x: Configuration, kind: str) -> ProjectivePoint | None:
    """A candidate center of the kind, or None. Only the construction is
    made here: generate_degenerate classifies every candidate, and one on a
    line through two world points (AllOfP3 or LinePlusPlane) is redrawn
    there unless that is the kind wanted."""
    def combo(points: Sequence[ProjectivePoint]):
        cs = [rng.randint(-9, 9) for _ in points]
        if not any(cs):
            return None
        coords = [sum(c * p[i] for c, p in zip(cs, points)) for i in range(4)]
        return ProjectivePoint(coords) if any(coords) else None

    if kind == "CenterAtWorldPoint":
        return x[1]
    if kind == "GenericCenter":
        return ProjectivePoint(_random_point(rng, 3, 9))
    if kind == "CollinearCenter":
        return combo(x.points[:2])
    if kind == "CoplanarCenter":
        return combo(x.points[:3])
    if kind == "BiplanarCenter":
        # a point of <x1,x2,x3> intersect <x1,x4,x5>: on the line through x1
        # and q, the point of <x2,x3> on the plane pi . z = 0 of x1, x4, x5;
        # x is a frame, so the line meets the plane once
        pi = cofactors(x[0].coords, x[3].coords, x[4].coords)
        s, t = sum(map(mul, pi, x[2].coords)), -sum(map(mul, pi, x[1].coords))
        q = ProjectivePoint([s * x[1][i] + t * x[2][i] for i in range(4)])
        return combo([x[0], q])
    return None
