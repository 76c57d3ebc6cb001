"""Ground-truth instance generation.

Ambiguous center pairs exist exactly when the two world configurations admit
a common preimage scene one dimension up: points Z in P^4 and two full-rank
projections A', B' to P^3 with centers a', b' off the scene, none of the
scene points on the line joining the centers. Projecting the scene from
that line factors through both cameras, so

    a = A' b'   and   b = B' a'

is an explicit ambiguous pair for X = A' Z, Y = B' Z. The generator samples
integer scenes and matrices, rejects until one exact genericity predicate
holds (the same for every n, plus, on every 6-subset, two bracket
relations that are nonzero and not proportional), and verifies the
projected images by an exact witness homography before returning the pair.
Each camera's center is its one integer kernel vector, from one elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from . import linalg
from .errors import DegenerateInput, GenerationFailed, InvalidInput
from .invariants import fano15
from .loci import DegenerationTag, _quadric_relations_n6, classify_degeneration_n5
from .projective import (Configuration, ProjectivePoint, StabilityClass,
                         apply_matrix, cofactors, collinear, homography_fit,
                         normalizing_transform, project,
                         stability_class)

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


def _all_quadruples_independent(c: Configuration) -> bool:
    """Every bracket [ijkl] = c_ijk . x_l of the points is nonzero, read from
    the cofactor vectors the solvers' quadric pairs read too."""
    return all(sum(map(mul, c.cofactors_of(i, j, k), c[l].coords))
               for i, j, k, l in combinations(range(c.n), 4))


def _side_generic(x: Configuration, a: ProjectivePoint) -> bool:
    """a is off X, every four points of X span P^3, and no three images from a
    are collinear. So the points are distinct, a lies on no line through two
    of them, and for n = 5, 6, 7 the image is STABLE.

    The images are not built. On project's chart k (a_k != 0) the image of
    x_i is a_k x_i - (x_i)_k a with coordinate k dropped, and
    det(images of x_i, x_j, x_l) = +-a_k^2 [x_i x_j x_l a]: three images are
    collinear exactly when the lifted bracket, the cofactor vector c_ijl
    (filled by _all_quadruples_independent) dotted with a, vanishes."""
    return (a not in x.points and _all_quadruples_independent(x)
            and all(sum(map(mul, x.cofactors_of(*t), a.coords))
                    for t in combinations(range(x.n), 3)))


def _generic_enough(x: Configuration, y: Configuration, a: ProjectivePoint,
                    b: ProjectivePoint, n: int) -> bool:
    """The genericity the solvers rely on: both sides generic, and for n >= 6
    every 6-subset has bracket relations w^x, w^y that are nonzero and not
    proportional (_quadric_relations_n6), so each builds its quadric pair.
    No quadric is built: proportional relations always make the pair vanish,
    and the converse rests on the evidence in loci.quadric_pair_n6."""
    if not (_side_generic(x, a) and _side_generic(y, b)):
        return False
    for c in combinations(range(n), 6):
        try:
            _quadric_relations_n6(x.subset(c), y.subset(c))
        except DegenerateInput:
            return False
    return True


def _camera_center(m: list[list[int]]) -> ProjectivePoint | None:
    """The center of a 4 x 5 integer camera, its one integer kernel vector,
    or None below rank 4 (a kernel of dimension 5 - rank)."""
    kernel = linalg.integer_kernel(m)
    return ProjectivePoint(kernel[0]) if len(kernel) == 1 else None


def _certified(x: Configuration, y: Configuration, a: ProjectivePoint,
               b: ProjectivePoint, n: int) -> bool:
    """Whether an exact witness homography maps the image of X from a onto
    the image of Y from b, over all n points; below four points general
    position, already checked, is enough. Both sides pass _side_generic, so
    the first four images of each form a frame."""
    if n < 4:
        return True
    return homography_fit(Configuration([project(pt, a) for pt in x]),
                          Configuration([project(pt, b) for pt in y])) is not None


def generate_reconstruction(n: int, seed: int = 0, coord_bound: int = 10) -> Reconstruction:
    """Sample a self-certifying ambiguous instance with n points.

    Deterministic per (n, seed, coord_bound). Scene points and camera
    matrices have integer entries within the bound; candidates are rejected
    until the exact genericity predicate holds and an exact
    witness homography maps the image of X from a onto that of Y from b.
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
        zs = []
        ok = True
        for _ in range(n):
            for _ in range(50):
                z = ProjectivePoint(_random_point(rng, 4, coord_bound))
                if not collinear(aprime, bprime, z):
                    zs.append(z)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        z = Configuration(zs)
        try:
            x = Configuration([apply_matrix(amat, p) for p in z])
            y = Configuration([apply_matrix(bmat, p) for p in z])
        except InvalidInput:
            continue
        a_true = apply_matrix(amat, bprime)
        b_true = apply_matrix(bmat, aprime)
        if not _generic_enough(x, y, a_true, b_true, n):
            continue
        if not _certified(x, y, a_true, b_true, n):
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


def _random_space_five(rng: random.Random, bound: int = 9) -> Configuration:
    while True:
        c = Configuration([_random_point(rng, 3, bound) for _ in range(5)])
        try:
            normalizing_transform(c.points)
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
            if len(set(cfg.points)) != n:
                continue
            from .projective import _max_collinear
            if _max_collinear(cfg.points) != 4:
                continue
            if stability_class(cfg) != StabilityClass.STABLE:
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
        a = combo(x.points[:2])
        return a if a is not None and a not in x.points else None
    if kind == "CoplanarCenter":
        a = combo(x.points[:3])
        if a is None or any(collinear(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
            return None
        return a
    if kind == "BiplanarCenter":
        # a point of <x1,x2,x3> intersect <x1,x4,x5>, away from lines and points,
        # on the line through x1 and q, the point of <x2,x3> on the plane
        # pi . z = 0 of x1, x4, x5; x is a frame, so the line meets the plane once
        pi = cofactors(x[0].coords, x[3].coords, x[4].coords)
        s, t = sum(map(mul, pi, x[2].coords)), -sum(map(mul, pi, x[1].coords))
        q = ProjectivePoint([s * x[1][i] + t * x[2][i] for i in range(4)])
        a = combo([x[0], q])
        if a is None or any(collinear(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
            return None
        return a
    return None
