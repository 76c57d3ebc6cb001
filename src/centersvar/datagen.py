"""Ground-truth instance generation.

Ambiguous center pairs exist exactly when the two world configurations admit
a common preimage scene one dimension up: points Z in P^4 and two full-rank
projections A', B' to P^3 with centers a', b' off the scene, none of the
scene points on the line joining the centers. Projecting the scene from
that line factors through both cameras, so

    a = A' b'   and   b = B' a'

is an explicit ambiguous pair for X = A' Z, Y = B' Z. The generator samples
integer scenes and matrices, rejects until one exact genericity predicate
holds (the same for every n, plus nondegenerate quadric pairs on the
6-subsets the solvers use), and verifies the projected images by an exact
witness homography before returning the pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import DegenerateInput, GenerationFailed, Inconclusive, InvalidInput
from .invariants import fano15
from .projective import (Configuration, ProjectivePoint, StabilityClass,
                         apply_matrix, bracket, collinear, decide_equivalence,
                         no_three_collinear, normalizing_transform, on_line,
                         project, stability_class)

_MAX_ATTEMPTS = 4000


@dataclass(frozen=True)
class Reconstruction:
    """A P^4 scene with two projections and the ambiguous center pair."""

    z: Configuration
    aprime: tuple[tuple[Fraction, ...], ...]
    bprime: tuple[tuple[Fraction, ...], ...]
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
    for combo in combinations(range(c.n), 4):
        if bracket([c[i] for i in combo]) == 0:
            return False
    return True


def _side_generic(x: Configuration, a: ProjectivePoint) -> bool:
    """a is off X, every four points of X span P^3, and no three images from a
    are collinear. So the points are distinct, a lies on no line through two
    of them, and for n = 5, 6, 7 the image is STABLE."""
    return (a not in x.points and _all_quadruples_independent(x)
            and no_three_collinear([project(p, a) for p in x]))


def _generic_enough(x: Configuration, y: Configuration, a: ProjectivePoint,
                    b: ProjectivePoint, n: int) -> bool:
    """The genericity the solvers rely on: both sides generic, and for n >= 6
    every 6-subset whose quadric pair a solver builds is nondegenerate."""
    from .loci import _solver_subsets, quadric_pair_n6
    if not (_side_generic(x, a) and _side_generic(y, b)):
        return False
    for c in _solver_subsets(n):
        try:
            quadric_pair_n6(Configuration([x[i] for i in c]), Configuration([y[i] for i in c]))
        except DegenerateInput:
            return False
    return True


def _certified(x: Configuration, y: Configuration, a: ProjectivePoint,
               b: ProjectivePoint, n: int) -> bool:
    """Whether an exact witness homography maps the image of X from a onto
    the image of Y from b, over all n points; below four points general
    position, already checked, is enough."""
    if n < 4:
        return True
    p = Configuration([project(pt, a) for pt in x])
    q = Configuration([project(pt, b) for pt in y])
    try:
        return decide_equivalence(p, q).equivalent
    except Inconclusive:
        return False


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
        if linalg.rank(amat) != 4 or linalg.rank(bmat) != 4:
            continue
        aprime = ProjectivePoint(linalg.kernel_basis(amat)[0])
        bprime = ProjectivePoint(linalg.kernel_basis(bmat)[0])
        if aprime == bprime:
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
            aprime=tuple(tuple(Fraction(v) for v in row) for row in amat),
            bprime=tuple(tuple(Fraction(v) for v in row) for row in bmat),
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


def _random_space_five(rng: random.Random, bound: int = 9) -> Configuration:
    while True:
        c = Configuration([_random_point(rng, 3, bound) for _ in range(5)])
        try:
            normalizing_transform(c.points)
            return c
        except DegenerateInput:
            continue


def generate_degenerate(kind: str, seed: int = 0, n: int = 7):
    """Configurations realizing a named degeneration, exactly.

    Plane kinds (CoincidentPair, FourCollinear, FiveCollinear, OnConic)
    return a Configuration of n points in P^2. Center kinds (CoplanarCenter,
    CollinearCenter, BiplanarCenter, CenterAtWorldPoint, GenericCenter)
    return a pair (five points of P^3, center) hitting one case of the
    five-point degeneration classifier.
    """
    rng = random.Random((kind, seed, n).__repr__())
    if kind == "OnConic":
        ts = rng.sample(range(-40, 41), n)
        return Configuration([(1, t, t * t) for t in ts])
    if kind == "CoincidentPair":
        while True:
            pts = [_random_point(rng, 2, 9) for _ in range(n - 1)]
            cfg = Configuration([pts[0]] + pts)
            if len(set(cfg.points)) == n - 1:
                return cfg
    if kind == "FiveCollinear":
        while True:
            cs = rng.sample(range(-9, 10), 5)
            rest = [_random_point(rng, 2, 9) for _ in range(n - 5)]
            cfg = Configuration([(1, 0, c) for c in cs] + rest)
            if len(set(cfg.points)) == n:
                return cfg
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
    if kind not in DEGENERATE_KINDS:
        raise InvalidInput(f"unknown degeneration kind {kind!r}")

    from .loci import DegenerationTag, classify_degeneration_n5
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
        if a is None or any(on_line(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
            return None
        return a
    if kind == "BiplanarCenter":
        # a point of <x1,x2,x3> intersect <x1,x4,x5>, away from lines and points
        mat = [[x[1][i], x[2][i], -x[0][i], -x[3][i], -x[4][i]] for i in range(4)]
        kernel = linalg.kernel_basis(mat)
        if not kernel:
            return None
        s, t = kernel[0][0], kernel[0][1]
        coords = [s * x[1][i] + t * x[2][i] for i in range(4)]
        if not any(coords):
            return None
        q = ProjectivePoint(coords)
        a = combo([x[0], q])
        if a is None or any(on_line(a, x[i], x[j]) for i, j in combinations(range(5), 2)):
            return None
        return a
    return None
