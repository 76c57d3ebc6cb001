"""Exact output checker, independent of the program under test.

Every verdict is re-derived in integer arithmetic from the report and the
instance: an exact center pair (a, b) is accepted only when the images of X
from a and of Y from b are related by a plane homography over *all* n
points. Nothing here imports ``centersvar``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from instances import canonical, det

# A numeric candidate closer than this (sine of the angle between the two
# coordinate lines) to the true center counts as finding it.
NUMERIC_TOL = 1e-6

# Monomial order of a reported quadric: graded lexicographic in z0..z3.
QUADRIC_MONOMIALS = sorted({tuple(int(i == p) + int(i == q) for i in range(4))
                            for p in range(4) for q in range(4)}, reverse=True)


class CheckFailed(Exception):
    """The report contradicts the instance."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def parse_point(strings) -> tuple[int, ...]:
    """Canonical integer coordinates of a reported exact point."""
    fracs = [parse_fraction(s) for s in strings]
    scale = math.lcm(*(f.denominator for f in fracs))
    return canonical([int(f * scale) for f in fracs])


def project(x, a) -> tuple[int, ...]:
    """Image of x from the center a, in the chart of a nonzero coordinate of a."""
    k = max(i for i, c in enumerate(a) if c)
    image = [a[k] * x[j] - x[k] * a[j] for j in range(len(a)) if j != k]
    _require(any(image), "a world point coincides with its center")
    return tuple(image)


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _general(points) -> bool:
    return all(det(list(t)) for t in combinations(points, 3))


def _frame(points) -> list[list[int]]:
    """Integer matrix, up to scale, sending the standard frame to four points."""
    p1, p2, p3, p4 = points
    base = [p1, p2, p3]
    scales = [det([p4 if r == c else base[r] for r in range(3)]) for c in range(3)]
    return [[scales[c] * base[c][i] for c in range(3)] for i in range(3)]


def _adjugate(m) -> list[list[int]]:
    return [[(-1) ** (i + j) * det([[m[r][c] for c in range(3) if c != i]
                                    for r in range(3) if r != j])
             for j in range(3)] for i in range(3)]


def homography_fit(p, q) -> bool:
    """Whether one plane homography sends every p_i to q_i (projectively)."""
    quad = next((c for c in combinations(range(len(p)), 4)
                 if _general([p[i] for i in c])), None)
    _require(quad is not None, "no four image points are in general position")
    if not _general([q[i] for i in quad]):
        return False
    fq = _frame([q[i] for i in quad])
    inv_fp = _adjugate(_frame([p[i] for i in quad]))
    h = [[sum(fq[i][k] * inv_fp[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    for pi, qi in zip(p, q):
        image = [sum(h[r][c] * pi[c] for c in range(3)) for r in range(3)]
        if any(_cross(image, qi)):
            return False
    return True


def oracle(x, y, a, b) -> bool:
    """Whether (a, b) is an ambiguous center pair for all n points of (X, Y)."""
    return homography_fit([project(p, a) for p in x], [project(p, b) for p in y])


def quadric_value(coeffs, point) -> Fraction:
    return sum((parse_fraction(c) * math.prod(v ** e for v, e in zip(point, exp))
                for c, exp in zip(coeffs, QUADRIC_MONOMIALS)), Fraction(0))


def sym_value(sym, point) -> Fraction:
    return sum((parse_fraction(sym[i][j]) * point[i] * point[j]
                for i in range(4) for j in range(4)), Fraction(0))


def _numeric_distance(real, imag, exact) -> float:
    """Sine of the angle between a reported complex point and an exact one."""
    u = [complex(float(r), float(i)) for r, i in zip(real, imag)]
    if not all(math.isfinite(abs(c)) for c in u):
        return 1.0
    top = max(abs(c) for c in exact)
    v = [float(Fraction(c, top)) for c in exact]
    nu = math.sqrt(sum(abs(c) ** 2 for c in u))
    nv = math.sqrt(sum(c * c for c in v))
    if nu == 0:
        return 1.0
    cos = abs(sum(ui * vi for ui, vi in zip(u, v))) / (nu * nv)
    return math.sqrt(max(0.0, 1.0 - min(1.0, cos) ** 2))


def _same_point(numeric, exact) -> bool:
    return _numeric_distance(numeric["coords_real"], numeric["coords_imag"], exact) < NUMERIC_TOL


def check_surface_n6(report, inst) -> bool:
    """n = 6 report for the given center; returns False (never uncertified)."""
    _require(report.get("variant") == "SurfacePairN6", "wrong variant")
    _require(parse_point(report["given_center"]) == inst.a, "given center altered")
    _require(report["matched_b"] is not None, "no matched center")
    _require(parse_point(report["matched_b"]) == inst.b, "matched_b is not the true b")
    pairs = [(inst.a, inst.b)] + [(parse_point(p["a"]), parse_point(p["b"]))
                                  for p in report["sampled_pairs"]]
    for a, b in pairs:
        _require(sym_value(report["S_beta"]["sym"], a) == 0, "a is off S_beta")
        _require(sym_value(report["S_alpha"]["sym"], b) == 0, "b is off S_alpha")
        _require(oracle(inst.x, inst.y, a, b), "a reported pair fails the oracle")
    return False


def check_three_pairs_n7(report, inst) -> bool:
    """n = 7 report; returns True when the true pair is found only numerically."""
    _require(report.get("variant") == "ThreePairsN7", "wrong variant")
    for q in report["a_quadrics"]:
        _require(quadric_value(q, inst.a) == 0, "an a-quadric misses the true a")
    for q in report["b_quadrics"]:
        _require(quadric_value(q, inst.b) == 0, "a b-quadric misses the true b")
    certified = numeric = False
    for pair in report["pairs"]:
        ea, eb = pair["a"]["exact"], pair["b"]["exact"]
        if ea is not None and eb is not None:
            a, b = parse_point(ea), parse_point(eb)
            _require(oracle(inst.x, inst.y, a, b), "a certified pair fails the oracle")
            certified |= (a, b) == (inst.a, inst.b)
        numeric |= _same_point(pair["a"], inst.a) and _same_point(pair["b"], inst.b)
    _require(certified or numeric, "the true pair is missing")
    return not certified


def check_generate_n7(report, n: int = 7) -> bool:
    """Generated instance; returns False (never uncertified)."""
    x = [parse_point(p) for p in report["X"]["points"]]
    y = [parse_point(p) for p in report["Y"]["points"]]
    _require(len(x) == len(y) == n, "wrong number of points")
    truth = report["ground_truth"]
    a, b = parse_point(truth["a"]), parse_point(truth["b"])
    _require(oracle(x, y, a, b), "the generated pair fails the oracle")
    return False
