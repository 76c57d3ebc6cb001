"""Numeric kernel: the zeros of quadric systems in P^3 plus certification.

No float decides whether the zero set is finite or how many points to look for.
That verdict comes from the Hilbert function of the ideal in degrees 2 and 3,
computed exactly from ranks of integer matrices modulo the prime 2^61 - 1.
The floats then only locate the points: the degree-2 dual kernel of the
system is spanned by the Veronese vectors v_2(p) of its zeros, and the
eigenvalue method reads the points off the moment matrices of a kernel
basis. Candidates are polished by Gauss-Newton on all input forms and
deduplicated projectively.

Certification runs in Python ints and builds no Fraction. Newton steps on a
triple of forms sharpen a real candidate on dyadic iterates X / 2**e (e = 64,
128, 256), each step an exact integer 3 x 3 solve rounded to the next scale.
One continued-fraction pass per coordinate then gives the best rational
approximations under a ladder of denominator bounds, and each distinct
snapped point is substituted into every form in integers. The floats of a
quadric, coefficients and symmetric matrix alike, are its integer
coefficients scaled by an exact power of two, so no coefficient overflows.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import Inconsistent, NotFinite
from .forms import Form, moment_positions, monomial_index, monomials, scaled_float
from .projective import ProjectivePoint, canonical_coords

_PRIME = 2 ** 61 - 1
_REAL_TOL = 1e-9  # largest imaginary part of a unit vector that counts as real
_GAUSS_NEWTON_STEPS = 12
# exact Newton iterates are ints over 2**64, then 2**128 and 2**256 (two steps)
_DYADIC_EXPONENTS = (64, 128, 256)
# the reconstruction bounds 10^4, 10^8, ..., 10^28 and 10^30: fractions with
# denominators up to 10^30 lie at least 10^-60 apart, far above the 2**-256
# (about 10^-77) resolution of the polished iterate
_MAX_DENOMINATOR = 10 ** 30
_LADDER = tuple(10 ** k for k in range(4, 30, 4)) + (_MAX_DENOMINATOR,)


def form_floats(form: Form) -> np.ndarray:
    """Coefficients scaled by the exact power of two 2**-form.scale_exponent."""
    e = form.scale_exponent
    return np.array([scaled_float(c, e) for c in form.coeffs], dtype=float)


def sym_floats(form: Form) -> np.ndarray:
    """Symmetric matrix of a quadric, scaled by the same power of two as
    form_floats and read off them: halving a correctly rounded float is
    exact, so the off-diagonal entries are the correctly rounded halves."""
    m = form_floats(form)[np.array(moment_positions())]
    return (m + np.diag(np.diag(m))) / 2


@dataclass(frozen=True)
class NumericPoint:
    """A projective point with complex floating coordinates.

    Coordinates are unit-normalized with the largest entry made real
    positive; ``residual`` is the largest absolute value of the defining
    forms at the point. ``exact`` is set when the point was certified as
    rational by exact substitution.
    """

    coords: tuple[complex, ...]
    residual: float
    is_real: bool
    exact: ProjectivePoint | None = None

    @classmethod
    def from_vector(cls, v: np.ndarray, residual: float,
                    exact: ProjectivePoint | None = None) -> "NumericPoint":
        v = np.asarray(v, dtype=complex)
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])
        v = v / phase
        v = v / np.linalg.norm(v)
        is_real = bool(np.max(np.abs(v.imag)) < _REAL_TOL)
        return cls(tuple(v), residual, is_real, exact)

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)


def projective_distance(u: Sequence[complex], v: Sequence[complex]) -> float:
    """Sine of the angle between the coordinate lines spanned by u and v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 1.0
    c = abs(np.vdot(u, v)) / (nu * nv)
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c) ** 2)))


def _rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(_PRIME) of an integer matrix."""
    rows = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, _PRIME)
        top = [x * inv % _PRIME for x in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(x - f * y) % _PRIME for x, y in zip(rows[i][c:], top)]
        rank += 1
    return rank


def _hilbert_function(forms: Sequence[Form]) -> tuple[int, int]:
    """(H(2), H(3)) of the ideal of the quadrics: the codimensions of its
    degree-2 part, spanned by the forms, and of its degree-3 part, spanned by
    the products z_k * form, from ranks mod _PRIME of the primitive integer
    coefficient rows."""
    rows = [canonical_coords(f.coeffs) for f in forms]
    index3 = monomial_index(3)
    products = []
    for k in range(4):
        cols = [index3[tuple(e + (i == k) for i, e in enumerate(m))] for m in monomials(2)]
        for row in rows:
            product = [0] * len(index3)
            for c, col in zip(row, cols):
                product[col] = c
            products.append(product)
    return len(monomials(2)) - _rank_mod_p(rows), len(index3) - _rank_mod_p(products)


def _gauss_newton(syms: list[np.ndarray], point: np.ndarray) -> np.ndarray:
    p = point / np.linalg.norm(point)
    for _ in range(_GAUSS_NEWTON_STEPS):
        residuals = np.array([p @ s @ p for s in syms])
        jac = np.array([2.0 * (s @ p) for s in syms])
        # keep the step transverse to the point itself (projective gauge)
        jac = np.vstack([jac, p.conj()[None, :]])
        rhs = np.concatenate([residuals, [0.0]])
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        p = p - step
        norm = np.linalg.norm(p)
        if norm == 0:
            return point
        p = p / norm
    return p


def solve_quadric_system(forms: Sequence[Form], expected: int | None = None,
                         tol: float = 1e-9, seed: int = 0) -> list[NumericPoint]:
    """All common zeros (real and complex) of quadrics in P^3 whose zero set
    is certified finite.

    The certificate is exact. Write H(d) for the codimension of the degree-d
    part of the ideal the forms generate; H(2) and H(3) come from ranks over
    GF(2^61 - 1). A rank mod p is at most the rank over Q, so an unlucky
    prime can only overstate H and reject a good system, never accept a
    positive-dimensional one. Unless H(2) = H(3) <= 3 this raises NotFinite.
    When H(3) <= 3, Macaulay's bound gives H(d + 1) <= H(d) for every d >= 3,
    so the zero set is finite, of at most H(3) points counted with
    multiplicity (exactly H(3) once H(4) = H(3), by Gotzmann persistence).
    H(2) alone does not decide it: seven quadrics through a line also have
    H(2) = 3, but H(3) = 4.

    The points come from the degree-2 dual kernel, spanned by v_2(p) of the
    zeros p (the eigenvalue method): each of its H(2) basis vectors lambda,
    read as the moment matrix M[i][j] = lambda[e_i + e_j], gives the column
    M c of A_c and M d of A_d for random c, d, and each eigenvector v of
    pinv(A_c) A_d gives the point A_c v. Points are polished by Gauss-Newton
    on all forms and deduplicated projectively. If ``expected`` is given, a
    mismatch in the number of surviving points raises Inconsistent.
    """
    if len(forms) < 3:
        raise NotFinite("need at least three quadrics for a finite locus")
    if any(f.degree != 2 or f.nvars != 4 for f in forms):
        raise NotFinite("solve_quadric_system expects quadratic forms on P^3")
    coeffs = np.array([form_floats(f) for f in forms])
    scales = np.linalg.norm(coeffs, axis=1)
    if np.any(scales == 0):
        raise NotFinite("zero form in the system")
    h2, h3 = _hilbert_function(forms)
    if h2 != h3 or h3 > 3:
        raise NotFinite(f"H(2) = {h2} and H(3) = {h3}: the zero set is not certified finite",
                        h2=h2, h3=h3)
    if h2 == 0:
        return []

    # no rank cut: the exact H(2) says how many right singular vectors span the kernel
    kernel = np.linalg.svd(coeffs / scales[:, None])[2][len(monomials(2)) - h2:]
    moments = kernel[:, moment_positions()]  # h2 x 4 x 4
    rng = np.random.default_rng(seed)
    a_c = (moments @ rng.standard_normal(4)).T
    a_d = (moments @ rng.standard_normal(4)).T
    _, vecs = np.linalg.eig(np.linalg.pinv(a_c) @ a_d)

    syms = [sym_floats(f) / scales[i] for i, f in enumerate(forms)]
    candidates = [_gauss_newton(syms, p) for p in (a_c @ vecs).T if np.linalg.norm(p) > 0]

    survivors: list[NumericPoint] = []
    for p in candidates:
        residual = float(np.max(np.abs([p @ s @ p for s in syms])))
        if residual > tol:
            continue
        if any(projective_distance(p, q.array()) < 1e-6 for q in survivors):
            continue
        survivors.append(NumericPoint.from_vector(p, residual))
    survivors.sort(key=lambda q: tuple(np.round(np.asarray(q.coords).view(float), 6)))

    if expected is not None and len(survivors) != expected:
        raise Inconsistent(
            f"expected {expected} isolated zeros, found {len(survivors)}",
            h2=h2, found=len(survivors))
    return survivors


def _pivot_triple(jac: np.ndarray) -> tuple[int, int, int] | None:
    """The first triple of rows of jac (k x 3) whose determinant, relative to
    the product of the three row norms, is largest; None if that is below 1e-12.
    All triples go through one stacked det."""
    if len(jac) < 3:
        return None
    triples = np.array(list(combinations(range(len(jac)), 3)))
    norms = np.array([np.linalg.norm(r) or 1.0 for r in jac])[triples]
    d = np.abs(np.linalg.det(jac[triples])) / (norms[:, 0] * norms[:, 1] * norms[:, 2])
    best = int(np.argmax(d))
    if not d[best] >= 1e-12:
        return None
    return tuple(int(i) for i in triples[best])


def _integer_hessian(form: Form) -> list[list[int]]:
    """The Hessian of the integer form d * form (see Form.integer_terms) of a
    quadric: 2 * c on the diagonal for c z_i^2 and c off it for c z_i z_j."""
    h = [[0] * 4 for _ in range(4)]
    for c, exp in form.integer_terms[1]:
        i, k = (v for v, e in enumerate(exp) for _ in range(e))
        h[i][k] += c
        h[k][i] += c
    return h


def _round_div(a: int, b: int) -> int:
    """The integer nearest to a / b (b != 0), halves rounded up."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def exact_newton_polish(forms: Sequence[Form], point: np.ndarray) -> tuple[list[int], int] | None:
    """Sharpen a real approximate zero with Newton steps in integers.

    The largest coordinate is frozen to 1 and a well-conditioned triple of
    forms drives a square Newton iteration on dyadic iterates x = X / 2**e:
    X starts as the float point rounded at e = 64, and each step solves
    J(X) s = -f(X) on the triple exactly by an integer 3 x 3 elimination and
    rounds X + s to the next scale, e = 128 and then e = 256; each step
    roughly squares the number of correct digits. The forms enter as their
    integer forms d * f (d the lcm of the coefficient denominators), which
    have the same zeros, so no coefficient is ever rounded. The float pivot
    choice works on forms scaled by exact powers of two, so large
    coefficients cannot overflow. Returns (X, 2**256), the frozen coordinate
    included, or None for non-real input or a singular step.
    """
    p = np.asarray(point, dtype=complex)
    if np.max(np.abs(p.imag)) > 1e-6 * np.max(np.abs(p)):
        return None
    real = p.real / np.linalg.norm(p.real)
    j = int(np.argmax(np.abs(real)))
    unknowns = [k for k in range(4) if k != j]

    jac_float = np.array([2.0 * (sym_floats(f) @ real) for f in forms])
    best = _pivot_triple(jac_float[:, unknowns])
    if best is None:
        return None
    triple = [forms[i] for i in best]
    hessians = [_integer_hessian(f) for f in triple]

    e = _DYADIC_EXPONENTS[0]
    x = [round(math.ldexp(v, e)) for v in real / real[j]]
    x[j] = 1 << e
    for e_next in _DYADIC_EXPONENTS[1:]:
        # J(x) = J(X) / 2**e and f(x) = f(X) / 2**(2e), so the step in x is s / 2**e
        jac = [[sum(h[k][m] * x[m] for m in range(4)) for k in unknowns] for h in hessians]
        step = linalg.integer_solve(jac, [-f.integer_value(x) for f in triple])
        if step is None:
            return None
        numerators, d = step
        shift = e_next - e
        x = [v << shift for v in x]
        for k, s in zip(unknowns, numerators):
            x[k] += _round_div(s << shift, d)
        e = e_next
    return x, 1 << e


def _limit_denominators(n: int, d: int, bounds: Sequence[int]) -> list[tuple[int, int]]:
    """Fraction(n, d).limit_denominator(b) as a coprime (p, q), for each b of
    the ascending bounds, from one continued-fraction pass (d > 0).

    The pass is the one limit_denominator makes, resumed from bound to
    bound: the convergents p1/q1 are taken while q1 <= b, then the nearer of
    p1/q1 and the semiconvergent (p0 + k p1)/(q0 + k q1) with the largest
    denominator <= b wins, the convergent on a tie. An expansion that ends
    within the bound gives n/d itself.
    """
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    for b in bounds:
        while den:
            a = num // den
            q2 = q0 + a * q1
            if q2 > b:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            num, den = den, num - a * den
        if not den:
            out.append((p1, q1))
            continue
        k = (b - q0) // q1
        p2, q2 = p0 + k * p1, q0 + k * q1
        if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
            out.append((p1, q1))
        else:
            out.append((p2, q2))
    return out


def certify_rational(forms: Sequence[Form], point: "NumericPoint") -> ProjectivePoint | None:
    """Try to recognize a numeric zero as an exact rational point.

    Denominator-bounded reconstruction of the polished coordinates followed
    by exact substitution into every form; only a point that satisfies all
    of them exactly is returned. The bounds climb by factors of 10^4, so
    that some bound is both at least the true denominator q and small enough
    that the polishing error cannot favour another fraction (error below
    about 1 / (q * bound)). One continued-fraction pass per coordinate of
    the dyadic iterate of exact_newton_polish gives its limit_denominator
    at every bound, and each distinct snapped point is substituted once, in
    integers.
    """
    if not point.is_real:
        return None
    polished = exact_newton_polish(forms, point.array())
    if polished is None:
        return None
    numerators, den = polished
    checked = set()
    for snapped in zip(*(_limit_denominators(v, den, _LADDER) for v in numerators)):
        if snapped in checked:
            continue
        checked.add(snapped)
        common = math.lcm(*(q for _, q in snapped))
        ints = [p * (common // q) for p, q in snapped]
        if all(f.integer_value(ints) == 0 for f in forms):
            return ProjectivePoint(ints)
    return None
