"""Numeric kernel: the zeros of quadric systems in P^3 plus certification.

No float decides whether the zero set is finite or how many points to look for.
That verdict comes from the Hilbert function of the ideal in degrees 2 and 3,
computed exactly from ranks of integer matrices modulo the prime 2^61 - 1.
The floats then only locate the points: the degree-2 dual kernel of the
system is spanned by the Veronese vectors v_2(p) of its zeros, and the
eigenvalue method reads the points off the moment matrices of a kernel
basis. Candidates are polished by Gauss-Newton on all input forms and
deduplicated projectively.

Certification reuses the exact and the scaled float symmetric matrices that
each Form builds once, so the solver and every certified point of a system
share them.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
_EXACT_NEWTON_STEPS = 2
_MAX_DENOMINATOR = 10 ** 30


def form_floats(form: Form) -> np.ndarray:
    """Coefficients scaled by the exact power of two 2**-form.scale_exponent."""
    e = form.scale_exponent
    return np.array([scaled_float(c, e) for c in form.coeffs], dtype=float)


def sym_floats(form: Form) -> np.ndarray:
    """Symmetric matrix of a quadric, scaled by the same power of two as form_floats."""
    return np.array(form.scaled_sym)


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


def exact_newton_polish(forms: Sequence[Form], point: np.ndarray) -> list[Fraction] | None:
    """Sharpen a real approximate zero with exact-arithmetic Newton steps.

    The largest coordinate is frozen to 1 and a well-conditioned triple of
    forms drives a square Newton iteration over the rationals, each step
    solved exactly on the integer numerators of the iterate; each step
    roughly squares the number of correct digits. The float pivot choice works on
    forms scaled by exact powers of two, so large coefficients cannot
    overflow. Returns affine coordinates (the frozen one included) or None
    for non-real input.
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
    hessians = [[[2 * v for v in row] for row in forms[i].sym] for i in best]

    x = [Fraction(v).limit_denominator(10 ** 17) for v in (real / real[j])]
    x[j] = Fraction(1)
    for _ in range(_EXACT_NEWTON_STEPS):
        # with x = ints / den, the Jacobian at x is J(ints) / den and each value
        # f(x) is f(ints) / den**2, so the step solves J(ints) (den * step) = -f(ints)
        den = math.lcm(*(c.denominator for c in x))
        ints = [c.numerator * (den // c.denominator) for c in x]
        jac = [[sum(h[k][m] * ints[m] for m in range(4)) for k in unknowns] for h in hessians]
        scaled_step = linalg.solve(jac, [-forms[i](ints) for i in best])
        if scaled_step is None:
            return None
        for pos, k in enumerate(unknowns):
            x[k] = (x[k] + scaled_step[pos] / den).limit_denominator(10 ** 60)
    return x


def certify_rational(forms: Sequence[Form], point: "NumericPoint") -> ProjectivePoint | None:
    """Try to recognize a numeric zero as an exact rational point.

    Denominator-bounded reconstruction of the polished coordinates followed
    by exact substitution into every form; only a point that satisfies all
    of them exactly is returned. The bounds climb by factors of 10^4, so
    that some bound is both at least the true denominator q and small enough
    that the polishing error cannot favour another fraction (error below
    about 1 / (q * bound)); the last bound, 10^30, is half of the 60
    digits exact_newton_polish keeps.
    """
    if not point.is_real:
        return None
    polished = exact_newton_polish(forms, point.array())
    if polished is None:
        return None
    for bound in [10 ** k for k in range(4, 30, 4)] + [_MAX_DENOMINATOR]:
        snapped = [c.limit_denominator(bound) for c in polished]
        if all(x == 0 for x in snapped):
            continue
        candidate = ProjectivePoint(snapped)
        if all(f(candidate.coords) == 0 for f in forms):
            return candidate
    return None
