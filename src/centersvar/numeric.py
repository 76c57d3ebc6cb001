"""Numeric kernel: isolated zeros of quadric systems in P^3 plus certification.

The solver works at the level of linear algebra: it assembles the degree-5
multiplication matrix of the system (rows = quadric times degree-3 monomial),
reads the solution count off the corank, and recovers the points as joint
eigenvectors of multiplication operators restricted to the nullspace. A
degree-6 corank comparison rejects loci that have not stabilized, the
signature of a positive-dimensional component. Candidates are polished by
Gauss-Newton on all input forms and deduplicated projectively.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import Inconsistent, NotFinite
from .forms import Form, monomial_index, monomials, sym_from_quad
from .projective import ProjectivePoint

_RANK_RTOL = 1e-8


def _pow2_exponent(form: Form) -> int:
    """An e with the largest |coefficient| * 2**-e between 1/2 and 2."""
    return max((c.numerator.bit_length() - c.denominator.bit_length()
                for c in form.coeffs if c != 0), default=0)


def _scaled_float(c: Fraction, e: int) -> float:
    """float(c * 2**-e), without forming float(c), which may overflow."""
    if e >= 0:
        return c.numerator / (c.denominator << e)
    return (c.numerator << -e) / c.denominator


def form_floats(form: Form) -> np.ndarray:
    """Coefficients scaled by the exact power of two 2**-_pow2_exponent(form)."""
    e = _pow2_exponent(form)
    return np.array([_scaled_float(c, e) for c in form.coeffs], dtype=float)


def sym_floats(form: Form) -> np.ndarray:
    """Symmetric matrix of a quadric, scaled by the same power of two as form_floats."""
    e = _pow2_exponent(form)
    return np.array([[_scaled_float(c, e) for c in row] for row in sym_from_quad(form)])


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
    def from_vector(cls, v: np.ndarray, residual: float, real_tol: float = 1e-9,
                    exact: ProjectivePoint | None = None) -> "NumericPoint":
        v = np.asarray(v, dtype=complex)
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])
        v = v / phase
        v = v / np.linalg.norm(v)
        is_real = bool(np.max(np.abs(v.imag)) < real_tol)
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


def _multiplication_rows(coeff_rows: np.ndarray, target_degree: int) -> np.ndarray:
    """Products (quadric x monomial of degree target-2) in the degree basis."""
    monos2 = monomials(2)
    mult = monomials(target_degree - 2)
    index = monomial_index(target_degree)
    out = np.zeros((len(coeff_rows) * len(mult), len(index)))
    r = 0
    for row in coeff_rows:
        for mu in mult:
            for c, m in zip(row, monos2):
                if c != 0.0:
                    e = tuple(a + b for a, b in zip(m, mu))
                    out[r, index[e]] += c
            r += 1
    return out


def _numeric_rank(m: np.ndarray) -> tuple[int, np.ndarray]:
    u, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return 0, vh.conj().T
    r = int(np.sum(s > s[0] * _RANK_RTOL))
    return r, vh.conj().T[:, r:]


def _gauss_newton(syms: list[np.ndarray], point: np.ndarray, iters: int = 12) -> np.ndarray:
    p = point / np.linalg.norm(point)
    for _ in range(iters):
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
    """All isolated common zeros (real and complex) of quadrics in P^3.

    Requires at least three forms and a finite common zero locus; raises
    NotFinite when the degree-5 and degree-6 coranks disagree. If
    ``expected`` is given, a mismatch in the number of surviving points
    raises Inconsistent.
    """
    if len(forms) < 3:
        raise NotFinite("need at least three quadrics for a finite locus")
    if any(f.degree != 2 or f.nvars != 4 for f in forms):
        raise NotFinite("solve_quadric_system expects quadratic forms on P^3")
    coeffs = np.array([form_floats(f) for f in forms])
    scales = np.linalg.norm(coeffs, axis=1)
    if np.any(scales == 0):
        raise NotFinite("zero form in the system")
    coeffs = coeffs / scales[:, None]

    # corank at degree 5 counts the solutions once it agrees with degree 6
    rank5, null5 = _numeric_rank(_multiplication_rows(coeffs, 5))
    corank5 = len(monomials(5)) - rank5
    rank6, _ = _numeric_rank(_multiplication_rows(coeffs, 6))
    corank6 = len(monomials(6)) - rank6
    if corank5 != corank6:
        raise NotFinite(
            f"degree-5 corank {corank5} != degree-6 corank {corank6}",
            corank5=corank5, corank6=corank6)
    if corank5 == 0:
        return []

    index4 = monomial_index(4)
    index5 = monomial_index(5)
    picks = []
    for k in range(4):
        rows = np.zeros((len(index4), len(index5)))
        for m4, i in index4.items():
            e = list(m4)
            e[k] += 1
            rows[i, index5[tuple(e)]] = 1.0
        picks.append(rows)
    shifts = [rows @ null5 for rows in picks]  # 35 x corank each

    rng = np.random.default_rng(seed)
    c = rng.standard_normal(4)
    d = rng.standard_normal(4)
    d_ell = sum(ck * s for ck, s in zip(c, shifts))
    pinv = np.linalg.pinv(d_ell)
    b = pinv @ sum(dk * s for dk, s in zip(d, shifts))
    _, vecs = np.linalg.eig(b)

    idx_pow = [index4[tuple(4 if i == j else 0 for i in range(4))] for j in range(4)]
    syms = [sym_floats(f) / scales[i] for i, f in enumerate(forms)]

    candidates = []
    for col in range(vecs.shape[1]):
        ev4 = d_ell @ vecs[:, col]
        j = int(np.argmax(np.abs(ev4[idx_pow])))
        sq = []
        for k in range(4):
            e = [0, 0, 0, 0]
            e[j] += 3
            e[k] += 1
            sq.append(index4[tuple(e)])
        point = ev4[sq]
        if np.linalg.norm(point) == 0:
            continue
        candidates.append(_gauss_newton(syms, point.astype(complex)))

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
            corank=corank5, found=len(survivors))
    return survivors


def exact_newton_polish(forms: Sequence[Form], point: np.ndarray,
                        iters: int = 2) -> list[Fraction] | None:
    """Sharpen a real approximate zero with exact-arithmetic Newton steps.

    The largest coordinate is frozen to 1 and a well-conditioned triple of
    forms drives a square Newton iteration over Fractions; each step roughly
    squares the number of correct digits. The float pivot choice works on
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

    syms_exact = [sym_from_quad(f) for f in forms]
    syms_float = [sym_floats(f) for f in forms]
    best, best_det = None, 0.0
    jac_rows = [2.0 * (s @ real) for s in syms_float]
    for combo in combinations(range(len(forms)), 3):
        sub = np.array([[jac_rows[i][k] for k in unknowns] for i in combo])
        scale = np.prod([np.linalg.norm(r) or 1.0 for r in sub])
        d = abs(np.linalg.det(sub)) / scale
        if d > best_det:
            best, best_det = combo, d
    if best is None or best_det < 1e-12:
        return None

    x = [Fraction(v).limit_denominator(10 ** 17) for v in (real / real[j])]
    x[j] = Fraction(1)
    for _ in range(iters):
        jac = [[2 * sum(syms_exact[i][k][m] * x[m] for m in range(4)) for k in unknowns]
               for i in best]
        vals = [sum(x[r] * syms_exact[i][r][c] * x[c] for r in range(4) for c in range(4))
                for i in best]
        step = linalg.solve(jac, [-v for v in vals])
        if step is None:
            return None
        for pos, k in enumerate(unknowns):
            x[k] = (x[k] + step[pos]).limit_denominator(10 ** 60)
    return x


def certify_rational(forms: Sequence[Form], point: "NumericPoint",
                     max_denominator: int = 10 ** 30) -> ProjectivePoint | None:
    """Try to recognize a numeric zero as an exact rational point.

    Denominator-bounded reconstruction of the polished coordinates followed
    by exact substitution into every form; only a point that satisfies all
    of them exactly is returned. The bounds climb by factors of 10^4, so
    that some bound is both at least the true denominator q and small enough
    that the polishing error cannot favour another fraction (error below
    about 1 / (q * bound)); the default last bound, 10^30, is half of the 60
    digits exact_newton_polish keeps.
    """
    if not point.is_real:
        return None
    polished = exact_newton_polish(forms, point.array())
    if polished is None:
        return None
    bounds = [10 ** k for k in range(4, 30, 4) if 10 ** k < max_denominator]
    for bound in bounds + [max_denominator]:
        snapped = [c.limit_denominator(bound) for c in polished]
        if all(x == 0 for x in snapped):
            continue
        candidate = ProjectivePoint(snapped)
        if all(f(candidate.coords) == 0 for f in forms):
            return candidate
    return None
