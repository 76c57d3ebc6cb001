"""Numeric kernel: isolated zeros of quadric systems in P^3 plus certification.

The solver works at the level of linear algebra: it assembles the degree-5
multiplication matrix of the system (rows = quadric times degree-3 monomial),
reads the solution count off the corank, and recovers the points as joint
eigenvectors of multiplication operators restricted to the nullspace. A
multiplication matrix is filled in one scatter from a per-degree table of the
columns that (multiplier monomial) x (quadric monomial) lands in. A degree-6
corank comparison, read from the singular values alone, rejects loci that
have not stabilized, the signature of a positive-dimensional component.
Candidates are polished by Gauss-Newton on all input forms and deduplicated
projectively.

Certification reuses the exact and the scaled float symmetric matrices that
each Form builds once, so the solver and every certified point of a system
share them.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import Inconsistent, NotFinite
from .forms import Form, monomial_index, monomials, scaled_float
from .projective import ProjectivePoint

_RANK_RTOL = 1e-8
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


@lru_cache(maxsize=None)
def _product_columns(target_degree: int) -> np.ndarray:
    """Entry [i, j]: the degree-target column of multiplier monomial i times
    quadric monomial j (graded lex on both sides)."""
    index = monomial_index(target_degree)
    return np.array([[index[tuple(a + b for a, b in zip(m, mu))] for m in monomials(2)]
                     for mu in monomials(target_degree - 2)])


def _multiplication_rows(coeff_rows: np.ndarray, target_degree: int) -> np.ndarray:
    """Products (quadric x monomial of degree target-2) in the degree basis."""
    cols = _product_columns(target_degree)
    out = np.zeros((len(coeff_rows), len(cols), len(monomials(target_degree))))
    out[:, np.arange(len(cols))[:, None], cols] = coeff_rows[:, None, :]
    return out.reshape(-1, out.shape[2])


def _rank(s: np.ndarray) -> int:
    """Numeric rank from singular values in decreasing order."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * _RANK_RTOL))


def _numeric_null_space(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank and null-space basis of a matrix with at least as many rows as
    columns, whose thin SVD then has the full square V^H."""
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    r = _rank(s)
    return r, vh.conj().T[:, r:]


@lru_cache(maxsize=None)
def _shift_selectors() -> tuple[np.ndarray, ...]:
    """For k = 0..3, the 0/1 matrix taking degree-5 coordinates to the
    degree-4 coordinates of z_k times each degree-4 monomial."""
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
    return tuple(picks)


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

    # corank at degree 5 counts the solutions once it agrees with degree 6;
    # three or more forms give at least as many rows as columns at both degrees
    rank5, null5 = _numeric_null_space(_multiplication_rows(coeffs, 5))
    corank5 = len(monomials(5)) - rank5
    rank6 = _rank(np.linalg.svd(_multiplication_rows(coeffs, 6), compute_uv=False))
    corank6 = len(monomials(6)) - rank6
    if corank5 != corank6:
        raise NotFinite(
            f"degree-5 corank {corank5} != degree-6 corank {corank6}",
            corank5=corank5, corank6=corank6)
    if corank5 == 0:
        return []

    index4 = monomial_index(4)
    shifts = [rows @ null5 for rows in _shift_selectors()]  # 35 x corank each

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
