"""Numeric kernel: the zeros of quadric systems in P^3 plus certification.

No float decides whether the zero set is finite or how many points to look for.
That verdict comes from the Hilbert function of the ideal in degrees 2 and 3,
computed exactly from ranks modulo the prime 2^61 - 1: the quadrics are
brought to a reduced echelon basis mod p, whose size gives H(2), and H(3)
comes from the rank of the products z_k * (basis row), each a sparse row of
at most 11 - rank nonzero entries. The floats then only
locate the points: the degree-2 dual kernel of the system is spanned by the
Veronese vectors v_2(p) of its zeros, and the eigenvalue method reads the
points off the moment matrices of a kernel basis. Candidates are polished by
Gauss-Newton on all input forms, which stops at the first step shorter than
1e-13 (twelve at most), and deduplicated projectively.

Certification runs in Python ints and builds no Fraction. Newton steps on a
triple of forms sharpen a real candidate on dyadic iterates X / 2**e (e = 64,
128, 256), each step read off the one integer cofactor vector of the
augmented 3 x 4 system and rounded to the next scale; a triple that meets a
singular step gives way to the next best one. One continued-fraction pass
per coordinate then gives the best rational approximations under a ladder
of denominator bounds. A snapped point at which the first form is nonzero
modulo 2^61 - 1 is no zero and is skipped; every other distinct snapped
point is substituted into every form in integers.

The floats of a quadric, coefficients and symmetric matrix alike, are its
integer coefficients scaled by an exact power of two (Form.floats), so no
coefficient overflows. Each form converts its coefficients once; the solver
and the certification of every candidate read the same cached floats.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import Inconsistent, NotFinite
from .forms import Form, _product_positions, moment_positions, monomials
from .projective import ProjectivePoint, canonical_coords, cofactors

_PRIME = 2 ** 61 - 1
_REAL_TOL = 1e-9  # largest imaginary part of a unit vector that counts as real
_GAUSS_NEWTON_STEPS = 12  # the cap; a converged iteration stops earlier
# A Gauss-Newton step on a unit point this short has converged: the error it
# leaves is far below rounding. Shorter steps are no test of convergence, as
# steps of 1e-14 to 3e-14 are the rounding noise of the least-squares solve
# once the Jacobian's condition number nears 1e3.
_GAUSS_NEWTON_STOP = 1e-13
# exact Newton iterates are ints over 2**64, then 2**128 and 2**256 (two steps)
_DYADIC_EXPONENTS = (64, 128, 256)
# the reconstruction bounds 10^4, 10^8, ..., 10^28 and 10^30: fractions with
# denominators up to 10^30 lie at least 10^-60 apart, far above the 2**-256
# (about 10^-77) resolution of the polished iterate
_MAX_DENOMINATOR = 10 ** 30
_LADDER = tuple(10 ** k for k in range(4, 30, 4)) + (_MAX_DENOMINATOR,)
_MOMENTS = np.array(moment_positions())
_HALVE = np.where(np.eye(4, dtype=bool), 1.0, 0.5)


def sym_floats(coeffs: np.ndarray) -> np.ndarray:
    """The symmetric matrices (k x 4 x 4) of the quadrics with the float
    coefficient rows coeffs (k x 10): the diagonal holds the coefficients of
    z_i^2 and each off-diagonal entry half that of z_i z_j. Halving a
    correctly rounded float is exact, so the halves are correctly rounded
    too."""
    return coeffs[:, _MOMENTS] * _HALVE


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
    """Sine of the angle between the coordinate lines spanned by u and v:
    |u - (v^H u) v| for u and v scaled to unit norm, the part of u off the
    line of v, with no cancellation near 0; 1 if either is zero."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 1.0
    u, v = u / nu, v / nv
    return float(np.linalg.norm(u - np.vdot(v, u) * v))


def _echelon_mod_p(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """A reduced row echelon basis over GF(_PRIME) of the span of the rows of
    an integer matrix: each row has a 1 in its own pivot column and 0 in the
    others. Rows are reduced one at a time against the basis so far. Every
    basis row is 0 in the other rows' pivot columns, so a step computes only
    the columns that are not yet pivots and sets the pivot entries to 0 or 1
    directly."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    free = list(range(len(rows[0]))) if rows else []
    for row in rows:
        used = [(f, b) for f, b in ((row[c] % _PRIME, b) for c, b in zip(pivots, basis)) if f]
        if used:
            vals = [(row[i] - sum(f * b[i] for f, b in used)) % _PRIME for i in free]
        else:
            vals = [row[i] % _PRIME for i in free]
        k = next((k for k, v in enumerate(vals) if v), None)
        if k is None:
            continue
        c = free.pop(k)
        inv = pow(vals.pop(k), -1, _PRIME)
        new = [0] * len(row)
        new[c] = 1
        for i, v in zip(free, vals):
            new[i] = v * inv % _PRIME
        for b in basis:
            f = b[c]
            if f:
                for i in free:
                    b[i] = (b[i] - f * new[i]) % _PRIME
                b[c] = 0
        basis.append(new)
        pivots.append(c)
    return basis


def _hilbert_function(forms: Sequence[Form]) -> tuple[int, int]:
    """(H(2), H(3)) of the ideal of the quadrics: the codimensions of its
    degree-2 part, spanned by the forms, and of its degree-3 part, spanned by
    the products z_k * form.

    Both come from ranks over GF(_PRIME) of the primitive integer
    coefficient rows. The rows are brought to a reduced echelon basis, whose
    size is the rank of the degree-2 part. The degree-3 part is spanned by
    the products z_k * (basis row) just as well as by z_k * (input row), as
    the two sets of rows span the same space mod _PRIME; there are fewer of
    them when the forms are dependent, and each has at most 11 - rank
    nonzero entries (4 for seven independent quadrics).

    The products are ranked as sparse rows {column: value}, keyed on each
    row's leading column. The monomial order is multiplicative, so
    z_k * (basis row) leads with z_k times the row's pivot monomial, with
    coefficient 1: the first product with each leading column is a pivot
    row as it is (so pivot rows stay sparse), and each other one is reduced
    until it is zero or leads in a new column, where it becomes a pivot row
    scaled to lead with 1."""
    basis = _echelon_mod_p([canonical_coords(f.coeffs) for f in forms])
    pivots: dict[int, dict[int, int]] = {}
    later = []
    for cols in _product_positions(1, 2):  # z_k times each quadric monomial
        for row in basis:
            product = {col: c for c, col in zip(row, cols) if c}
            lead = min(product)
            if lead in pivots:
                later.append(product)
            else:
                pivots[lead] = product
    for product in later:
        while product:
            lead = min(product)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(product[lead], -1, _PRIME)
                pivots[lead] = {col: c * inv % _PRIME for col, c in product.items()}
                break
            f = product.pop(lead)
            for col, c in pivot.items():
                if col != lead:
                    v = (product.get(col, 0) - f * c) % _PRIME
                    if v:
                        product[col] = v
                    else:
                        del product[col]
    return len(monomials(2)) - len(basis), len(monomials(3)) - len(pivots)


def _gauss_newton(syms: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the forms with symmetric matrices syms (k x 4 x 4),
    from a point normalized to a unit vector. It stops after the first step
    no longer than _GAUSS_NEWTON_STOP, or after _GAUSS_NEWTON_STEPS steps."""
    p = point / np.linalg.norm(point)
    for _ in range(_GAUSS_NEWTON_STEPS):
        sp = syms @ p
        # keep the step transverse to the point itself (projective gauge)
        jac = np.vstack([2.0 * sp, p.conj()[None, :]])
        rhs = np.append(sp @ p, 0.0)
        step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        p = p - step
        norm = np.linalg.norm(p)
        if norm == 0:
            return point
        p = p / norm
        if np.linalg.norm(step) <= _GAUSS_NEWTON_STOP:
            break
    return p


@lru_cache(maxsize=64)
def _directions(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The random directions (c, d) of the eigenvalue method for a seed,
    drawn once per seed and read-only, as every call shares them."""
    rng = np.random.default_rng(seed)
    c, d = rng.standard_normal(4), rng.standard_normal(4)
    c.flags.writeable = d.flags.writeable = False
    return c, d


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
    on all forms, each form's symmetric matrix scaled to unit coefficient
    norm and all of them stacked in one k x 4 x 4 array; the iteration stops
    after the first step no longer than 1e-13 on the unit point, twelve
    steps at most (see _GAUSS_NEWTON_STOP). Points with a residual above tol
    are dropped, and the rest deduplicated projectively. If ``expected`` is
    given, a mismatch in the number of surviving points raises Inconsistent.
    """
    if len(forms) < 3:
        raise NotFinite("need at least three quadrics for a finite locus")
    if any(f.degree != 2 for f in forms):
        raise NotFinite("solve_quadric_system expects quadratic forms on P^3")
    coeffs = np.array([f.floats for f in forms])
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
    coeffs = coeffs / scales[:, None]
    kernel = np.linalg.svd(coeffs)[2][len(monomials(2)) - h2:]
    moments = kernel[:, _MOMENTS]  # h2 x 4 x 4
    c, d = _directions(seed)
    a_c = (moments @ c).T
    a_d = (moments @ d).T
    _, vecs = np.linalg.eig(np.linalg.pinv(a_c) @ a_d)

    syms = sym_floats(coeffs)
    candidates = [_gauss_newton(syms, p) for p in (a_c @ vecs).T if np.linalg.norm(p) > 0]

    survivors: list[NumericPoint] = []
    for p in candidates:
        residual = float(np.max(np.abs((syms @ p) @ p)))
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


def _pivot_triples(jac: np.ndarray) -> list[tuple[int, int, int]]:
    """The triples of rows of jac (k x 3) whose determinant, relative to the
    product of the three row norms, is at least 1e-12, largest first (the
    first triple first on a tie). The row norms come from one call, and all
    triples go through one stacked det."""
    if len(jac) < 3:
        return []
    triples = list(combinations(range(len(jac)), 3))
    rows = np.array(triples)
    norms = np.linalg.norm(jac, axis=1)
    norms[norms == 0] = 1.0
    norms = norms[rows]
    d = (np.abs(np.linalg.det(jac[rows])) / (norms[:, 0] * norms[:, 1] * norms[:, 2])).tolist()
    kept = [(s, t) for s, t in zip(d, triples) if s >= 1e-12]
    return [t for _, t in sorted(kept, key=lambda st: -st[0])]  # stable: ties keep order


def _round_div(a: int, b: int) -> int:
    """The integer nearest to a / b (b != 0), halves rounded up."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def exact_newton_polish(forms: Sequence[Form], point: np.ndarray) -> tuple[list[int], int] | None:
    """Sharpen a real approximate zero with Newton steps in integers.

    The largest coordinate is frozen to 1 and a well-conditioned triple of
    forms (each with its cached Form.integer_hessian) drives a square Newton
    iteration on dyadic iterates x = X / 2**e: X starts as the float point
    rounded at e = 64, and each step solves J(X) s = -f(X) on the triple
    exactly and rounds X + s to the next scale, e = 128 and then e = 256;
    each step roughly squares the number of correct digits. The step is one
    integer cofactor vector c of the three augmented rows (J_i | f_i):
    J (c_0, c_1, c_2) + f c_3 = 0, so s = (c_0, c_1, c_2) / c_3, and the
    step is singular exactly when c_3 = +-det J is 0. The forms enter as their
    integer forms d * f (d the lcm of the coefficient denominators), which
    have the same zeros, so no coefficient is ever rounded. The float pivot
    choice works on forms scaled by exact powers of two, so large
    coefficients cannot overflow. The triples are tried in descending float
    score (_pivot_triples) until one takes every step nonsingular, as the
    exact Jacobian of the best one can be singular at a simple zero. Returns
    (X, 2**256), the frozen coordinate included, or None for non-real input
    or when every triple meets a singular step.
    """
    p = np.asarray(point, dtype=complex)
    if np.max(np.abs(p.imag)) > 1e-6 * np.max(np.abs(p)):
        return None
    real = p.real / np.linalg.norm(p.real)
    j = int(np.argmax(np.abs(real)))
    unknowns = [k for k in range(4) if k != j]

    jac_float = 2.0 * (sym_floats(np.array([f.floats for f in forms])) @ real)
    start = [round(math.ldexp(v, _DYADIC_EXPONENTS[0])) for v in real / real[j]]
    start[j] = 1 << _DYADIC_EXPONENTS[0]
    for best in _pivot_triples(jac_float[:, unknowns]):
        triple = [(forms[i], forms[i].integer_hessian) for i in best]
        x, e = start, _DYADIC_EXPONENTS[0]
        for e_next in _DYADIC_EXPONENTS[1:]:
            # J(x) = J(X) / 2**e and f(x) = f(X) / 2**(2e), so the step in x is s / 2**e.
            # The cofactor vector c of the augmented rows (J_i | f_i) has
            # J (c_0, c_1, c_2) + f c_3 = 0, so s = (c_0, c_1, c_2) / c_3, c_3 = +-det J.
            c = cofactors(*([sum(h[k][m] * x[m] for m in range(4)) for k in unknowns]
                            + [f.integer_value(x)] for f, h in triple))
            if not c[3]:
                break
            shift = e_next - e
            x = [v << shift for v in x]
            for k, s in zip(unknowns, c):
                x[k] += _round_div(s << shift, c[3])
            e = e_next
        else:
            return x, 1 << e
    return None


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


def _cleared_mod_p(snapped: Sequence[tuple[int, int]]) -> list[int]:
    """The point (p_0/q_0 : ... : p_3/q_3) with its denominators cleared by
    their product M = q_0 q_1 q_2 q_3, w_i = p_i * prod_{j != i} q_j, reduced
    mod _PRIME. An integer quadric f has f(w) = M^2 f(p / q) in integers, so
    f(w) is nonzero mod _PRIME only if f(p / q) is nonzero. This holds for
    every q; a q_i divisible by _PRIME only makes the test weaker."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = snapped
    q01, q23 = q0 * q1 % _PRIME, q2 * q3 % _PRIME
    return [p0 * q1 * q23 % _PRIME, p1 * q0 * q23 % _PRIME,
            p2 * q3 * q01 % _PRIME, p3 * q2 * q01 % _PRIME]


def certify_rational(forms: Sequence[Form], point: "NumericPoint") -> ProjectivePoint | None:
    """Try to recognize a numeric zero as an exact rational point.

    Denominator-bounded reconstruction of the polished coordinates followed
    by exact substitution into every form; only a point that satisfies all
    of them exactly is returned. The bounds climb by factors of 10^4, so
    that some bound is both at least the true denominator q and small enough
    that the polishing error cannot favour another fraction (error below
    about 1 / (q * bound)). One continued-fraction pass per coordinate of
    the dyadic iterate of exact_newton_polish gives its limit_denominator
    at every bound. Each distinct snapped point p / q is first tried modulo
    _PRIME: where the first form is nonzero at its cleared coordinates
    (_cleared_mod_p), it is nonzero at p / q and the snap is skipped, before
    any lcm or big-integer substitution. Every other snap is substituted
    once into every form, in integers, and only an exact zero of all of
    them is returned.
    """
    if not point.is_real:
        return None
    polished = exact_newton_polish(forms, point.array())
    if polished is None:
        return None
    numerators, den = polished
    first = forms[0]
    checked = set()
    for snapped in zip(*(_limit_denominators(v, den, _LADDER) for v in numerators)):
        if snapped in checked:
            continue
        checked.add(snapped)
        if first.integer_value(_cleared_mod_p(snapped)) % _PRIME:
            continue
        common = math.lcm(*(q for _, q in snapped))
        ints = [p * (common // q) for p, q in snapped]
        if all(f.integer_value(ints) == 0 for f in forms):
            return ProjectivePoint(ints)
    return None
