"""Exact polynomial forms.

Two small algebras used throughout the loci computations:

* quaternary forms (homogeneous polynomials in z_0..z_3) stored as coefficient
  tuples in graded lexicographic monomial order; they are built directly from
  their linear factors (exact products and linear substitution, both of which
  keep int coefficients int), and no route of the package fits a form by
  interpolation (``fit_form`` is a reference for the tests); a form is
  evaluated in integers, a rational one at its coefficients and the point's
  coordinates brought to a common denominator; a quadric surface is its
  quadratic form, and no Fraction matrix of it is built: the n = 6 report
  writes the symmetric matrix S of z^T S z from the int coefficients (c on
  the diagonal, c / 2 off it), and float code reads S at a power-of-two
  scale (scaled_float);
* binary forms (homogeneous polynomials in a curve parameter (t_0 : t_1))
  with exact arithmetic, int coefficients kept int, and gcd.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

from . import linalg
from .errors import InvalidInput


# ---------------------------------------------------------------------------
# Quaternary forms


NVARS = 4  # every quaternary form is in z_0..z_3


@lru_cache(maxsize=None)
def monomial_indices(degree: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples i_1 <= ... <= i_d of the degree-d monomials
    z_{i_1} ... z_{i_d}, graded lexicographic (z_0 z_1 is (0, 1)): the
    lexicographic order of the index tuples is that order."""
    return tuple(combinations_with_replacement(range(NVARS), degree))


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the degree-d monomials, graded lexicographic."""
    return tuple(tuple(idx.count(i) for i in range(NVARS)) for idx in monomial_indices(degree))


@lru_cache(maxsize=None)
def monomial_index(degree: int) -> dict[tuple[int, ...], int]:
    """Position of each degree-d exponent tuple in the graded lex order."""
    return {m: i for i, m in enumerate(monomials(degree))}


@lru_cache(maxsize=None)
def _product_positions(d1: int, d2: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j]: the position among the degree d1 + d2 monomials of the
    product of monomial i of degree d1 and monomial j of degree d2."""
    index = monomial_index(d1 + d2)
    return tuple(tuple(index[tuple(a + b for a, b in zip(e, f))] for f in monomials(d2))
                 for e in monomials(d1))


def moment_positions() -> tuple[tuple[int, ...], ...]:
    """Entry [i][j]: the position of z_i * z_j among the quadric monomials, so
    that a vector lambda of degree-2 coordinates reads as the symmetric
    moment matrix lambda[moment_positions()]; v_2(a) reads as a a^T."""
    return _product_positions(1, 1)


def _exact(point: Sequence) -> list:
    """The coordinates with ints and Fractions kept as they are and anything
    else (a float, say) converted exactly to a Fraction."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]


# Kept for fit_form, which perfbench/tracing.py resolves by name.
def mono_eval(exp: Sequence[int], point: Sequence) -> Fraction:
    return Fraction(math.prod(x ** e for x, e in zip(_exact(point), exp)))


def scaled_float(c: Fraction, e: int) -> float:
    """float(c * 2**-e), without forming float(c), which may overflow."""
    if e >= 0:
        return c.numerator / (c.denominator << e)
    return (c.numerator << -e) / c.denominator


# Kept for fit_form, which perfbench/tracing.py resolves by name.
@lru_cache(maxsize=None)
def _node_matrix_inverse(degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the evaluation matrix at the lattice nodes.

    The nodes are the exponent tuples themselves (the principal lattice of
    the simplex), which is a unisolvent set for degree-d forms.
    """
    monos = monomials(degree)
    mat = [[mono_eval(m, node) for m in monos] for node in monos]
    inv = linalg.inverse(mat)
    assert inv is not None
    return tuple(tuple(row) for row in inv)


# No caller in the package: kept because perfbench/tracing.py resolves it by name.
def fit_form(evaluate: Callable[[Sequence[int]], Fraction], degree: int) -> tuple[Fraction, ...]:
    """Coefficients (graded lex) of the degree-d form with the given values.

    The form is evaluated at the lattice nodes and the interpolation system
    is solved exactly: a reference for forms the package builds from their
    factors (``Form.__mul__``, ``Form.compose_linear``).
    """
    values = [Fraction(evaluate(node)) for node in monomials(degree)]
    inv = _node_matrix_inverse(degree)
    return tuple(sum((row[j] * values[j] for j in range(len(values))), Fraction(0))
                 for row in inv)


@dataclass(frozen=True)
class Form:
    """A homogeneous form in z_0..z_3 with exact coefficients (ints or
    Fractions) in graded lex order."""

    degree: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(monomials(self.degree)):
            raise InvalidInput("coefficient vector has the wrong length")

    @cached_property
    def integer_terms(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(d, ((d * c, index tuple), ...)) over the nonzero coefficients c,
        with d their common denominator, so that the form is (integer form) / d;
        the index tuple (see monomial_indices) names the coordinates whose
        product is the monomial."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return d, tuple((c.numerator * (d // c.denominator), idx)
                        for c, idx in zip(self.coeffs, monomial_indices(self.degree)) if c != 0)

    def integer_value(self, ints: Sequence[int]) -> int:
        """The integer form d * self (see integer_terms) at integer
        coordinates: each coefficient times the coordinates of its monomial's
        index tuple (z_i * z_j for a quadric)."""
        total = 0
        for c, idx in self.integer_terms[1]:
            for i in idx:
                c *= ints[i]
            total += c
        return total

    @cached_property
    def integer_hessian(self) -> tuple[tuple[int, ...], ...]:
        """The Hessian of the integer form d * self (see integer_terms) of a
        quadric: 2 * c on the diagonal for c z_i^2 and c off it for c z_i z_j.
        Cached, so Newton steps on a form build it once."""
        h = [[0] * NVARS for _ in range(NVARS)]
        for c, (i, k) in self.integer_terms[1]:
            h[i][k] += c
            h[k][i] += c
        return tuple(map(tuple, h))

    def __call__(self, point: Sequence) -> Fraction:
        """The exact value, computed in integers: with the point written as
        (integers) / den, the form is homogeneous, so its value is the
        integer form at those integers over d * den**degree."""
        coords = _exact(point)
        den = math.lcm(*(x.denominator for x in coords))
        ints = [x.numerator * (den // x.denominator) for x in coords]
        return Fraction(self.integer_value(ints), self.integer_terms[0] * den ** self.degree)

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The coefficients times 2**-e as correctly rounded floats, with e
        chosen so that the largest |coefficient| * 2**-e lies between 1/2
        and 2: the scale is an exact power of two and no coefficient
        overflows. Cached, so every float view of a form reads it once."""
        e = max((c.numerator.bit_length() - c.denominator.bit_length()
                 for c in self.coeffs if c != 0), default=0)
        return tuple(scaled_float(c, e) for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def compose_linear(self, m: Sequence[Sequence]) -> "Form":
        """The form z -> self(M z), by direct substitution: the sum over the
        monomials z^e of c_e * prod_i (M_i . z)^(e_i), M_i the rows of M. An
        integer form composed with an integer matrix keeps int coefficients."""
        if self.degree == 0:
            return self
        rows = [Form(1, tuple(row)) for row in m]
        total = [0] * len(self.coeffs)
        for c, idx in zip(self.coeffs, monomial_indices(self.degree)):
            if c == 0:
                continue
            term = reduce(operator.mul, (rows[i] for i in idx))
            total = [t + c * v for t, v in zip(total, term.coeffs)]
        return Form(self.degree, tuple(total))

    def __mul__(self, other: "Form") -> "Form":
        """The exact product of two forms; the product of two integer forms
        keeps int coefficients."""
        out = [0] * len(monomials(self.degree + other.degree))
        for c, row in zip(self.coeffs, _product_positions(self.degree, other.degree)):
            if c == 0:
                continue
            for d, k in zip(other.coeffs, row):
                if d != 0:
                    out[k] += c * d
        return Form(self.degree + other.degree, tuple(out))

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise InvalidInput("cannot add forms of different degrees")
        return Form(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Form") -> "Form":
        return self + Form(other.degree, tuple(-c for c in other.coeffs))

    def scaled(self, s) -> "Form":
        s = Fraction(s)
        return Form(self.degree, tuple(c * s for c in self.coeffs))

    def primitive(self) -> "Form":
        """Int coefficients with gcd 1, first nonzero positive."""
        from .projective import canonical_coords
        if self.is_zero():
            return self
        return Form(self.degree, canonical_coords(self.coeffs))


def same_span(forms_a: Sequence[Form], forms_b: Sequence[Form]) -> bool:
    """Exact mutual containment of the two coefficient spans."""
    ra = linalg.rank([f.coeffs for f in forms_a])
    rb = linalg.rank([f.coeffs for f in forms_b])
    rab = linalg.rank([f.coeffs for f in forms_a] + [f.coeffs for f in forms_b])
    return ra == rb == rab


# ---------------------------------------------------------------------------
# Binary forms


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (t_0, t_1); coeffs[i] multiplies t_0^i t_1^(d-i).
    Int coefficients stay ints; any other is converted to a Fraction."""

    coeffs: tuple[int | Fraction, ...]

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", tuple(c if type(c) is int else Fraction(c)
                                                 for c in coeffs))
        if not self.coeffs:
            raise InvalidInput("binary form needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, t0, t1) -> Fraction:
        t0, t1 = Fraction(t0), Fraction(t1)
        d = self.degree
        return sum((c * t0 ** i * t1 ** (d - i) for i, c in enumerate(self.coeffs) if c != 0),
                   Fraction(0))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise InvalidInput("cannot add binary forms of different degrees")
        return BinaryForm(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return BinaryForm(out)

    def scaled(self, s) -> "BinaryForm":
        s = s if type(s) is int else Fraction(s)
        return BinaryForm(c * s for c in self.coeffs)

    # Kept for binary_gcd, which perfbench/tracing.py resolves by name.
    def _split(self) -> tuple[int, int, list[Fraction]]:
        """Factor t_0^low * t_1^high * core, core with nonzero ends."""
        if self.is_zero():
            raise InvalidInput("cannot split the zero form")
        lo = next(i for i, c in enumerate(self.coeffs) if c != 0)
        hi = next(i for i, c in enumerate(reversed(self.coeffs)) if c != 0)
        core = list(self.coeffs[lo: len(self.coeffs) - hi])
        return lo, hi, core


# Kept for binary_gcd, which perfbench/tracing.py resolves by name.
def _poly_rem(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    """The remainder of num by den (coefficients from the constant term up),
    dividing exactly in Fractions whether the coefficients are ints or not."""
    num = list(num)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        q = Fraction(num[k + len(den) - 1], lead)
        if q != 0:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    rem = num[: len(den) - 1] or [Fraction(0)]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


# Kept for binary_gcd, which perfbench/tracing.py resolves by name.
def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while any(c != 0 for c in b):
        a, b = b, _poly_rem(a, b)
    return a


# No caller in the package: kept because perfbench/tracing.py resolves it by name.
def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Monic gcd of binary forms; accounts for roots at (0:1) and (1:0)."""
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise InvalidInput("gcd of all-zero forms")
    lo = hi = None
    core_gcd: list[Fraction] | None = None
    for f in nonzero:
        flo, fhi, core = f._split()
        lo = flo if lo is None else min(lo, flo)
        hi = fhi if hi is None else min(hi, fhi)
        core_gcd = core if core_gcd is None else _poly_gcd(core_gcd, core)
    assert core_gcd is not None and lo is not None and hi is not None
    lead = core_gcd[-1]
    return BinaryForm([Fraction(0)] * lo + [Fraction(c, lead) for c in core_gcd]
                      + [Fraction(0)] * hi)
