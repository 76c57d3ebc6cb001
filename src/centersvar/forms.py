"""Exact polynomial forms.

Two small algebras used throughout the loci computations:

* quaternary forms (homogeneous polynomials in z_0..z_3) stored as coefficient
  tuples in graded lexicographic monomial order; they are built directly from
  their linear factors (exact products and linear substitution), and only a
  form known by its values alone is fitted by interpolation; a form is
  evaluated in integers, with its coefficients and the point's coordinates
  each brought to a common denominator (one Fraction per value); a quadric
  surface is its quadratic form, and the symmetric matrix S of z^T S z is
  read off the coefficients (sym_from_quad) only where a report or float
  code needs it;
* binary forms (homogeneous polynomials in a curve parameter (t_0 : t_1))
  with exact arithmetic and gcd.
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


@lru_cache(maxsize=None)
def monomials(degree: int, nvars: int = 4) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the degree-d monomials, graded lexicographic."""
    exps = set()
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        exps.add(tuple(e))
    return tuple(sorted(exps, reverse=True))


@lru_cache(maxsize=None)
def monomial_index(degree: int, nvars: int = 4) -> dict[tuple[int, ...], int]:
    """Position of each degree-d exponent tuple in the graded lex order."""
    return {m: i for i, m in enumerate(monomials(degree, nvars))}


@lru_cache(maxsize=None)
def _product_positions(d1: int, d2: int, nvars: int = 4) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j]: the position among the degree d1 + d2 monomials of the
    product of monomial i of degree d1 and monomial j of degree d2."""
    index = monomial_index(d1 + d2, nvars)
    return tuple(tuple(index[tuple(a + b for a, b in zip(e, f))] for f in monomials(d2, nvars))
                 for e in monomials(d1, nvars))


def moment_positions() -> tuple[tuple[int, ...], ...]:
    """Entry [i][j]: the position of z_i * z_j among the quadric monomials, so
    that a vector lambda of degree-2 coordinates reads as the symmetric
    moment matrix lambda[moment_positions()]; v_2(a) reads as a a^T."""
    return _product_positions(1, 1)


def _exact(point: Sequence) -> list:
    """The coordinates with ints and Fractions kept as they are and anything
    else (a float, say) converted exactly to a Fraction."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]


def _power_product(exp: Sequence[int], coords: Sequence):
    """prod_i coords[i] ** exp[i]: an int at int coordinates."""
    v = 1
    for x, e in zip(coords, exp):
        if e:
            v *= x ** e
    return v


def mono_eval(exp: Sequence[int], point: Sequence) -> Fraction:
    return Fraction(_power_product(exp, _exact(point)))


def scaled_float(c: Fraction, e: int) -> float:
    """float(c * 2**-e), without forming float(c), which may overflow."""
    if e >= 0:
        return c.numerator / (c.denominator << e)
    return (c.numerator << -e) / c.denominator


@lru_cache(maxsize=None)
def _node_matrix_inverse(degree: int, nvars: int = 4) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the evaluation matrix at the lattice nodes.

    The nodes are the exponent tuples themselves (the principal lattice of
    the simplex), which is a unisolvent set for degree-d forms.
    """
    monos = monomials(degree, nvars)
    mat = [[mono_eval(m, node) for m in monos] for node in monos]
    inv = linalg.inverse(mat)
    assert inv is not None
    return tuple(tuple(row) for row in inv)


def fit_form(evaluate: Callable[[Sequence[int]], Fraction], degree: int,
             nvars: int = 4) -> tuple[Fraction, ...]:
    """Coefficients (graded lex) of the degree-d form with the given values.

    For forms known only by their values, such as a determinant with
    polynomial entries: the form is evaluated at the lattice nodes and the
    interpolation system is solved exactly. A form with known factors is
    built from them instead (``Form.__mul__``, ``Form.compose_linear``).
    """
    values = [Fraction(evaluate(node)) for node in monomials(degree, nvars)]
    inv = _node_matrix_inverse(degree, nvars)
    return tuple(sum((row[j] * values[j] for j in range(len(values))), Fraction(0))
                 for row in inv)


@dataclass(frozen=True)
class Form:
    """A homogeneous form with exact coefficients (ints or Fractions) in
    graded lex order."""

    degree: int
    coeffs: tuple[int | Fraction, ...]
    nvars: int = 4

    def __post_init__(self):
        if len(self.coeffs) != len(monomials(self.degree, self.nvars)):
            raise InvalidInput("coefficient vector has the wrong length")

    @cached_property
    def integer_terms(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(d, ((d * c, exponent), ...)) over the nonzero coefficients c, with d
        their common denominator, so that the form is (integer form) / d."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return d, tuple((c.numerator * (d // c.denominator), m)
                        for c, m in zip(self.coeffs, monomials(self.degree, self.nvars)) if c != 0)

    def integer_value(self, ints: Sequence[int]) -> int:
        """The integer form d * self (see integer_terms) at integer coordinates."""
        return sum(c * _power_product(m, ints) for c, m in self.integer_terms[1])

    def __call__(self, point: Sequence) -> Fraction:
        """The exact value, computed in integers: with the point written as
        (integers) / den, the form is homogeneous, so its value is the
        integer form at those integers over d * den**degree."""
        coords = _exact(point)
        den = math.lcm(*(x.denominator for x in coords))
        ints = [x.numerator * (den // x.denominator) for x in coords]
        return Fraction(self.integer_value(ints), self.integer_terms[0] * den ** self.degree)

    @cached_property
    def scale_exponent(self) -> int:
        """An e with the largest |coefficient| * 2**-e between 1/2 and 2."""
        return max((c.numerator.bit_length() - c.denominator.bit_length()
                    for c in self.coeffs if c != 0), default=0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def compose_linear(self, m: Sequence[Sequence]) -> "Form":
        """The form z -> self(M z), by direct substitution: the sum over the
        monomials z^e of c_e * prod_i (M_i . z)^(e_i), M_i the rows of M."""
        if self.degree == 0:
            return self
        rows = [Form(1, tuple(Fraction(v) for v in row), self.nvars) for row in m]
        total = [Fraction(0)] * len(self.coeffs)
        for c, exp in zip(self.coeffs, monomials(self.degree, self.nvars)):
            if c == 0:
                continue
            term = reduce(operator.mul, (rows[i] for i, e in enumerate(exp) for _ in range(e)))
            total = [t + c * v for t, v in zip(total, term.coeffs)]
        return Form(self.degree, tuple(total), self.nvars)

    def __mul__(self, other: "Form") -> "Form":
        """The exact product of two forms in the same variables; the product
        of two integer forms keeps int coefficients."""
        if self.nvars != other.nvars:
            raise InvalidInput("cannot multiply forms in different numbers of variables")
        out = [0] * len(monomials(self.degree + other.degree, self.nvars))
        for c, row in zip(self.coeffs, _product_positions(self.degree, other.degree, self.nvars)):
            if c == 0:
                continue
            for d, k in zip(other.coeffs, row):
                if d != 0:
                    out[k] += c * d
        return Form(self.degree + other.degree, tuple(out), self.nvars)

    def __add__(self, other: "Form") -> "Form":
        if (self.degree, self.nvars) != (other.degree, other.nvars):
            raise InvalidInput("cannot add forms of different shapes")
        return Form(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                    self.nvars)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scaled(-1)

    def scaled(self, s) -> "Form":
        s = Fraction(s)
        return Form(self.degree, tuple(c * s for c in self.coeffs), self.nvars)

    def primitive(self) -> "Form":
        """Int coefficients with gcd 1, first nonzero positive."""
        from .projective import canonical_coords
        if self.is_zero():
            return self
        return Form(self.degree, canonical_coords(self.coeffs), self.nvars)


def sym_from_quad(q: Form) -> list[list[Fraction]]:
    """Symmetric matrix of a quadratic form (off-diagonal halved)."""
    n = q.nvars
    sym = [[Fraction(0)] * n for _ in range(n)]
    for c, exp in zip(q.coeffs, monomials(2, n)):
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        i, j = idx
        if i == j:
            sym[i][i] = Fraction(c)
        else:
            sym[i][j] = Fraction(c) / 2
            sym[j][i] = Fraction(c) / 2
    return sym


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
    """Homogeneous form in (t_0, t_1); coeffs[i] multiplies t_0^i t_1^(d-i)."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
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
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return BinaryForm(out)

    def scaled(self, s) -> "BinaryForm":
        s = Fraction(s)
        return BinaryForm(c * s for c in self.coeffs)

    def _split(self) -> tuple[int, int, list[Fraction]]:
        """Factor t_0^low * t_1^high * core, core with nonzero ends."""
        if self.is_zero():
            raise InvalidInput("cannot split the zero form")
        lo = next(i for i, c in enumerate(self.coeffs) if c != 0)
        hi = next(i for i, c in enumerate(reversed(self.coeffs)) if c != 0)
        core = list(self.coeffs[lo: len(self.coeffs) - hi])
        return lo, hi, core


def _poly_rem(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    num = list(num)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / lead
        if q != 0:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    rem = num[: len(den) - 1] or [Fraction(0)]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while any(c != 0 for c in b):
        a, b = b, _poly_rem(a, b)
    lead = a[-1]
    return [c / lead for c in a] if lead != 0 else a


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
    return BinaryForm([Fraction(0)] * lo + core_gcd + [Fraction(0)] * hi)


def linear_root(f: BinaryForm) -> tuple[Fraction, Fraction]:
    """The projective root of a degree-1 binary form c_0 T_1 + c_1 T_0."""
    if f.degree != 1 or f.is_zero():
        raise InvalidInput("linear_root needs a nonzero linear form")
    c0, c1 = f.coeffs
    return (-c0, c1) if c1 != 0 else (Fraction(1), Fraction(0))
