"""Exact polynomial forms.

Two small algebras used throughout the loci computations:

* quaternary forms (homogeneous polynomials in z_0..z_3) stored as coefficient
  tuples in graded lexicographic monomial order; they are built directly from
  their linear factors (exact products and linear substitution), and only a
  form known by its values alone is fitted by interpolation;
* binary forms (homogeneous polynomials in a curve parameter (t_0 : t_1))
  with exact arithmetic and gcd.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
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


def mono_eval(exp: Sequence[int], point: Sequence) -> Fraction:
    v = Fraction(1)
    for x, e in zip(point, exp):
        if e:
            v *= Fraction(x) ** e
    return v


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
    """A homogeneous form with exact coefficients in graded lex order."""

    degree: int
    coeffs: tuple[Fraction, ...]
    nvars: int = 4

    def __post_init__(self):
        if len(self.coeffs) != len(monomials(self.degree, self.nvars)):
            raise InvalidInput("coefficient vector has the wrong length")

    def __call__(self, point: Sequence) -> Fraction:
        return sum((c * mono_eval(m, point)
                    for c, m in zip(self.coeffs, monomials(self.degree, self.nvars)) if c != 0),
                   Fraction(0))

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
        """The exact product of two forms in the same variables."""
        if self.nvars != other.nvars:
            raise InvalidInput("cannot multiply forms in different numbers of variables")
        index = monomial_index(self.degree + other.degree, self.nvars)
        out = [0] * len(index)
        other_terms = [(d, f) for d, f in zip(other.coeffs, monomials(other.degree, other.nvars))
                       if d != 0]
        for c, e in zip(self.coeffs, monomials(self.degree, self.nvars)):
            if c == 0:
                continue
            for d, f in other_terms:
                out[index[tuple(a + b for a, b in zip(e, f))]] += c * d
        return Form(self.degree + other.degree, tuple(Fraction(v) for v in out), self.nvars)

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
        """Integer coefficients with gcd 1, first nonzero positive."""
        from .projective import canonical_coords
        if self.is_zero():
            return self
        return Form(self.degree,
                    tuple(Fraction(c) for c in canonical_coords(self.coeffs)), self.nvars)


def quad_from_sym(sym: Sequence[Sequence]) -> Form:
    """Quadratic form z^T S z from a symmetric matrix."""
    n = len(sym)
    coeffs = []
    for exp in monomials(2, n):
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        i, j = idx
        coeffs.append(Fraction(sym[i][j]) if i == j else Fraction(sym[i][j]) + Fraction(sym[j][i]))
    return Form(2, tuple(coeffs), n)


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


def span_rank(forms: Iterable[Form]) -> int:
    return linalg.rank([f.coeffs for f in forms])


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

    def normalized(self) -> "BinaryForm":
        """Leading (highest t_0-power) nonzero coefficient scaled to 1."""
        lead = next((c for c in reversed(self.coeffs) if c != 0), None)
        if lead is None:
            return self
        return self.scaled(Fraction(1) / lead)

    def _split(self) -> tuple[int, int, list[Fraction]]:
        """Factor t_0^low * t_1^high * core, core with nonzero ends."""
        if self.is_zero():
            raise InvalidInput("cannot split the zero form")
        lo = next(i for i, c in enumerate(self.coeffs) if c != 0)
        hi = next(i for i, c in enumerate(reversed(self.coeffs)) if c != 0)
        core = list(self.coeffs[lo: len(self.coeffs) - hi])
        return lo, hi, core


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    out = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / lead
        out[k] = q
        if q != 0:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    rem = num[: len(den) - 1] or [Fraction(0)]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return out or [Fraction(0)], rem


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while any(c != 0 for c in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
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


def binary_divide_exact(num: BinaryForm, den: BinaryForm) -> BinaryForm:
    """Exact quotient num / den; raises if the division leaves a remainder."""
    nlo, nhi, ncore = num._split()
    dlo, dhi, dcore = den._split()
    if dlo > nlo or dhi > nhi:
        raise InvalidInput("binary form division is not exact")
    q, r = _poly_divmod(ncore, dcore)
    if any(c != 0 for c in r):
        raise InvalidInput("binary form division is not exact")
    out = [Fraction(0)] * (nlo - dlo) + q + [Fraction(0)] * (nhi - dhi)
    return BinaryForm(out)


def binary_linear_root(t0, t1) -> BinaryForm:
    """The linear form t_1 T_0 - t_0 T_1, vanishing exactly at (t_0 : t_1)."""
    return BinaryForm([-Fraction(t0), Fraction(t1)])


def linear_root(f: BinaryForm) -> tuple[Fraction, Fraction]:
    """The projective root of a degree-1 binary form c_0 T_1 + c_1 T_0."""
    if f.degree != 1 or f.is_zero():
        raise InvalidInput("linear_root needs a nonzero linear form")
    c0, c1 = f.coeffs
    return (-c0, c1) if c1 != 0 else (Fraction(1), Fraction(0))
