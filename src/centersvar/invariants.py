"""Generating invariants of plane point configurations and their liftings.

Three families of bracket invariants are evaluated exactly:

* five points: the six degree-(3,3,3,3,3) generators g_0 .. g_5;
* six points: the generators t_0 .. t_4 (degree 1) and t_5 (degree 2),
  together with the quartic relation t_5^2 = F(t_0, ..., t_4) whose zero set
  is the Igusa quartic; t_5 vanishes exactly when the six points lie on a
  conic;
* seven points: the fifteen even Fano bracket products, plus the Morley
  invariant (the unique cubic skew-symmetric invariant).

Each family lifts to a configuration in P^3 with a chosen center a by
replacing every plane bracket [ijk] with the space bracket [x_i x_j x_k a];
the lifted vector is proportional to the invariant vector of the projected
configuration, which is what makes these usable for camera-center loci.
Lifted, t_5 of six points of P^3 is their Weddle quartic, the centers from
which the six images lie on a conic (``weddle_quartic``).

A family is written once, over its index table: every value is an integer
product of brackets taken from a bracket source, which is the plane bracket
of three image points or, lifted, the integer cofactor vector of
(x_i, x_j, x_k) dotted with a. That vector depends on the points alone, so
it is built once per point set (``Configuration.cofactors_of``), and a
lifted invariant at a center is dot products of increasing triples. Integer
points give int invariants.

Lifted through a center z, t_0 .. t_4 of six points of P^3 are the quadrics
t_k(z) = [s_k z][t_k z] of the bracket pairs (s_k, t_k) of T6_TRIPLES, and
their linear relation sum_k w_k t_k(z) = 0 (identically in z) is an
SL_4-invariant of the six points, a cubic in their 4 x 4 brackets
[ijkl] = det(x_i, x_j, x_k, x_l):

    w_0 = -[1234][1256][3456] - [1245][1346][2356]
    w_1 =  [1235][1346][2456]
    w_2 = -[1234][1356][2456]
    w_3 = -[1235][1246][3456]
    w_4 =  [1234][1256][3456]

Each 4-bracket is a cofactor vector of a pair dotted with a point, for
instance [1234] = c_123 . x_4 and [3456] = -c_456 . x_3 (``t6_relation``).
Any relation w of the y-quadrics gives a quadric sum_k w_k t^x_k through
every true first center a: at a true pair (a, b), t^x_k(a) = s t^y_k(b) for
one scalar s, so the sum is s sum_k w_k t^y_k(b) = 0. That w = 0 exactly
when the relation is not unique is evidence, not proof: it held on 120k
six-point sets from the {-1, 0, 1} box, against the integer kernel of the
lifted quadrics, and the property tests check it on random, large and
degenerate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Callable, Sequence

from .errors import DegenerateInput, InvalidInput
from .forms import Form
from .projective import Configuration, ProjectivePoint, bracket, canonical_coords

# Bracket index triples (1-based), exactly as printed in the classical tables.
G5_TRIPLES = (
    ((1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)),  # g0
    ((1, 2, 5), (1, 3, 5), (1, 3, 4), (2, 3, 4), (2, 4, 5)),  # g1 via (45)
    ((1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 4, 5), (2, 3, 5)),  # g2 via (34)
    ((1, 2, 5), (1, 4, 5), (1, 3, 4), (2, 3, 4), (2, 3, 5)),  # g3 via (345)
    ((1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 4, 5), (2, 3, 4)),  # g4 via (354)
    ((1, 2, 4), (1, 4, 5), (1, 3, 5), (2, 3, 5), (2, 3, 4)),  # g5 via (35)
)

T6_TRIPLES = (
    ((1, 2, 3), (4, 5, 6)),  # t0
    ((1, 2, 4), (3, 5, 6)),  # t1
    ((1, 2, 5), (3, 4, 6)),  # t2
    ((1, 3, 4), (2, 5, 6)),  # t3
    ((1, 3, 5), (2, 4, 6)),  # t4
)
T5_PLUS = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
T5_MINUS = ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))

# The Fano bracket product is built on these seven lines of a Fano plane.
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7), (1, 3, 7))

# One-line notations of the fifteen even permutations defining the Fano map,
# in their fixed coordinate order.
EVEN_FANO_PERMS = (
    (1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 6, 7, 5), (1, 2, 3, 4, 7, 5, 6),
    (1, 2, 3, 5, 4, 7, 6), (1, 2, 3, 5, 6, 4, 7), (1, 2, 3, 5, 7, 6, 4),
    (1, 2, 3, 6, 4, 5, 7), (1, 2, 3, 6, 5, 7, 4), (1, 2, 3, 6, 7, 4, 5),
    (1, 2, 3, 7, 4, 6, 5), (1, 2, 3, 7, 5, 4, 6), (1, 2, 3, 7, 6, 5, 4),
    (1, 2, 4, 3, 5, 7, 6), (1, 2, 4, 3, 6, 5, 7), (1, 2, 4, 3, 7, 6, 5),
)

# Odd representatives: compose each even permutation with the transposition
# (1 2) on the left; this hits each of the fifteen odd Fano products once.
ODD_FANO_PERMS = tuple(
    tuple({1: 2, 2: 1}.get(v, v) for v in perm) for perm in EVEN_FANO_PERMS)

N6_WEIGHTS = (1, 1, 1, 1, 1, 2)


@dataclass(frozen=True)
class InvariantVector:
    """A weighted projective invariant vector of kind N5, N6 or N7.

    N5 holds (g_0, ..., g_5), N6 holds (t_0, ..., t_5) with weights
    (1,1,1,1,1,2), N7 holds the fifteen even Fano values. The zero vector
    flags a configuration outside the semistable locus of its family.
    """

    kind: str
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        expected = {"N5": 6, "N6": 6, "N7": 15}
        if self.kind not in expected:
            raise InvalidInput(f"unknown invariant kind {self.kind!r}")
        if len(self.values) != expected[self.kind]:
            raise InvalidInput(f"{self.kind} vector needs {expected[self.kind]} entries")

    @property
    def non_semistable(self) -> bool:
        return all(v == 0 for v in self.values)

    def weights(self) -> tuple[int, ...]:
        return N6_WEIGHTS if self.kind == "N6" else (1,) * len(self.values)

    def proportional(self, other: "InvariantVector") -> bool:
        """Scale-aware equality: ordinary proportionality for N5/N7 and the
        weighted version for N6 (t_i' = s t_i for i <= 4, t_5' = s^2 t_5),
        tested division-free via cross products."""
        if self.kind != other.kind:
            return False
        a, b = self.values, other.values
        if self.non_semistable or other.non_semistable:
            return self.non_semistable == other.non_semistable
        if any((x == 0) != (y == 0) for x, y in zip(a, b)):
            return False
        if self.kind != "N6":
            return all(a[i] * b[j] == a[j] * b[i]
                       for i, j in combinations(range(len(a)), 2))
        if not all(a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(5), 2)):
            return False
        i = next((k for k in range(5) if a[k] != 0), None)
        if i is None:
            # only the weight-2 entry is nonzero on both sides
            return True
        return b[5] * a[i] ** 2 == a[5] * b[i] ** 2

    def canonical(self) -> "InvariantVector":
        """Canonical scaling: weight-1 block primitive-integer with positive
        leading entry, weight-2 entry rescaled accordingly."""
        if self.non_semistable:
            return self
        if self.kind != "N6":
            return InvariantVector(self.kind, canonical_coords(self.values))
        head = self.values[:5]
        if all(v == 0 for v in head):
            return InvariantVector("N6", (0,) * 5 + (1 if self.values[5] > 0 else -1,))
        ints = canonical_coords(head)
        idx = next(k for k in range(5) if head[k] != 0)
        scale = Fraction(head[idx], ints[idx])  # head = scale * ints, exactly
        return InvariantVector("N6", ints + (self.values[5] / scale ** 2,))


def _zero_based(table):
    """A table of 1-based indices, nested in tuples, with 0-based indices."""
    return table - 1 if isinstance(table, int) else tuple(map(_zero_based, table))


# The tables above with 0-based indices, as the bracket sources read them.
_G5, _T6, _T5_PLUS, _T5_MINUS = map(_zero_based, (G5_TRIPLES, T6_TRIPLES, T5_PLUS, T5_MINUS))


def _product(brackets: Callable[[tuple[int, ...]], int], triples) -> int:
    """The product of the brackets of the index triples (0-based) from one
    bracket source, 0 at the first vanishing factor: an int for integer
    points."""
    total = 1
    for t in triples:
        total *= brackets(t)
        if not total:
            return 0
    return total


def _plane_brackets(p: Configuration) -> Callable[[tuple[int, ...]], int]:
    """The bracket source of plane points: [ijk] = bracket(p_i, p_j, p_k)."""
    return lambda t: bracket([p[i] for i in t])


def _lifted_brackets(x: Configuration, a) -> Callable[[tuple[int, ...]], int]:
    """The bracket source of points of P^3 lifted through a center a, for
    increasing triples: [ijk] -> [x_i x_j x_k a], the point set's cofactor
    vector of the triple dotted with a."""
    coords = a.coords if isinstance(a, ProjectivePoint) else a
    return lambda t: sum(map(mul, x.cofactors_of(*t), coords))


def _g5_values(brackets) -> tuple[int, ...]:
    return tuple(_product(brackets, t) for t in _G5)


def _t6_values(brackets) -> tuple[int, ...]:
    head = tuple(_product(brackets, t) for t in _T6)
    return head + (_product(brackets, _T5_PLUS) - _product(brackets, _T5_MINUS),)


def _fano_lines(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """The Fano lines with their indices permuted, in the permuted order
    (0-based)."""
    return [tuple(perm[i - 1] - 1 for i in line) for line in FANO_LINES]


# The permuted Fano lines of each even permutation, each line sorted. Sorting
# the seven lines of any permutation multiplies the bracket product by the
# sign of the permutation, so for an even one the value is unchanged.
_EVEN_FANO_SORTED = tuple([tuple(sorted(t)) for t in _fano_lines(perm)]
                          for perm in EVEN_FANO_PERMS)


def g5(p: Configuration) -> InvariantVector:
    """The six generating invariants of five labelled plane points."""
    if p.n != 5 or p.ambient_dim != 2:
        raise InvalidInput("g5 needs five points in the plane")
    return InvariantVector("N5", _g5_values(_plane_brackets(p)))


def g5_lifted(x: Configuration, a) -> InvariantVector:
    """g5 with every [ijk] replaced by the space bracket [x_i x_j x_k a].

    Proportional to ``g5(project(X, a))`` whenever the projection is defined;
    the zero vector results when a lies on a line through two of the points.
    """
    if x.n != 5 or x.ambient_dim != 3:
        raise InvalidInput("g5_lifted needs five points in P^3")
    return InvariantVector("N5", _g5_values(_lifted_brackets(x, a)))


def t6(p: Configuration) -> InvariantVector:
    """The six generators of the invariant ring of six labelled plane points:
    five products of complementary brackets and the degree-two alternating
    sum t_5, which vanishes exactly when the points lie on a conic."""
    if p.n != 6 or p.ambient_dim != 2:
        raise InvalidInput("t6 needs six points in the plane")
    return InvariantVector("N6", _t6_values(_plane_brackets(p)))


def igusa_F(t: Sequence) -> Fraction:
    """The quartic F with t_5^2 = F(t_0, ..., t_4); its zero set in P^4 is
    the Igusa quartic, the branch locus of the six-point moduli double cover."""
    t0, t1, t2, t3, t4 = (Fraction(v) for v in t)
    head = -t2 * t3 + t1 * t4 + t0 * t1 + t0 * t4 - t0 * t2 - t0 * t3 - t0 ** 2
    return head ** 2 - 4 * t0 * t1 * t4 * (-t0 + t1 - t2 - t3 + t4)


def t6_lifted(x: Configuration, z) -> InvariantVector:
    """Values at z of the six lifted forms of t6 ([ijk] -> [x_i x_j x_k z])."""
    if x.n != 6 or x.ambient_dim != 3:
        raise InvalidInput("t6_lifted needs six points in P^3")
    return InvariantVector("N6", _t6_values(_lifted_brackets(x, z)))


def t6_factors(x: Configuration) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The cofactor vectors (u_k, v_k) of the bracket pairs of t_0 .. t_4 on
    six points of P^3: lifted, t_k(z) = (u_k . z)(v_k . z)."""
    if x.n != 6 or x.ambient_dim != 3:
        raise InvalidInput("t6_factors needs six points in P^3")
    return tuple((x.cofactors_of(*s), x.cofactors_of(*t)) for s, t in _T6)


def t6_relation(x: Configuration, factors) -> tuple[int, ...]:
    """The weights w with sum_k w_k t_k(z) = 0 for the lifted quadrics t_k of
    six points of P^3, from their brackets (see the module docstring);
    ``factors`` is ``t6_factors(x)``, whose cofactor vectors give every
    bracket as one dot product. w = 0 exactly when the relation is not
    unique (see the module docstring for the evidence)."""
    p = [pt.coords for pt in x.points]
    (c123, c456), (c124, _), (c125, _), (c134, c256), (c135, c246) = factors

    def b(c, i):
        return sum(map(mul, c, p[i - 1]))

    b1234, b1235, b3456 = b(c123, 4), b(c123, 5), -b(c456, 3)
    b1245, b1246, b1256 = b(c124, 5), b(c124, 6), b(c125, 6)
    b1346, b2356 = b(c134, 6), b(c256, 3)
    b1356, b2456 = b(c135, 6), -b(c246, 5)
    w4 = b1234 * b1256 * b3456
    return (-w4 - b1245 * b1346 * b2356, b1235 * b1346 * b2456,
            -b1234 * b1356 * b2456, -b1235 * b1246 * b3456, w4)


# No caller in the package: kept because perfbench/tracing.py resolves it by name.
def lifted_quadrics(x: Configuration) -> list[Form]:
    """Symbolic lifted forms of the five quadratic t6 generators on six
    points of P^3, in the graded lex coefficient convention.

    Each quadric vanishes on all six points and is the product of the two
    linear forms of ``t6_factors``. These forms are the reference, not the
    production route: ``loci.quadric_pair_n6`` weights the factor pairs
    directly with ``t6_relation``, and tests check that relation against the
    integer kernel of these forms. The quartic t_5 is evaluated pointwise by
    ``t6_lifted``.
    """
    if x.n != 6 or x.ambient_dim != 3:
        raise InvalidInput("lifted_quadrics needs six points in P^3")
    return [Form(1, u) * Form(1, v) for u, v in t6_factors(x)]


def fano(p: Configuration, perm: Sequence[int]) -> int:
    """The Fano bracket product of seven plane points, indices permuted.

    ``perm`` is a one-line permutation of 1..7; brackets keep the permuted
    index order, so each bracket's sign is part of the definition.
    """
    if p.n != 7 or p.ambient_dim != 2:
        raise InvalidInput("fano needs seven points in the plane")
    if sorted(perm) != [1, 2, 3, 4, 5, 6, 7]:
        raise InvalidInput("perm must be a permutation of 1..7")
    return _product(_plane_brackets(p), _fano_lines(perm))


def fano15(p: Configuration) -> InvariantVector:
    """The fifteen even Fano values, in their fixed coordinate order.

    Seven points on a conic map to the all-ones direction; two coincident
    points give the zero vector.
    """
    return InvariantVector("N7", tuple(fano(p, perm) for perm in EVEN_FANO_PERMS))


def fano15_lifted(x: Configuration, a) -> InvariantVector:
    """The even Fano values with [ijk] -> [x_i x_j x_k a], for seven points
    in P^3; proportional to ``fano15(project(X, a))`` for admissible a."""
    if x.n != 7 or x.ambient_dim != 3:
        raise InvalidInput("fano15_lifted needs seven points in P^3")
    brackets = _lifted_brackets(x, a)
    return InvariantVector("N7", tuple(_product(brackets, lines) for lines in _EVEN_FANO_SORTED))


def fano_sum_odd(p: Configuration) -> int:
    """Sum of the fifteen odd Fano values (used by the Morley identities)."""
    return sum(fano(p, perm) for perm in ODD_FANO_PERMS)


def morley(p: Configuration) -> int:
    """The Morley invariant: twice the sum of the even Fano values.

    It is the unique cubic skew-symmetric invariant of seven plane points;
    relabelling by an odd permutation flips its sign.
    """
    if p.n != 7 or p.ambient_dim != 2:
        raise InvalidInput("morley needs seven points in the plane")
    return 2 * sum(fano(p, perm) for perm in EVEN_FANO_PERMS)


@dataclass(frozen=True)
class WeddleQuartic:
    """The quartic surface of vertices of singular quadrics through six points.

    It vanishes at the six defining points and on each of the fifteen lines
    joining two of them.
    """

    form: Form
    points: tuple[ProjectivePoint, ...]

    def __call__(self, z) -> Fraction:
        coords = z.coords if isinstance(z, ProjectivePoint) else z
        return self.form(coords)


def weddle_quartic(z: Configuration) -> WeddleQuartic:
    """Weddle quartic of six labelled points of P^3 in general position.

    It is t_5 lifted: the centers from which the six images lie on a conic,
    [123z][145z][246z][356z] - [124z][135z][236z][456z], each bracket the
    linear form of the points' cofactor vector of its triple. The first five
    points must form a frame. Defined up to scale.
    """
    if z.n != 6 or z.ambient_dim != 3:
        raise InvalidInput("weddle_quartic needs six points in P^3")
    if not all(bracket(four) for four in combinations(z.points[:5], 4)):
        raise DegenerateInput("the first five points do not form a frame")
    plus, minus = (reduce(mul, (Form(1, z.cofactors_of(*t)) for t in triples))
                   for triples in (_T5_PLUS, _T5_MINUS))
    form = (plus - minus).primitive()
    if form.is_zero():
        raise DegenerateInput("six points do not determine a Weddle quartic")
    return WeddleQuartic(form, z.points)
