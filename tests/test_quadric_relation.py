"""The six-point quadric relation from bracket products, checked against the
10 x 5 integer kernel of the lifted quadrics it replaces, and the degeneracy
decision read off two relations against the quadric pair it stands for."""

import random
import re
from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar import linalg
from centersvar.errors import DegenerateInput, Inconsistent, ToolkitError
from centersvar.forms import Form
from centersvar.invariants import lifted_quadrics, t6_factors, t6_relation
from centersvar.datagen import _bracket_table, _relations_usable, _side_generic
from centersvar.loci import _quadric_relations_n6, candidates_n7, quadric_pair_n6
from centersvar.projective import Configuration, ProjectivePoint
from test_loci_n7 import random_n7_pairs


def points(bound):
    return st.lists(st.integers(-bound, bound), min_size=4, max_size=4).filter(any)


def combination(base):
    """A nonzero integer combination of the base points."""
    return st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)).map(
        lambda c: [sum(k * p[i] for k, p in zip(c, base)) for i in range(4)]).filter(any)


@st.composite
def six_points(draw):
    """Six labelled points of P^3: general in a small or a large box, in the
    {-1, 0, 1} and [-2, 2] boxes, or from a degenerate family (four or five
    coplanar, three collinear, a repeated point, on the twisted cubic)."""
    kind = draw(st.sampled_from(["small", "small", "large", "large", "box1", "box2",
                                 "coplanar4", "coplanar5", "collinear3", "repeated",
                                 "cubic"]))
    box = {"small": 9, "large": 10 ** 6, "box1": 1, "box2": 2}
    if kind in box:
        return draw(st.lists(points(box[kind]), min_size=6, max_size=6, unique_by=tuple))
    if kind == "cubic":
        st_pairs = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
        pts = [[s ** 3, s * s * t, s * t * t, t ** 3]
               for s, t in draw(st.lists(st_pairs, min_size=6, max_size=6))]
    elif kind == "repeated":
        pts = draw(st.lists(points(9), min_size=5, max_size=5))
        pts.append([draw(st.sampled_from([1, -2, 3])) * c for c in pts[0]])
    else:
        spanned = {"coplanar4": (3, 1), "coplanar5": (3, 2), "collinear3": (2, 1)}[kind]
        base = draw(st.lists(points(9), min_size=spanned[0], max_size=spanned[0]))
        pts = base + [draw(combination(base)) for _ in range(spanned[1])]
        pts += draw(st.lists(points(9), min_size=6 - len(pts), max_size=6 - len(pts)))
    return draw(st.permutations(pts))


@st.composite
def six_point_pairs(draw):
    """x and y drawn independently, or y the image of x under an integer
    projective map (where the two relations coincide), or y = x."""
    x = draw(six_points())
    kind = draw(st.sampled_from(["independent", "independent", "mapped", "equal"]))
    if kind == "independent":
        return x, draw(six_points())
    if kind == "equal":
        return x, x
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                      min_size=4, max_size=4).filter(lambda m: linalg.det(m) != 0))
    return x, [[sum(r * c for r, c in zip(row, p)) for row in m] for p in x]


def kernel_quadric_pair(x, y):
    """quadric_pair_n6 by the kernel route: each relation the primitive
    integer kernel of the 10 x 5 coefficient matrix of the lifted quadrics,
    refused unless it is one-dimensional, and the weighted sums of Form
    coefficients."""
    qx, qy = lifted_quadrics(x), lifted_quadrics(y)
    relations = {}
    for tag, quads in (("x", qx), ("y", qy)):
        kernel = linalg.integer_kernel(list(zip(*(q.coeffs for q in quads))))
        if len(kernel) != 1:
            raise DegenerateInput(f"quadric relation on the {tag} side is not unique")
        relations[tag] = kernel[0]
    s_beta, s_alpha = (
        Form(2, tuple(sum(w * c for w, c in zip(weights, col))
                      for col in zip(*(q.coeffs for q in quads)))).primitive()
        for weights, quads in ((relations["y"], qx), (relations["x"], qy)))
    if s_beta.is_zero() or s_alpha.is_zero():
        raise DegenerateInput("the weighted quadric combination vanishes identically")
    if any(s_beta(pt.coords) for pt in x.points):
        raise Inconsistent("S_beta does not contain its world points")
    if any(s_alpha(pt.coords) for pt in y.points):
        raise Inconsistent("S_alpha does not contain its world points")
    return s_beta, s_alpha


def outcome(route, x, y):
    try:
        return route(x, y)
    except ToolkitError as exc:
        return type(exc), str(exc)


def checked_cause(message, sides):
    """The refusal message with the cause it names cut off, once the cause
    is checked: "x_i, x_j coincide" names two equal points of the set
    sides["x"], "... lie in a plane" five distinct points of rank 3 or less."""
    if message is None or ": " not in message:
        return message
    message, cause = message.split(": ")
    tag = message.split(" side")[0][-1]
    named = re.fullmatch(r"((?:[xy]_\d+, )*[xy]_\d+) (coincide|lie in a plane)", cause)
    labels = [name.split("_") for name in named[1].split(", ")]
    assert all(t == tag for t, _ in labels)
    pts = [sides[tag].points[int(i)] for _, i in labels]
    if named[2] == "coincide":
        assert len(pts) == 2 and pts[0] == pts[1]
    else:
        assert len(set(pts)) == 5 and linalg.rank([p.coords for p in pts]) < 4
    return message


@given(six_points())
@settings(max_examples=400, deadline=None)
def test_bracket_relation_is_the_kernel_of_the_lifted_quadrics(pts):
    x = Configuration(pts)
    w = t6_relation(x, t6_factors(x))
    assert all(type(v) is int for v in w)
    quads = lifted_quadrics(x)
    assert all(sum(wk * q.coeffs[r] for wk, q in zip(w, quads)) == 0 for r in range(10))
    kernel = linalg.integer_kernel(list(zip(*(q.coeffs for q in quads))))
    assert (len(kernel) == 1) == any(w)
    if any(w):
        (v,) = kernel
        assert all(w[i] * v[j] == w[j] * v[i] for i in range(5) for j in range(i + 1, 5))


@given(six_point_pairs())
@settings(max_examples=400, deadline=None)
def test_quadric_pair_matches_the_kernel_route(pair):
    x, y = (Configuration(p) for p in pair)
    got = outcome(quadric_pair_n6, x, y)
    if isinstance(got[0], type):
        got = got[0], checked_cause(got[1], {"x": x, "y": y})
    assert got == outcome(kernel_quadric_pair, x, y)


def degenerate_message(route, x, y):
    try:
        route(x, y)
    except DegenerateInput as exc:
        return str(exc)
    return None


def small_points(rng, n):
    pts = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(n)]
    return [p if any(p) else [0, 0, 0, 1] for p in pts]


def test_relations_refuse_exactly_where_the_quadric_pair_does():
    """On every 6-subset of random sets in [-3, 3], n = 6..8, with y
    drawn independently or as M x (relations proportional), the relations
    alone give the quadric pair's DegenerateInput, message and all, and the
    generator's relations read off the bracket tables refuse a set exactly
    when one of its subsets is refused; at n = 10 and 12 they refuse sets
    whose only refused subsets hold the last point."""
    rng = random.Random(20261019)
    seen = Counter()
    for n in (6, 7, 8):
        for _ in range(150):
            xs = small_points(rng, n)
            a, b = (ProjectivePoint(p) for p in small_points(rng, 2))
            mapped = rng.random() < 0.5
            if mapped:
                while True:
                    m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
                    if linalg.det(m):
                        break
                ys = [[sum(r * c for r, c in zip(row, p)) for row in m] for p in xs]
            else:
                ys = small_points(rng, n)
            x, y = Configuration(xs), Configuration(ys)
            tx, ty = _bracket_table(x, a), _bracket_table(y, b)
            side_generic = _side_generic(tx) and _side_generic(ty)
            usable = True
            for c in combinations(range(n), 6):
                xc, yc = x.subset(c), y.subset(c)
                got = degenerate_message(_quadric_relations_n6, xc, yc)
                assert got == degenerate_message(quadric_pair_n6, xc, yc)
                seen[side_generic, mapped, checked_cause(got, {"x": x, "y": y})] += 1
                usable = usable and got is None
            assert _relations_usable(tx, ty, n) == usable
            seen[usable] += 1
    vanishes = "the weighted quadric combination vanishes identically"
    assert seen[True, True, vanishes] > 100 and seen[True, False, None] > 50
    assert seen[False, False, "quadric relation on the x side is not unique"]
    assert seen[False, False, "quadric relation on the y side is not unique"]
    assert not any(seen[g, True, None] for g in (True, False))
    assert seen[True] > 50 and seen[False] > 50
    # n = 10 and 12, one side made degenerate only through its last point:
    # it coincides with point 0, or points 3 and n - 1 are moved into the
    # plane of points 0-2; every refused 6-subset then holds the last point
    for n in (10, 12):
        for side, move in [("x", "coincide"), ("y", "coincide"), ("x", "plane"), ("y", "plane")]:
            sides = {t: [[rng.randint(-10, 10) for _ in range(4)] for _ in range(n)] for t in "xy"}
            pts = sides[side]
            if move == "coincide":
                pts[-1] = pts[0][:]
            else:
                for i in (3, n - 1):
                    k = [rng.randint(1, 3) for _ in range(3)]
                    pts[i] = [sum(k[t] * pts[t][r] for t in range(3)) for r in range(4)]
            x, y = Configuration(sides["x"]), Configuration(sides["y"])
            a, b = (ProjectivePoint(p) for p in small_points(rng, 2))
            refused = [c for c in combinations(range(n), 6)
                       if degenerate_message(quadric_pair_n6, x.subset(c), y.subset(c))]
            assert refused and all(n - 1 in c for c in refused)
            assert not _relations_usable(_bracket_table(x, a), _bracket_table(y, b), n)


def test_each_refused_relation_names_its_cause():
    """The "not unique" refusals of the seven-point stress name two
    coincident world points or five coplanar ones of the refused 6-subset,
    in the labels of the seven points."""
    causes = Counter()
    for x, y in random_n7_pairs(600, 7):
        try:
            candidates_n7(x, y)
        except DegenerateInput as exc:
            message = str(exc)
            if message.startswith("quadric relation"):
                assert checked_cause(message, {"x": x, "y": y}) != message
                causes[message.split()[-1]] += 1
        except ToolkitError:
            pass
    assert causes == {"coincide": 20, "plane": 34}
