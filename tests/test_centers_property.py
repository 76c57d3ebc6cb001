"""Property test: every exact center pair the engine reports is a true one.

For n = 3..9 the inputs are generated reconstructions (drawn seeds) and small
random configurations. Each exact pair (a, b) is checked by an oracle that
shares no code with the centers computation: project X from a and Y from b,
then fit a homography through all n image points. Any failure must be a
``ToolkitError``.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centersvar.datagen import generate_reconstruction
from centersvar.errors import ToolkitError
from centersvar.loci import (CubicFibrationN5, EmptyN8, EverythingN4,
                             SurfacePairN6, ThreePairsN7, centers_variety)
from centersvar.projective import Configuration, ProjectivePoint, homography_fit, project

VECTORS = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
    lambda v: v if any(v) else [0, 0, 0, 1])


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2))


def _check_pair(x, y, a, b, witness=None):
    assert a not in x.points and b not in y.points
    p = [project(xi, a) for xi in x]
    q = [project(yi, b) for yi in y]
    if witness is not None:
        assert _det3(*witness) != 0
        for pi, qi in zip(p, q):
            assert _proportional([sum(h * c for h, c in zip(row, pi.coords)) for row in witness],
                                 qi.coords)
    if x.n < 4:
        return
    # homography_fit frames the first four points, so put a general quadruple first.
    quad = next((c for c in combinations(range(x.n), 4)
                 if all(_det3(*(p[i].coords for i in t)) != 0 for t in combinations(c, 3))),
                None)
    assert quad is not None
    order = list(quad) + [i for i in range(x.n) if i not in quad]
    assert homography_fit(Configuration([p[i] for i in order]),
                          Configuration([q[i] for i in order])) is not None


@pytest.mark.parametrize("n", range(3, 10))
@settings(deadline=None, max_examples=10)
@given(generated=st.booleans(), seed=st.integers(0, 10 ** 6), data=st.data())
def test_every_exact_pair_passes_the_projection_oracle(n, generated, seed, data):
    b_true = None
    try:
        if generated:
            rec = generate_reconstruction(n, seed=seed)
            x, y, b_true = rec.x, rec.y, rec.b_true
            a = rec.a_true if n <= 6 else None
            b = rec.b_true if n <= 4 else None
        else:
            x = Configuration([data.draw(VECTORS) for _ in range(n)])
            y = Configuration([data.draw(VECTORS) for _ in range(n)])
            a = ProjectivePoint(data.draw(VECTORS)) if n == 5 else None
            b = None
        result = centers_variety(x, y, a=a, b=b, seed=seed % 100)
    except ToolkitError:
        return
    if isinstance(result, EverythingN4):
        _check_pair(x, y, result.a, result.b, result.witness)
    elif isinstance(result, CubicFibrationN5):
        if b_true is not None:
            assert all(f(b_true.coords) == 0 for f in result.cubic.quadrics)
    elif isinstance(result, SurfacePairN6):
        pairs = list(result.sampled_pairs)
        if result.matched_center is not None:
            pairs.append((result.given_center, result.matched_center))
        for pa, pb in pairs:
            _check_pair(x, y, pa, pb)
    else:
        assert isinstance(result, (ThreePairsN7, EmptyN8))
        if isinstance(result, ThreePairsN7):
            matched = [m for m in result.pairs
                       if m.a.exact is not None and m.b.exact is not None]
        else:
            matched = [p1 for p1, _ in result.certificate.surviving]
            # an n >= 8 survivor is decided exactly, so it is always exact
            assert all(m.a.exact is not None and m.b.exact is not None for m in matched)
        for pair in matched:
            _check_pair(x, y, pair.a.exact, pair.b.exact)
