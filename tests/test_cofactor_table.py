"""The cofactor vectors and the resection frame a point set builds once."""

import json
import random
import sys
from itertools import combinations

import pytest

from centersvar.cli import main
from centersvar.datagen import generate_reconstruction
from centersvar.errors import ToolkitError
from centersvar.invariants import fano15_lifted
from centersvar.loci import quadric_pair_n6
from centersvar.projective import Configuration, cofactors


def rand_config(rng, n, bound):
    return Configuration([[rng.randint(-bound, bound) or 1 for _ in range(4)] for _ in range(n)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


def test_table_is_not_part_of_equality_hash_or_repr():
    rng = random.Random(3)
    x = rand_config(rng, 7, 9)
    fresh = Configuration(x.points)
    fano15_lifted(x, (1, 2, 3, 4))
    assert x.resection_frame is not None
    for sub in (x.subset(range(7)), x.drop(2), x.subset([4, 1, 6])):
        plain = Configuration(sub.points)
        assert sub == plain and hash(sub) == hash(plain) and repr(sub) == repr(plain)
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)


@pytest.mark.parametrize("bound", [3, 10 ** 6])
def test_subset_vectors_equal_fresh_ones(bound):
    rng = random.Random(bound)
    x = rand_config(rng, 8, bound)
    for indices in ([7, 0, 3, 5], [2, 2, 4, 6], list(range(8))):
        sub = x.subset(indices)
        for t in combinations(range(len(indices)), 3):
            assert sub.cofactors_of(*t) == cofactors(*(sub[i].coords for i in t))
    nested = x.subset([1, 2, 4, 5, 6, 7]).drop(3)
    assert nested.points == tuple(x[i] for i in (1, 2, 4, 6, 7))
    for t in combinations(range(5), 3):
        assert nested.cofactors_of(*t) == cofactors(*(nested[i].coords for i in t))


@pytest.mark.parametrize("bound", [3, 10 ** 6])
def test_subset_quadric_pairs_equal_those_of_fresh_six_point_sets(bound):
    rng = random.Random(7 * bound)
    sets = [(rand_config(rng, n, bound), rand_config(rng, n, bound))
            for n in (7, 8, 7, 8)]
    sets += [(rec.x, rec.y) for rec in (generate_reconstruction(8, seed=s) for s in range(2))]
    pairs = 0
    for x, y in sets:
        fano15_lifted(x.subset(range(7)), (3, -1, 4, 1))  # fills some of x's table first
        for c in combinations(range(x.n), 6):
            got = outcome(quadric_pair_n6, x.subset(c), y.subset(c))
            assert got == outcome(quadric_pair_n6, Configuration([x[i] for i in c]),
                                  Configuration([y[i] for i in c]))
            pairs += not isinstance(got[0], type)
        for k in range(x.n):
            got = outcome(quadric_pair_n6, x.drop(k).subset(range(6)),
                          y.drop(k).subset(range(6)))
            assert got == outcome(quadric_pair_n6, Configuration(x.drop(k).points[:6]),
                                  Configuration(y.drop(k).points[:6]))
    assert pairs >= 100


def count_cofactor_builds(monkeypatch, argv):
    """Builds of projective.cofactors during one CLI call, counted at every
    binding of the function in the package."""
    calls = []

    def counted(*rows):
        calls.append(rows)
        return cofactors(*rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("centersvar") and getattr(module, "cofactors", None) is cofactors:
            monkeypatch.setattr(module, "cofactors", counted)
    try:
        assert main(argv) == 0
    finally:
        monkeypatch.undo()
    return len(calls)


def write_points(path, points):
    path.write_text(json.dumps({"ambient_dim": 3, "points": [[str(c) for c in p.coords]
                                                             for p in points]}))
    return str(path)


def test_cofactor_builds_per_op(monkeypatch, tmp_path):
    out = str(tmp_path / "r.json")
    for seed in range(3):
        rec = generate_reconstruction(6, seed=seed)
        xs, ys = write_points(tmp_path / "x.json", rec.x), write_points(tmp_path / "y.json", rec.y)
        center = ",".join(map(str, rec.a_true.coords))
        assert count_cofactor_builds(monkeypatch, ["centers", "-i", xs, "-j", ys,
                                                   "--center", center, "-o", out]) <= 60
        rec = generate_reconstruction(7, seed=seed)
        xs, ys = write_points(tmp_path / "x.json", rec.x), write_points(tmp_path / "y.json", rec.y)
        assert count_cofactor_builds(monkeypatch, ["centers", "-i", xs, "-j", ys, "-o", out]) <= 80
        assert count_cofactor_builds(monkeypatch, ["generate", "--n", "7", "--seed", str(seed),
                                                   "-o", out]) <= 75
