"""The benchmark's workloads: how one op is built and how its output is checked.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. Each op gets a distinct instance derived from
(workload, seed, stream, index), so a cache keyed on inputs sees no repeats.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import check
from instances import Instance, make_instance


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    bound: int
    command: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("surface_n6", 6, 10, "centers",
             "exact n = 6 path (leave-one-out cubics, binary gcds, rref); the numeric solver does no work"),
    Workload("three_pairs_n7", 7, 10, "centers",
             "n = 7: seven lifted quadric pairs (interpolation, det), two numeric solves, exact certification"),
    Workload("generate_n7", 7, 10, "generate",
             "the generator's exact predicates: the lifted-bracket layers used as producer, not consumer"),
    Workload("wide_n7", 7, 1000, "centers",
             "n = 7 with entries up to 10^3, brackets past 2^63: exposes machine-int or float shortcuts"),
)}


def _write_points(path: str, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ambient_dim": 3, "points": [[str(c) for c in p] for p in points]}, fh)


def prepare(w: Workload, seed: int, stream: str, index: int, workdir: str
            ) -> tuple[list[str], Instance | None]:
    """Write the inputs of one op; return its CLI argv and the instance it solves."""
    key = f"{w.name}:{seed}:{stream}:{index}"
    out = os.path.join(workdir, "report.json")
    if w.command == "generate":
        op_seed = random.Random(key).randrange(2 ** 31)
        return ["generate", "--n", str(w.n), "--seed", str(op_seed), "-o", out], None
    inst = make_instance(w.n, w.bound, key)
    xs, ys = os.path.join(workdir, "X.json"), os.path.join(workdir, "Y.json")
    _write_points(xs, inst.x)
    _write_points(ys, inst.y)
    argv = ["centers", "-i", xs, "-j", ys, "-o", out]
    if w.n == 6:
        center = os.path.join(workdir, "a.json")
        with open(center, "w", encoding="utf-8") as fh:
            json.dump({"point": [str(c) for c in inst.a]}, fh)
        argv += ["--center", center]
    return argv, inst


def verify(w: Workload, report: dict, inst: Instance | None) -> bool:
    """Check one report; return whether its true pair is uncertified.

    Raises ``check.CheckFailed`` when the report is wrong.
    """
    if w.command == "generate":
        return check.check_generate_n7(report, w.n)
    if w.n == 6:
        return check.check_surface_n6(report, inst)
    return check.check_three_pairs_n7(report, inst)
