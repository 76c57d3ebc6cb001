"""Self-tests of the benchmark: generator, checker, tracer and runner.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from instances import make_instance  # noqa: E402


def solve(name: str, tmp_path, index: int = 1):
    """Run one op of a workload in-process; return (report, instance)."""
    from centersvar import cli
    w = workloads.WORKLOADS[name]
    argv, inst = workloads.prepare(w, 0, "test", index, str(tmp_path))
    assert cli.main(argv) == 0
    with open(argv[argv.index("-o") + 1], encoding="utf-8") as fh:
        return json.load(fh), inst


def bump(coords: list[str]) -> list[str]:
    return [str(int(coords[0]) + 1)] + coords[1:]


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    return solve("surface_n6", tmp_path_factory.mktemp("surface"))


@pytest.fixture(scope="module")
def three_pairs(tmp_path_factory):
    return solve("three_pairs_n7", tmp_path_factory.mktemp("three_pairs"))


def test_generator_is_deterministic_per_seed_and_distinct_across_seeds(tmp_path):
    assert make_instance(7, 10, "w:0:s:1") == make_instance(7, 10, "w:0:s:1")
    keys = [f"w:{seed}:s:{i}" for seed in range(3) for i in range(3)]
    assert len({make_instance(6, 10, k) for k in keys}) == len(keys)
    w = workloads.WORKLOADS["generate_n7"]
    argv = [workloads.prepare(w, seed, "s", 1, str(tmp_path))[0] for seed in (0, 0, 1)]
    assert argv[0] == argv[1] != argv[2]


def test_generated_instances_carry_their_true_pair():
    for n, bound in ((6, 10), (7, 10), (7, 1000)):
        inst = make_instance(n, bound, f"oracle:{n}:{bound}")
        assert check.oracle(inst.x, inst.y, inst.a, inst.b)
        assert not check.oracle(inst.x, inst.y, inst.a, inst.a)


def test_checker_accepts_surface_report(surface):
    report, inst = surface
    assert workloads.verify(workloads.WORKLOADS["surface_n6"], report, inst) is False


def test_checker_rejects_perturbed_surface_coordinate(surface):
    report, inst = copy.deepcopy(surface)
    report["matched_b"] = bump(report["matched_b"])
    with pytest.raises(check.CheckFailed):
        workloads.verify(workloads.WORKLOADS["surface_n6"], report, inst)
    report, inst = copy.deepcopy(surface)
    report["sampled_pairs"][0]["b"] = bump(report["sampled_pairs"][0]["b"])
    with pytest.raises(check.CheckFailed):
        workloads.verify(workloads.WORKLOADS["surface_n6"], report, inst)


def test_checker_rejects_perturbed_certified_pair(three_pairs):
    report, inst = copy.deepcopy(three_pairs)
    w = workloads.WORKLOADS["three_pairs_n7"]
    assert workloads.verify(w, report, inst) is False
    pair = next(p for p in report["pairs"] if p["a"]["exact"] is not None)
    pair["a"]["exact"] = bump(pair["a"]["exact"])
    with pytest.raises(check.CheckFailed):
        workloads.verify(w, report, inst)


def test_checker_rejects_perturbed_quadric(three_pairs):
    report, inst = copy.deepcopy(three_pairs)
    report["b_quadrics"][3] = bump(report["b_quadrics"][3])
    with pytest.raises(check.CheckFailed):
        workloads.verify(workloads.WORKLOADS["three_pairs_n7"], report, inst)


def test_checker_rejects_report_without_true_pair(three_pairs):
    report, inst = copy.deepcopy(three_pairs)
    report["pairs"] = [p for p in report["pairs"]
                       if not check._same_point(p["a"], inst.a)]
    with pytest.raises(check.CheckFailed, match="true pair"):
        workloads.verify(workloads.WORKLOADS["three_pairs_n7"], report, inst)


def test_uncertified_true_pair_is_reported_as_such(three_pairs):
    report, inst = copy.deepcopy(three_pairs)
    for p in report["pairs"]:
        p["a"]["exact"] = p["b"]["exact"] = None
    assert workloads.verify(workloads.WORKLOADS["three_pairs_n7"], report, inst) is True


def test_checker_rejects_perturbed_generated_instance(tmp_path):
    report, _ = solve("generate_n7", tmp_path)
    w = workloads.WORKLOADS["generate_n7"]
    assert workloads.verify(w, report, None) is False
    report["Y"]["points"][6] = bump(report["Y"]["points"][6])
    with pytest.raises(check.CheckFailed):
        workloads.verify(w, report, None)


def _bindings():
    import centersvar
    mods = [m for name, m in sys.modules.items() if name.startswith("centersvar")]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snapshot.update({("Form", k): v for k, v in vars(centersvar.forms.Form).items()})
    return snapshot


def test_traced_run_restores_every_binding(tmp_path):
    import centersvar.cli as cli
    import centersvar.linalg as linalg
    before = _bindings()
    recorder = tracing.Recorder()
    with tracing.traced(recorder) as patches:
        assert linalg.det is not before[("centersvar.linalg", "det")]
        w = workloads.WORKLOADS["three_pairs_n7"]
        argv, _ = workloads.prepare(w, 0, "trace", 1, str(tmp_path))
        assert recorder.call_op(0, cli.main, argv) == 0
    assert tracing.restored(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layers = tracing.layer_metrics(recorder, [{"warnings": 0}])
    assert layers["loci.quadric_pair_n6.calls"] == 7
    assert layers["numeric.solve_quadric_system.calls"] == 2
    assert layers["loci.cubic_locus_n5.calls"] == 0
    per_op = recorder.per_op(1)
    assert per_op["op"]["self_s"] <= per_op["op"]["incl_s"]


def test_self_time_excludes_child_spans():
    recorder = tracing.Recorder()

    def inner():
        time.sleep(0.01)

    def outer(depth):
        if depth:
            return wrapped_outer(depth - 1)
        wrapped_inner()
        time.sleep(0.01)

    wrapped_inner = recorder.wrap(inner, recorder.labels.index("linalg.rref"))
    wrapped_outer = recorder.wrap(outer, recorder.labels.index("linalg.det"))
    recorder.call_op(0, wrapped_outer, 2)
    per_op = recorder.per_op(1)
    det, rref = per_op["linalg.det"], per_op["linalg.rref"]
    assert (det["calls"], rref["calls"]) == (3, 1)
    assert det["incl_s"] >= 0.02 and rref["incl_s"] >= 0.01
    assert 0.01 <= det["self_s"] < det["incl_s"] - 0.009
    assert per_op["op"]["self_s"] < 0.005


def test_failed_op_counts_as_slower_than_every_passing_op():
    ops = [{"s": s, "ref": run.REF_S, "ok": True} for s in (0.1, 0.2, 0.3)]
    ops.append({"s": 0.05, "ref": run.REF_S, "ok": False})
    p50, p75 = run.percentiles(ops)
    assert p50 == pytest.approx(0.25) and p75 == pytest.approx(0.3)
    assert run.ops_per_s(ops) == pytest.approx(3 / 0.65)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surface_n6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
