"""Benchmark runner for the ``centersvar`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh child interpreters
one after another (never in parallel); see child.py for what one child
measures. With ``--trace 0`` the run is split over SETUPS children, so
``setup_s`` is the median of several set-ups, and the end-to-end metrics
are computed over the ops of all of them. With ``--trace 1`` one child runs
half its time untraced and half traced, and the per-layer metrics come
from the traced half. ``--workload all`` runs every workload in turn.

Times are reported at a fixed machine speed. The host this benchmark was
defined on drifts by a third within minutes, so every op is timed next to a
fixed pure-Python yardstick (child.reference) and its wall time is scaled by
REF_S / (the yardstick's time beside it). Set-up and per-layer times are
scaled the same way by the median yardstick time of their process. On a
steady machine as fast as the reference one, scaled and wall seconds agree;
the wall-clock figures are printed too.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is not 0, and no result is printed, when a child cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from child import monotonic  # noqa: E402
from tracing import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3          # children per untraced run
REF_S = 0.014       # child.reference() on a 2-core Intel Xeon, Python 3.11.7, fastest state seen
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"op_s.p50": "s", "op_s.p75": "s", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}
# End-to-end quantities that are 0 on most workloads; reported with the
# per-layer metrics (which may be 0) and printed on every run.
OUTCOMES = {"fail_frac": "ratio", "uncertified_frac": "ratio"}
TRACE_OVERHEAD = {"trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
                  "trace.overhead_ops_per_s": "1/s"}


class ChildFailed(Exception):
    pass


def layer_unit(name: str) -> str:
    if name in OUTCOMES:
        return OUTCOMES[name]
    if name in TRACE_OVERHEAD:
        return TRACE_OVERHEAD[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_map"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    return metric_names() + list(TRACE_OVERHEAD) + list(OUTCOMES)


def spawn(workload: str, seed: int, seconds: float, stream: str, trace: int,
          deadline: float) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"result-{os.getpid()}-{stream}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--stream", stream,
           "--trace", str(trace), "--result", result_path]
    started = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {stream} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {stream} exited with code {proc.returncode}")
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        if os.path.exists(result_path):
            os.unlink(result_path)
    result["setup_s"] = result["setup_end"] - started
    return result


def scaled(op: dict) -> float:
    """An op's time at the reference machine speed."""
    return op["s"] * REF_S / op["ref"]


def speed_factor(ops: list[dict]) -> float:
    """Scale for other times of the process that ran these ops."""
    return REF_S / statistics.median(op["ref"] for op in ops)


def ops_per_s(ops: list[dict]) -> float:
    """Passing ops per second of timed op time."""
    return sum(op["ok"] for op in ops) / sum(scaled(op) for op in ops)


def percentiles(ops: list[dict], time=scaled) -> tuple[float, float]:
    """p50 and p75 of op time; a failed op counts as slower than every passing op.

    p75 rather than p90: a 20-second run holds 20 to 50 ops, too few for a
    steady p90.
    """
    worst = max(time(op) for op in ops)
    values = [time(op) if op["ok"] else worst for op in ops]
    if len(values) == 1:
        return values[0], values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), quartiles[2]


def outcomes(runs: list[dict], ops: list[dict]) -> tuple[int, int, dict[str, float]]:
    attempted = ops + [r["cold"] for r in runs]
    failed = sum(not op["ok"] for op in attempted)
    return len(attempted), failed, {
        "fail_frac": failed / len(attempted),
        "uncertified_frac": sum(op["uncertified"] for op in attempted) / len(attempted)}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = monotonic() + DEADLINE_S
    if trace:
        run = spawn(workload, seed, seconds, "t", 1, deadline)
        runs, ops = [run], run["ops"] + run["traced_ops"]
        attempted, failed, shares = outcomes(runs, ops)
        factor = speed_factor(run["traced_ops"])
        metrics = {name: value * factor if name.endswith("_s") else value
                   for name, value in run["layers"].items()}
        untraced, traced = ops_per_s(run["ops"]), ops_per_s(run["traced_ops"])
        metrics.update({"trace.untraced_ops_per_s": untraced, "trace.traced_ops_per_s": traced,
                        "trace.overhead_ops_per_s": untraced - traced})
        metrics.update(shares)
        units = {name: layer_unit(name) for name in per_layer_names()}
        correct = failed == 0 and run["restored"]
    else:
        runs = [spawn(workload, seed, seconds / SETUPS, str(i), 0, deadline)
                for i in range(SETUPS)]
        ops = [op for r in runs for op in r["ops"]]
        attempted, failed, shares = outcomes(runs, ops)
        p50, p75 = percentiles(ops)
        metrics = {"op_s.p50": p50, "op_s.p75": p75, "ops_per_s": ops_per_s(ops),
                   "setup_s": statistics.median(r["setup_s"] * speed_factor(r["ops"])
                                                for r in runs),
                   "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in runs)}
        units = dict(END_TO_END)
        correct = failed == 0
        for name, value in shares.items():
            print(f"{workload}: {name} = {value:.6g} {OUTCOMES[name]}")
        wall = percentiles(ops, time=lambda op: op["s"])
        print(f"{workload}: wall-clock op_s.p50 = {wall[0]:.6g} s, op_s.p75 = {wall[1]:.6g} s, "
              f"setup_s = {statistics.median(r['setup_s'] for r in runs):.6g} s; "
              f"reference median = {statistics.median(op['ref'] for op in ops):.6g} s")
    for op in [r["cold"] for r in runs] + ops:
        if op["error"]:
            print(f"{workload}: failed op: {op['error']}", file=sys.stderr)
    for name in units:
        print(f"{workload}: {name} = {metrics[name]:.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
