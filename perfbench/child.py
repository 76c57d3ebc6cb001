"""One workload run in a fresh interpreter, started by run.py.

Set-up is the import of ``centersvar`` from the checkout's ``src``, building
the inputs and one untimed cold op on an extra instance, the same in every run. Then ops run in a
closed loop with one client until the time is up. One op is one
``centersvar.cli.main(argv)`` call, timed from call to return; its inputs
are written before the timer starts and its output is checked after it
stops. With ``--trace 1`` the loop runs half the time untraced and half
traced, and the tracing wrappers are removed again before the process ends.

The measurements are written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import resource
import shutil
import sys
import time
import warnings
from fractions import Fraction

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_rng = random.Random(5)
_REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(16)] for _ in range(16)]


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation: Fraction Gauss-Jordan on 16 x 16.

    The host's speed drifts by a third within minutes; this yardstick,
    timed next to every op, drifts with it (see run.py). It runs with the
    garbage collector off so that the program's heap does not change it.
    """
    m = [row[:] for row in _REFERENCE_MATRIX]
    gc.disable()
    start = time.perf_counter()
    for c in range(len(m)):
        p = next(i for i in range(c, len(m)) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def run_op(call, w, seed: int, stream: str, index: int, workdir: str) -> dict:
    """Prepare, time and check one op."""
    argv, inst = workloads.prepare(w, seed, stream, index, workdir)
    out = argv[argv.index("-o") + 1]
    with contextlib.suppress(FileNotFoundError):
        os.unlink(out)
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a failed benchmark
            code = repr(exc)
        elapsed = time.perf_counter() - start
    op = {"s": elapsed, "ok": False, "uncertified": False, "error": None,
          "warnings": sum(issubclass(c.category, RuntimeWarning) for c in caught)}
    if code != 0:
        op["error"] = f"exit {code}: {sink.getvalue()[:300]}"
        return op
    try:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        op["uncertified"] = workloads.verify(w, report, inst)
        op["ok"] = True
    except (check.CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        op["error"] = f"check: {exc!r}"
    return op


def closed_loop(call, w, seed, stream, first, seconds, workdir) -> list[dict]:
    """Ops one after another; each records the mean reference time on its two sides."""
    ops = []
    start = monotonic()
    before = reference()
    while not ops or monotonic() - start < seconds:
        op = run_op(call, w, seed, stream, first + len(ops), workdir)
        after = reference()
        op["ref"] = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--stream", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import centersvar.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"centersvar was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import tracing

    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # The cold op's instance is the same in every run, so that setup_s
        # measures set-up rather than the luck of one instance.
        cold = run_op(cli.main, w, 0, "cold", 0, workdir)
        setup_end = monotonic()
        for _ in range(3):  # let the interpreter specialise the yardstick before it counts
            reference()
        result = {"setup_end": setup_end, "cold": cold}
        if not args.trace:
            result["ops"] = closed_loop(cli.main, w, args.seed, args.stream, 1,
                                        args.seconds, workdir)
        else:
            half = args.seconds / 2
            result["ops"] = closed_loop(cli.main, w, args.seed, args.stream, 1, half, workdir)
            recorder = tracing.Recorder()
            op_ids = itertools.count()
            with tracing.traced(recorder) as patches:
                traced_ops = closed_loop(
                    lambda a: recorder.call_op(next(op_ids), cli.main, a),
                    w, args.seed, args.stream, 1 + len(result["ops"]), half, workdir)
            result["traced_ops"] = traced_ops
            result["restored"] = tracing.restored(patches)
            result["layers"] = tracing.layer_metrics(recorder, traced_ops)
            recorder.write(os.path.join(OUT_DIR, f"spans-{w.name}.npz"))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
