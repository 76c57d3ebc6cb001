"""Per-layer tracing from outside the program.

Each traced function is wrapped at every name it is bound to in the
``centersvar`` modules (so calls through ``from ... import`` bindings are
seen too) and, for methods, on its class. A wrapper records one span per
call: name, start, end, parent span and op id. Spans stay in memory until
the run ends. Self time is a span's duration minus the time its child spans
cover; inclusive time counts only the outermost span of a recursive chain.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# label -> the per-op metrics reported for it
TARGETS: dict[str, tuple[str, ...]] = {
    "linalg.det": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s"),
    "linalg.kernel_basis": ("calls",),
    "linalg.inverse": ("calls",),
    "forms.fit_form": ("calls", "self_s"),
    "forms.Form.compose_linear": ("calls", "incl_s"),
    "forms.binary_gcd": ("calls", "self_s"),
    "invariants.lifted_quadrics": ("calls", "incl_s"),
    "invariants.t6_lifted": ("calls", "incl_s"),
    "invariants.fano15_lifted": ("calls", "incl_s"),
    "loci.centers_variety": ("incl_s",),
    "loci.quadric_pair_n6": ("calls", "incl_s"),
    "loci.cubic_locus_n5": ("calls", "incl_s"),
    "loci.cubic_param_n5": ("calls",),
    "loci.restrict_to_param": ("self_s",),
    "loci.map_a_to_b_n6": ("calls", "incl_s"),
    "loci.sample_surface_point": ("calls",),
    "loci.candidates_n7": ("incl_s",),
    "loci.pair_candidates_n7": ("incl_s",),
    "numeric.solve_quadric_system": ("calls", "incl_s"),
    "numeric.certify_rational": ("calls", "incl_s"),
    "numeric.exact_newton_polish": ("incl_s",),
    "projective.stability_class": ("incl_s",),
    "projective.center_admissible": ("calls", "incl_s"),
    "projective.normalizing_transform": ("calls",),
    "datagen.generate_reconstruction": ("incl_s",),
    "io.load_configuration": ("incl_s",),
    "io.atomic_write_json": ("incl_s",),
    "cli.cmd_centers": ("self_s",),
}

# Ratios and per-op counts derived from the spans and the op records.
DERIVED = ("loci.map_attempts_per_map", "numeric.certified_ratio", "numeric.runtime_warnings")

OP = "op"  # the benchmark's own root span around each cli.main call


def metric_names() -> list[str]:
    return [f"{label}.{kind}" for label, kinds in TARGETS.items() for kind in kinds] + list(DERIVED)


class Recorder:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.labels = [OP] + list(TARGETS)
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.non_none = [0] * len(self.labels)
        self.op_id = -1
        self._stack: list[int] = []
        self._active = [0] * len(self.labels)

    def wrap(self, fn, label_id: int):
        names, starts, ends, parents, ops, outer = (
            self.name, self.start, self.end, self.parent, self.op, self.outer)
        stack, active, non_none, clock = self._stack, self._active, self.non_none, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            outer.append(active[label_id] == 0)
            ends.append(0)
            active[label_id] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[label_id] -= 1
            if result is not None:
                non_none[label_id] += 1
            return result

        return wrapper

    def call_op(self, op_id: int, fn, *args):
        """Run one op under a root span."""
        self.op_id = op_id
        return self.wrap(fn, 0)(*args)

    def write(self, path: str) -> None:
        """Write the spans out (numpy .npz: one array per field, plus the labels)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, labels=np.array(self.labels), name=np.frombuffer(self.name, "i4"),
                 start_ns=np.frombuffer(self.start, "i8"), end_ns=np.frombuffer(self.end, "i8"),
                 parent=np.frombuffer(self.parent, "i4"), op=np.frombuffer(self.op, "i4"))

    def per_op(self, n_ops: int) -> dict[str, dict[str, float]]:
        """calls, incl_s and self_s per op for every label."""
        k = len(self.labels)
        name = np.frombuffer(self.name, "i4")
        parent = np.frombuffer(self.parent, "i4")
        outer = np.frombuffer(self.outer, "i1").astype(bool)
        dur = (np.frombuffer(self.end, "i8") - np.frombuffer(self.start, "i8")).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        n = max(n_ops, 1)
        return {lab: {"calls": float(calls[i]) / n, "incl_s": float(incl[i]) / n / 1e9,
                      "self_s": float(own[i]) / n / 1e9}
                for i, lab in enumerate(self.labels)}


def layer_metrics(recorder: Recorder, ops: list[dict]) -> dict[str, float]:
    """Every per-layer metric, per traced op."""
    per_op = recorder.per_op(len(ops))
    values = {f"{label}.{kind}": per_op[label][kind]
              for label, kinds in TARGETS.items() for kind in kinds}
    maps = per_op["loci.map_a_to_b_n6"]["calls"]
    values["loci.map_attempts_per_map"] = per_op["loci.cubic_param_n5"]["calls"] / maps if maps else 0.0
    certify = recorder.labels.index("numeric.certify_rational")
    tries = per_op["numeric.certify_rational"]["calls"] * max(len(ops), 1)
    values["numeric.certified_ratio"] = recorder.non_none[certify] / tries if tries else 0.0
    values["numeric.runtime_warnings"] = sum(op["warnings"] for op in ops) / max(len(ops), 1)
    return values


def _resolve(label: str):
    """(owner, attribute, function, is_method) for a label like 'forms.Form.compose_linear'."""
    module, *path = label.split(".")
    owner = importlib.import_module(f"centersvar.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], vars(owner)[path[-1]], len(path) > 1


@contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore every binding."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "centersvar" or name.startswith("centersvar.")]
    patches: list[tuple[object, str, object]] = []
    try:
        for label_id, label in enumerate(recorder.labels[1:], start=1):
            owner, attr, fn, is_method = _resolve(label)
            wrapper = recorder.wrap(fn, label_id)
            holders = [(owner, attr)] if is_method else [
                (m, name) for m in modules for name, value in vars(m).items() if value is fn]
            for holder, name in holders:
                patches.append((holder, name, fn))
                setattr(holder, name, wrapper)
        yield patches
    finally:
        for holder, name, fn in reversed(patches):
            setattr(holder, name, fn)


def restored(patches) -> bool:
    """Whether every patched binding holds its original function again."""
    return all(vars(holder)[name] is fn for holder, name, fn in patches)
