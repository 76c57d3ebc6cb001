"""Command-line front end.

Subcommands mirror the library pipelines: ``project``, ``invariants``,
``equiv``, ``centers``, ``generate``, ``classify``. All inputs are exact
point-set JSON files; reports embed the run configuration, are written
atomically, and use fraction strings for every exact number.

Exit codes: 0 success, 2 invalid or inadmissible input, 3 inconclusive,
4 internal inconsistency (a verification failed).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Any

from . import io as cio
from .datagen import DEGENERATE_KINDS, generate_degenerate, generate_reconstruction
from .errors import InadmissibleCenter, InvalidInput, ToolkitError
from .forms import Form, moment_positions
from .invariants import InvariantVector, fano15, g5, t6
from .loci import (CubicFibrationN5, EmptyN8, EverythingN4, MatchedPair,
                   SurfacePairN6, ThreePairsN7, centers_variety,
                   classify_degeneration_n5)
from .numeric import NumericPoint
from .projective import Configuration, decide_equivalence, project


def _seed_default() -> int:
    try:
        return int(os.environ.get("CENTERSVAR_SEED", 0))
    except ValueError:
        raise InvalidInput("CENTERSVAR_SEED must be an integer")


def _numeric_point_json(p: NumericPoint) -> dict[str, Any]:
    return {
        "coords_real": ["%.17g" % c.real for c in p.coords],
        "coords_imag": ["%.17g" % c.imag for c in p.coords],
        "residual": "%.3e" % p.residual,
        "is_real": p.is_real,
        "exact": cio.point_to_json(p.exact) if p.exact is not None else None,
    }


def _pair_json(m: MatchedPair) -> dict[str, Any]:
    return {
        "a": _numeric_point_json(m.a),
        "b": _numeric_point_json(m.b),
        "invariant_distance": "%.3e" % m.invariant_distance,
    }


def _form_json(f: Form) -> list[str]:
    return [cio.format_fraction(c) for c in f.coeffs]


def _sym_json(q: Form) -> list[list[str]]:
    """The symmetric matrix S of z^T S z = q, written straight from the int
    coefficients c of a quadric: c on the diagonal, c / 2 off it ("c/2"
    when c is odd), the strings format_fraction gives."""
    c = q.coeffs
    return [[str(c[k]) if i == j else f"{c[k]}/2" if c[k] % 2 else str(c[k] // 2)
             for j, k in enumerate(row)] for i, row in enumerate(moment_positions())]


def _invariant_json(v: InvariantVector) -> dict[str, Any]:
    canon = v.canonical()
    return {
        "kind": v.kind,
        "values": [cio.format_fraction(c) for c in canon.values],
        "non_semistable": v.non_semistable,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_project(args) -> dict[str, Any]:
    world = cio.load_configuration(args.input)
    center = cio.load_point(args.center)
    if center in world.points:
        raise InadmissibleCenter("center coincides with a world point")
    image = Configuration([project(x, center) for x in world])
    doc = cio.configuration_to_json(image)
    doc["config"] = {"command": "project", "input": args.input,
                     "center": cio.point_to_json(center)}
    return doc


def cmd_invariants(args) -> dict[str, Any]:
    image = cio.load_configuration(args.input)
    kinds = {"N5": (5, g5), "N6": (6, t6), "N7": (7, fano15)}
    n, fn = kinds[args.kind]
    if image.n != n:
        raise InvalidInput(f"kind {args.kind} needs {n} points, file has {image.n}")
    doc = _invariant_json(fn(image))
    doc["config"] = {"command": "invariants", "input": args.input, "kind": args.kind}
    return doc


def cmd_equiv(args) -> dict[str, Any]:
    p = cio.load_configuration(args.input)
    q = cio.load_configuration(args.second)
    verdict = decide_equivalence(p, q)
    doc = {"equivalent": verdict.equivalent, "certainty": verdict.certainty,
           "witness": cio.matrix_to_json(verdict.witness) if verdict.witness is not None else None}
    doc["config"] = {"command": "equiv", "input": args.input, "second": args.second}
    return doc


def _centers_payload(result) -> dict[str, Any]:
    if isinstance(result, EverythingN4):
        return {"variant": "EverythingN4",
                "a": cio.point_to_json(result.a), "b": cio.point_to_json(result.b),
                "witness": cio.matrix_to_json(result.witness)}
    if isinstance(result, CubicFibrationN5):
        cubic = {
            "monomial_order": "graded-lex(z0,z1,z2,z3)",
            "quadrics": [_form_json(qf) for qf in result.cubic.quadrics],
            "base_points": [cio.point_to_json(bp) for bp in result.cubic.base_points],
            "param": ([[cio.format_fraction(c) for c in bf.coeffs]
                       for bf in result.cubic.param]
                      if result.cubic.param is not None else None),
        }
        return {"variant": "CubicFibrationN5",
                "given_center": cio.point_to_json(result.given_center),
                "degeneration": result.degeneration.value,
                "cubic": cubic}
    if isinstance(result, SurfacePairN6):
        return {"variant": "SurfacePairN6",
                "S_beta": {"sym": _sym_json(result.s_beta)},
                "S_alpha": {"sym": _sym_json(result.s_alpha)},
                "sampled_pairs": [{"a": cio.point_to_json(a), "b": cio.point_to_json(b)}
                                  for a, b in result.sampled_pairs],
                "given_center": (cio.point_to_json(result.given_center)
                                 if result.given_center else None),
                "matched_b": (cio.point_to_json(result.matched_center)
                              if result.matched_center else None)}
    if isinstance(result, ThreePairsN7):
        return {"variant": "ThreePairsN7",
                "pairs": [_pair_json(m) for m in result.pairs],
                "a_quadrics": [_form_json(qf) for qf in result.candidates.a_quadrics],
                "b_quadrics": [_form_json(qf) for qf in result.candidates.b_quadrics]}
    assert isinstance(result, EmptyN8)
    return {"variant": "EmptyN8",
            "span_rank": result.span_rank,
            "surviving": [{"a": cio.point_to_json(a), "b": cio.point_to_json(b)}
                          for a, b in result.surviving],
            "empty": not result.surviving}


def cmd_centers(args) -> dict[str, Any]:
    x = cio.load_configuration(args.input)
    y = cio.load_configuration(args.second)
    a = cio.load_point(args.center) if args.center else None
    b = cio.load_point(args.center_b) if args.center_b else None
    doc = _centers_payload(centers_variety(x, y, a=a, b=b))
    doc["n"] = x.n
    doc["config"] = {"command": "centers", "input": args.input, "second": args.second,
                     "center": cio.point_to_json(a) if a else None,
                     "center_b": cio.point_to_json(b) if b else None}
    return doc


def cmd_generate(args) -> dict[str, Any]:
    if args.degenerate is not None:
        out = generate_degenerate(args.degenerate, seed=args.seed, n=args.n)
        cfg, center = out if isinstance(out, tuple) else (out, None)
        doc: dict[str, Any] = cio.configuration_to_json(cfg)
        if center is not None:
            doc["center"] = cio.point_to_json(center)
        doc["config"] = {"command": "generate", "degenerate": args.degenerate,
                         "seed": args.seed, "n": cfg.n}
        return doc
    if args.n is None:
        raise InvalidInput("generate needs --n (or --degenerate KIND)")
    rec = generate_reconstruction(args.n, seed=args.seed, coord_bound=args.bound)
    return {
        "config": {"command": "generate", "n": args.n, "seed": args.seed,
                   "bound": args.bound},
        "X": cio.configuration_to_json(rec.x),
        "Y": cio.configuration_to_json(rec.y),
        "ground_truth": {
            "a": cio.point_to_json(rec.a_true),
            "b": cio.point_to_json(rec.b_true),
            "Aprime": cio.matrix_to_json(rec.aprime),
            "Bprime": cio.matrix_to_json(rec.bprime),
            "Z": cio.configuration_to_json(rec.z),
        },
    }


def cmd_classify(args) -> dict[str, Any]:
    x = cio.load_configuration(args.input)
    a = cio.load_point(args.center)
    tag = classify_degeneration_n5(x, a)
    return {"tag": tag.value,
            "config": {"command": "classify", "input": args.input,
                       "center": cio.point_to_json(a)}}


# ---------------------------------------------------------------------------
# driver


def _render_text(doc: dict[str, Any], indent: str = "") -> str:
    lines = []
    for key, value in doc.items():
        if key == "config":
            continue
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + "  "))
                lines.append(indent + "  --")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _emit(args, doc: dict[str, Any]) -> None:
    out = getattr(args, "out", None)
    if out and args.format == "json":
        cio.atomic_write_json(out, doc)
    elif out:
        cio._atomic_write(out, _render_text(doc) + "\n")
    else:
        print(_render_text(doc) if args.format == "text" else cio.json_text(doc),
              flush=True)


def _stdout_closed() -> int:
    """The exit code of a run whose reader closed stdout: 2, as for any
    IOError. No document can reach the reader, so none is written, and stdout
    is pointed at os.devnull so that the flush at exit cannot fail again."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    return 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise InvalidInput, so a bad command
    line ends in an error document; its subcommand parsers share its class."""

    def error(self, message: str):
        raise InvalidInput(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(
        prog="centersvar",
        description="Ambiguous camera-center loci for point configurations in P^3.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, second=False, center=None):  # center: "required", "optional" or None
        p.add_argument("--input", "-i", required=True, help="point-set JSON file")
        if second:
            p.add_argument("--second", "-j", required=True, help="second point-set JSON file")
        if center:
            p.add_argument("--center", required=center == "required",
                           help="center: inline coords or JSON file")
        p.add_argument("--out", "-o", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("project", help="project a world configuration through a center")
    common(p, center="required")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("invariants", help="invariant vector of a plane configuration")
    common(p)
    p.add_argument("--kind", required=True, choices=("N5", "N6", "N7"))
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("equiv", help="decide projective equivalence of two images")
    common(p, second=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("centers", help="compute the centers-variety report")
    common(p, second=True, center="optional")
    p.add_argument("--center-b", help="second center (n <= 4 witness)")
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("generate", help="generate a ground-truth instance")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--degenerate", choices=DEGENERATE_KINDS)
    p.add_argument("--out", "-o")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="classify the five-point locus degeneration")
    common(p, center="required")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _seed_default()
        if hasattr(args, "seed") and args.seed < 0:
            raise InvalidInput("the seed (--seed or CENTERSVAR_SEED) must be non-negative")
        _emit(args, args.func(args))
    except BrokenPipeError:
        return _stdout_closed()
    except (ToolkitError, OSError) as exc:
        toolkit = isinstance(exc, ToolkitError)
        err = {"code": exc.code if toolkit else "IOError", "message": str(exc)}
        if toolkit and exc.details:
            err["details"] = exc.details
        try:
            print(cio.json_text({"error": err}), flush=True)
        except BrokenPipeError:
            return _stdout_closed()
        return exc.exit_code if toolkit else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
