"""File formats: exact point sets, invariant vectors, and reports.

The shared point-set document is

    {"ambient_dim": d, "points": [["num/den", ...], ...]}

with every coordinate a decimal-integer fraction string; parsing and
formatting round-trip exactly. Reports embed the run configuration so any
result can be reproduced from the file alone.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any, Sequence

from .errors import InvalidInput
from .projective import Configuration, ProjectivePoint


def format_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a fraction string: {s!r}") from exc


def point_to_json(p: ProjectivePoint) -> list[str]:
    return [format_fraction(c) for c in p.coords]


def point_from_json(coords: Sequence) -> ProjectivePoint:
    if not isinstance(coords, (list, tuple)):
        raise InvalidInput(f"a point must be a list of coordinates, not {coords!r}")
    return ProjectivePoint([parse_fraction(str(c)) for c in coords])


def configuration_to_json(c: Configuration) -> dict[str, Any]:
    return {"ambient_dim": c.ambient_dim, "points": [point_to_json(p) for p in c.points]}


def configuration_from_json(doc: dict) -> Configuration:
    if not isinstance(doc, dict) or "points" not in doc:
        raise InvalidInput("point-set document needs a 'points' field")
    if not isinstance(doc["points"], list):
        raise InvalidInput("'points' must be a list of points")
    c = Configuration([point_from_json(p) for p in doc["points"]])
    dim = doc.get("ambient_dim", c.ambient_dim)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InvalidInput(f"ambient_dim must be an integer, not {dim!r}")
    if dim != c.ambient_dim:
        raise InvalidInput("ambient_dim does not match the coordinates")
    return c


def matrix_to_json(m: Sequence[Sequence]) -> list[list[str]]:
    return [[format_fraction(x) for x in row] for row in m]


def parse_inline_point(text: str) -> ProjectivePoint:
    """Parse '43,-50,6,-5' or '43:-50:6:-5' (fraction entries allowed)."""
    sep = ":" if ":" in text else ","
    parts = [p for p in text.split(sep) if p.strip()]
    if len(parts) < 2:
        raise InvalidInput(f"cannot parse point from {text!r}")
    return ProjectivePoint([parse_fraction(p) for p in parts])


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise InvalidInput(f"{path} is not a JSON document: {exc}") from exc


def load_configuration(path: str) -> Configuration:
    return configuration_from_json(_read_json(path))


def load_point(text_or_path: str) -> ProjectivePoint:
    """A center given inline or as a JSON file ({'point': [...]} or a list)."""
    if os.path.exists(text_or_path):
        doc = _read_json(text_or_path)
        if isinstance(doc, dict):
            doc = doc.get("point", doc.get("center"))
        if doc is None:
            raise InvalidInput(f"no point found in {text_or_path}")
        return point_from_json(doc)
    return parse_inline_point(text_or_path)


def atomic_write_json(path: str, doc: Any) -> None:
    """Write JSON to a temporary file and rename it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
