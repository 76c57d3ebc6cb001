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
import stat
import tempfile
from fractions import Fraction
from typing import Any, Sequence

from .errors import InvalidInput
from .projective import Configuration, ProjectivePoint


def format_fraction(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> int | Fraction:
    """An int for an integer string, a Fraction for "p/q"."""
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return int(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a fraction string: {s!r}") from exc


def point_to_json(p: ProjectivePoint) -> list[str]:
    """The coordinates as strings: they are ints (canonical_coords), and str
    of an int is its format_fraction."""
    return [str(c) for c in p.coords]


def point_from_json(coords: Sequence) -> ProjectivePoint:
    """The point of a list of coordinates, each read as parse_fraction(str(c))
    reads it. When every coordinate is a string that int accepts, int gives
    what parse_fraction would (it strips the same whitespace, and such a
    string holds no "/"), so the point is read with int alone."""
    if not isinstance(coords, (list, tuple)):
        raise InvalidInput(f"a point must be a list of coordinates, not {coords!r}")
    if all(type(c) is str for c in coords):
        try:
            return ProjectivePoint(list(map(int, coords)))
        except ValueError:
            pass
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
    """The JSON document in a UTF-8 file, read as open(path, encoding="utf-8")
    reads it: the bytes are decoded once, a BOM is kept (and refused by
    json), and every line ending becomes a newline."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
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


def _mode_for(path: str) -> int:
    """The mode open(path, "w") leaves: path's own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str, text: str) -> None:
    """Write text as UTF-8 to a temporary file beside path, through an
    unbuffered file that is written until every byte is in, and rename it
    into place: path holds the old file or the whole text, never a part of
    it, with the mode of open(path, "w") (_mode_for), not mkstemp's 0o600.
    No temporary file is left behind, and an OSError names path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb", buffering=0) as fh:
            os.fchmod(fd, _mode_for(path))
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[fh.write(data):]
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _encode(value: Any, newline: str) -> str:
    """The indent-2 text of value, nested at the indent newline ends with.
    A value of any other type, or a dict key that is not a string, raises
    TypeError."""
    kind = type(value)
    if kind is str:
        return _ESCAPE(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join([
            _ESCAPE(key) + ": " + _encode(item, inner) for key, item in value.items()])
            + newline + "}")
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        if type(value[0]) is str:
            try:  # a list of strings, escaped and joined in one call
                return "[" + inner + ("," + inner).join(map(_ESCAPE, value)) + newline + "]"
            except TypeError:
                pass
        return ("[" + inner + ("," + inner).join([_encode(item, inner) for item in value])
                + newline + "]")
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    raise TypeError(kind)


def json_text(doc: Any) -> str:
    """json.dumps(doc, indent=2), byte for byte, built in one pass.

    On Python 3.11 the C encoder runs only without an indent, so
    json.dumps(doc, indent=2) runs the pure-Python one, generator by
    generator. A report is nested dicts with str keys, lists and tuples of
    strings, ints, bools and None; those are written here with the C string
    escaper json.dumps itself uses, each list of strings escaped in one
    call. Anything else (a float, a subclass, a non-str key, a value
    json.dumps refuses, a nesting too deep) sends the whole document to
    json.dumps, so the text or the error is always that of json.dumps."""
    try:
        return _encode(doc, "\n")
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2)


def atomic_write_json(path: str, doc: Any) -> None:
    """Write json_text(doc) and a newline atomically (_atomic_write)."""
    _atomic_write(path, json_text(doc) + "\n")
