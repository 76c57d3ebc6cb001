"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` that the CLI maps to
exit codes (2 = invalid/inadmissible input, 3 = inconclusive,
4 = internal inconsistency).
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    code = "ToolkitError"
    exit_code = 2

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.code)
        self.details = details


class InvalidInput(ToolkitError):
    code = "InvalidInput"


class CenterHit(ToolkitError):
    """Projection center coincides with the point being projected."""

    code = "CenterHit"


class DegenerateInput(ToolkitError):
    """Input fails a general-position precondition."""

    code = "DegenerateInput"


class InadmissibleCenter(ToolkitError):
    """Center lies on the indeterminacy locus for the requested operation."""

    code = "InadmissibleCenter"


class DegenerateCurve(ToolkitError):
    """The curve is not a smooth twisted cubic, so it cannot be parametrized."""

    code = "DegenerateCurve"


class NoRationalImage(ToolkitError):
    """A first center has no unique rational matched center."""

    code = "NoRationalImage"
    exit_code = 2


class Inconsistent(ToolkitError):
    """A computed result failed its own exact verification."""

    code = "Inconsistent"
    exit_code = 4


class NotFinite(ToolkitError):
    """The common zero locus of the given forms is not certified finite: for
    quadrics in P^3, H(2) != H(3) or H(2) > 3 (H the Hilbert function of the
    ideal, computed mod p)."""

    code = "NotFinite"


class AmbiguousMatch(ToolkitError):
    """n = 7 candidates could not be paired: the omega filter keeps unequal
    counts, or a resected center has no b-candidate within 1e-6, two, or one taken."""

    code = "AmbiguousMatch"
    exit_code = 4


class GenerationFailed(ToolkitError):
    """Rejection sampling exhausted its budget."""

    code = "GenerationFailed"


class Inconclusive(ToolkitError):
    """Neither the exact witness path nor invariants can decide."""

    code = "Inconclusive"
    exit_code = 3
