"""Exception hierarchy shared by all gridwatch modules, the one reader of
input files, and the reader of their boolean, numeric and string fields.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error JSON without string-matching messages.
"""

import json
from pathlib import Path


class GridwatchError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class ValidationError(GridwatchError):
    """Input fails a schema or precondition check."""

    code = "VALIDATION_ERROR"


class ParseError(ValidationError):
    """A configuration or data file is malformed."""

    code = "PARSE_ERROR"


class InvariantViolation(ValidationError):
    """A loaded object violates one of its declared invariants."""

    code = "INVARIANT_VIOLATION"


class RangeTooSmall(ValidationError):
    """Smallest sensor range cannot guarantee per-block coverage for the chosen block size."""

    code = "RANGE_TOO_SMALL"


class DimensionMismatch(ValidationError):
    """Terrain grid shape disagrees with the computed block grid."""

    code = "DIMENSION_MISMATCH"


class DegenerateDetection(GridwatchError):
    """Mean detection probability of 1, or so near 0 that the unit count overflows."""

    code = "DEGENERATE_DETECTION"


class InfeasibleCoverage(GridwatchError):
    """Some in-area blocks cannot be covered by any (sensor, site) pair."""

    code = "INFEASIBLE_COVERAGE"

    def __init__(self, uncovered, message=None):
        self.uncovered = tuple(uncovered)
        if message is None:
            shown = ", ".join(str(z) for z in self.uncovered[:10])
            more = "" if len(self.uncovered) <= 10 else f" (+{len(self.uncovered) - 10} more)"
            message = f"{len(self.uncovered)} block(s) uncovered by every candidate: {shown}{more}"
        super().__init__(message)


class Infeasible(GridwatchError):
    """A placement instance admits no feasible assignment."""

    code = "INFEASIBLE"


class TooLarge(GridwatchError):
    """Input exceeds a size limit: the coverage table's work cap
    (``coverage.MAX_COVERAGE_WORK``), the cash-flow horizon guard
    (``econ.MAX_HORIZON_YEARS``) or the exhaustive oracle solver's candidate
    limit (``solver.MAX_BRUTE_CANDIDATES``)."""

    code = "TOO_LARGE"


class VolumeAboveTopTier(GridwatchError):
    """Yearly data volume exceeds the top ingest tier and no overflow rate is configured."""

    code = "VOLUME_ABOVE_TOP_TIER"


def read_input(path, what: str, as_json: bool = True):
    """Parsed JSON of the input file at ``path``, or its text when ``as_json`` is
    false.  ``what`` names the file in the message of the :class:`ParseError`
    raised for an unreadable, non-UTF-8 or malformed-JSON file, a JSON integer
    too long to convert included."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # json.JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"invalid {what} JSON in {path}: {exc}") from None


def read_field(value, kind: type, name: str):
    """A parsed JSON field ``value`` as a ``bool``, an ``int``, a ``float`` or
    a ``str``, per ``kind``.  A bool must be JSON ``true`` or ``false``; an int
    a JSON integer or a number with no fractional part, such as ``10.0``; a
    float any JSON number, ``NaN`` and ``Infinity`` included, for the caller's
    range checks, save an integer past the float range; a str a JSON string.
    Anything else, ``null`` included, a string where a number is wanted and a
    bool where a number or a string is wanted, is a :class:`ParseError`
    naming the field ``name``:
    ``bool("false")`` is true, ``int(10.9)`` is 10, ``float(True)`` is 1.0 and
    ``str(None)`` is ``"None"``."""
    if isinstance(value, bool):
        if kind is bool:
            return value
    elif kind is int and (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        return int(value)
    elif kind is float and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise ParseError(f"{name} must be a number within the float range, got an integer past it") from None
    elif kind is str and isinstance(value, str):
        return value
    wanted = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}[kind]
    raise ParseError(f"{name} must be {wanted}, got {json.dumps(value, default=repr)}")
