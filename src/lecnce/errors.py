"""Exception types shared across the package, and its file helpers.

Each class names one contract, and each contract has one class: a wrong
shape raises :class:`DimMismatchError`, a non-finite value
:class:`NonFiniteError`, and an out-of-range config field or function
argument :class:`FieldValueError` naming it.  Callers can catch the narrow
type or the common :class:`LecnceError` base.  The readers :func:`read_text`
and :func:`read_json` name the file in their errors; :func:`write_file` is
the one writer of every file the package writes.
"""

import json
import os
import sys
from contextlib import suppress


class LecnceError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(LecnceError):
    """A vector with (near-)zero norm was passed where a direction is required."""


class DimMismatchError(LecnceError):
    """Operand shapes do not chain, paired arrays disagree in shape, or encoder layer dims are invalid."""


class NonFiniteError(LecnceError):
    """A computation produced or encountered a non-finite value, a training loss included."""


class EmptyMatrixError(LecnceError):
    """A matrix with zero rows or columns where at least one cell is required."""


class RowNotNormalizedError(LecnceError):
    """An embedding row deviates from unit norm beyond tolerance."""


class MissingCacheError(LecnceError):
    """Backward pass invoked without a cached forward pass."""


class KExceedsCorpusError(LecnceError):
    """Recall@k requested with k larger than the candidate set."""


class SingleClassError(LecnceError):
    """Linear probing needs at least two classes in the training labels."""


class FieldValueError(LecnceError, ValueError):
    """A config field or function argument holds a value outside its valid range; ``field`` names it."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field, self.requirement = field, requirement


def check_minimums(obj, **minimums) -> None:
    """Raise :class:`FieldValueError` for the first field of ``obj`` below its minimum, infinite or NaN."""
    for name, low in minimums.items():
        if not low <= getattr(obj, name) < float("inf"):
            raise FieldValueError(name, f"must be finite and >= {low}, got {getattr(obj, name)}")


def check_positive(name: str, value) -> None:
    """Raise :class:`FieldValueError` naming ``name`` unless ``value`` is finite and > 0."""
    if not 0 < value < float("inf"):
        raise FieldValueError(name, f"must be finite and > 0, got {value}")


class MissingLevelDataError(LecnceError):
    """A training run needs samples at every scheduled level."""


class InputError(LecnceError):
    """A file or value given on the command line is invalid; the CLI exits 1."""


class InfeasibleSpecError(InputError):
    """The generator cannot satisfy the requested concept geometry: a spec that loads but cannot be drawn."""


class CorruptFileError(InputError):
    """A dataset or checkpoint file is truncated, altered or in an unreadable format."""


class ConfigError(InputError):
    """A configuration file is malformed or carries unknown keys."""


class UnknownKeyError(ConfigError):
    """A configuration file names a key the schema does not define."""


def read_text(path, error: type[InputError] = InputError) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error: type[InputError] = InputError):
    """The JSON value in the file at ``path``; text that is not UTF-8 or not JSON raises ``error`` naming the file."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} line {exc.lineno} column {exc.colno}: not valid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise error(f"{path}: not valid JSON ({exc})") from None


def write_file(path, data) -> None:
    """Write ``data`` (str as UTF-8, or bytes) via ``<path>.tmp`` and ``os.replace``: ``path`` is whole or as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):  # moved in, or never made
            os.remove(tmp)


def is_a(value, hint) -> bool:
    """Whether the JSON value ``value`` has the scalar type ``hint``: a bool is not a number, a float is finite."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))
