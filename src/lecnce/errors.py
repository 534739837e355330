"""Exception types shared across the package.

Each class names one contract violation; callers can catch the narrow type
or the common :class:`LecnceError` base.
"""

import json


class LecnceError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(LecnceError):
    """A vector with (near-)zero norm was passed where a direction is required."""


class DimMismatchError(LecnceError):
    """Operand shapes do not chain."""


class NonPositiveTemperatureError(LecnceError):
    """Softmax temperature must be strictly positive."""


class NonFiniteError(LecnceError):
    """A computation produced or encountered a non-finite value."""


class EmptyMatrixError(LecnceError):
    """A matrix with zero rows or columns where at least one cell is required."""


class PathMismatchError(LecnceError):
    """An alignment path refers to cells outside its cost matrix."""


class EmptyPositiveSetError(LecnceError):
    """A contrastive row has no positive targets."""


class RowNotNormalizedError(LecnceError):
    """An embedding row deviates from unit norm beyond tolerance."""


class ShapeMismatchError(LecnceError):
    """Paired arrays disagree in shape."""


class EmptyChildSequenceError(LecnceError):
    """A hierarchical sample carries no child texts."""


class BadDimsError(LecnceError):
    """Encoder layer dimensions are invalid."""


class MissingCacheError(LecnceError):
    """Backward pass invoked without a cached forward pass."""


class EmptyWordError(LecnceError):
    """Edit-candidate generation needs a non-empty word."""


class EmptyCorpusError(LecnceError):
    """Similarity-based assignment needs a non-empty step list."""


class KExceedsCorpusError(LecnceError):
    """Recall@k requested with k larger than the candidate set."""


class SingleClassError(LecnceError):
    """Linear probing needs at least two classes in the training labels."""


class LengthMismatchError(LecnceError):
    """Predictions and labels differ in length."""


class FieldValueError(LecnceError, ValueError):
    """A config dataclass field holds a value outside its valid range; ``field`` names it."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field, self.requirement = field, requirement


def check_minimums(obj, **minimums) -> None:
    """Raise :class:`FieldValueError` for the first field of ``obj`` below its minimum, infinite or NaN."""
    for name, low in minimums.items():
        if not low <= getattr(obj, name) < float("inf"):
            raise FieldValueError(name, f"must be finite and >= {low}, got {getattr(obj, name)}")


class AllZeroScheduleError(FieldValueError):
    """Training schedule has zero batches at every level."""


class MissingLevelDataError(LecnceError):
    """A training run needs samples at every scheduled level."""


class NonFiniteLossError(LecnceError):
    """A training step produced a non-finite loss."""


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


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise :class:`InputError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error: type[InputError] = InputError):
    """The JSON value in the file at ``path``; text that is not JSON raises ``error`` naming the file, line and column."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise error(f"{path} line {exc.lineno} column {exc.colno}: not valid JSON ({exc.msg})") from None
