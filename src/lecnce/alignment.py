"""Monotone alignment between frame and text sequences over a cost matrix.

Two alignment algorithms are provided.  Greedy is a single backward trace
from the (T, N) corner, accumulating every visited cell; it is cheap but
not globally optimal.  DP is the classic dynamic program over an
accumulated-cost table, which gives the optimal cost.  Each has one
implementation, batched over a (B, T, N) stack of equal-shape matrices:
one lockstep walker traces the raw costs for greedy, or the accumulated
table of a vectorized wavefront for DP.  ``align_batch``, the one stack
entry, checks a stack and returns each matrix's cost and 0/1 path mask;
its core keeps the DP tables, whose corners are the costs, to backtrack
only the rows asked for.  ``dtw_greedy`` and ``dtw_dp``, the two
single-matrix entries, run the same code on one matrix and report its
cells as a 1-based path from (T, N) down to (1, 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimMismatchError, EmptyMatrixError, FieldValueError, NonFiniteError
from .numerics import as_matrix, as_stack


@dataclass(frozen=True)
class CostMatrix:
    """Non-negative T x N distance matrix between frames (rows) and texts (cols): its values, checked.

    The one check of a single matrix: a shape other than 2-D raises
    :class:`DimMismatchError`, no cells :class:`EmptyMatrixError`, a
    non-finite entry :class:`NonFiniteError` and a negative one
    :class:`FieldValueError` (see :func:`_non_negative`).
    """

    values: np.ndarray

    def __post_init__(self):
        values = as_matrix(self.values, "cost matrix")
        if values.size == 0:
            raise EmptyMatrixError(f"cost matrix must be at least 1x1, got shape {values.shape}")
        _non_negative(values[None])
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class AlignmentResult:
    """Alignment cost plus the visited cells, 1-based, from (T, N) to (1, 1)."""

    cost: float
    path: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def _values(c) -> np.ndarray:
    """The values of ``c``, a :class:`CostMatrix` or a raw array checked as one."""
    return (c if isinstance(c, CostMatrix) else CostMatrix(c)).values


def _non_negative(mats: np.ndarray) -> np.ndarray:
    """``mats``, a (B, T, N) stack; a negative entry raises :class:`FieldValueError` naming the first ``cost matrices[k]``."""
    negative = (mats < 0.0).any(axis=(1, 2))  # -0.0 passes
    if negative.any():
        raise FieldValueError(f"cost matrices[{int(np.argmax(negative))}]", "contains negative values")
    return mats


@functools.lru_cache(maxsize=64)
def _wavefront_plan(t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index maps between a padded (t+1, n+1) table and its skew.

    Row d of the skewed (t+n+1, n+1) table holds the anti-diagonal cells
    (d - j, j), so each wavefront step is one slice.  ``skew`` gathers the
    skewed table from the padded one (cells off the table read the padded
    corner (0, 0)); ``unskew`` gathers the padded table back.
    """
    d = np.arange(t + n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    i = d - j
    skew = np.where((i >= 0) & (i <= t), i * (n + 1) + j, 0)
    unskew = (np.arange(t + 1)[:, None] + j) * (n + 1) + j
    skew.setflags(write=False)
    unskew.setflags(write=False)
    return skew, unskew


def _padded(matrices) -> np.ndarray:
    """The (B, T, N) stack ``matrices``, checked (:func:`as_stack`, :func:`_non_negative`), in an inf border."""
    mats = _non_negative(as_stack(matrices, "cost matrices"))
    padded = np.full(np.add(mats.shape, (0, 1, 1)), np.inf)  # the inf border of the walk and the DP table
    padded[:, 1:, 1:] = mats
    return padded


def _accumulate(padded: np.ndarray) -> np.ndarray:
    """The skewed DP table of each matrix of an inf-padded stack, unchecked.

    Row 0 and column 0 of the (B, T+1, N+1) ``padded`` are the inf border; row d of a
    (T+N+1, N+1) skewed table holds the cells (d - j, j), so ``[:, -1, -1]`` is each DP cost.
    A cost that overflows raises :class:`NonFiniteError`.
    """
    b, t1, n1 = padded.shape
    v = padded.reshape(b, -1)[:, _wavefront_plan(t1 - 1, n1 - 1)[0]]
    acc = np.full_like(v, np.inf)
    acc[:, 0, 0] = -0.0  # v + (-0.0) == v bit for bit: each corner (1, 1) holds its own cost
    with np.errstate(over="ignore"):  # an overflowing cost raises below
        for d in range(2, t1 + n1 - 1):
            # min(diag, up, left), ordered so that ties keep the earlier operand
            best = np.minimum(acc[:, d - 1, :-1], np.minimum(acc[:, d - 1, 1:], acc[:, d - 2, :-1]))
            np.add(v[:, d, 1:], best, out=acc[:, d, 1:])
    if not np.all(np.isfinite(acc[:, -1, -1])):
        raise NonFiniteError("alignment cost overflows")
    return acc


def _dp_walk(tables: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The :func:`_walk` of each unskewed table from :func:`_accumulate`, and the padded shape it indexes."""
    b, d1, n1 = tables.shape
    t, n = d1 - n1, n1 - 1
    table = tables.reshape(b, d1 * n1)[:, _wavefront_plan(t, n)[1]]  # unskewed, (B, T+1, N+1)
    return _walk(table, t, n), table.shape


def _walk(table: np.ndarray, t: int, n: int) -> np.ndarray:
    """Flat positions visited by each matrix's trace from its (t, n) corner, one row per step.

    A cell moves to its least diagonal, up or left neighbour in the padded
    ``table``, ties broken in that order; the inf border moves row 1 left and
    column 1 up.  Over a DP table this is the DP backtrack, over the raw
    costs the greedy trace.
    """
    b, t1, n1 = table.shape
    diag, up, left = table[:, :-1, :-1], table[:, :-1, 1:], table[:, 1:, :-1]
    step = np.zeros(table.shape, dtype=np.intp)
    step[:, 1:, 1:] = np.where((diag <= up) & (diag <= left), n1 + 1, np.where(up <= left, n1, 1))
    step[:, 1, 1] = 0  # a finished trace stays on (1, 1)
    step = step.ravel()
    visits = np.empty((t + n - 1, b), dtype=np.intp)
    visits[0] = np.arange(b) * (t1 * n1) + t * n1 + n
    for s in range(1, len(visits)):
        visits[s] = visits[s - 1] - step[visits[s - 1]]
    return visits


def _mask(visits: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """The (B, T, N) 0/1 mask of the flat ``visits`` into padded (B, T+1, N+1) tables."""
    mask = np.zeros(shape)
    mask.ravel()[visits] = 1.0
    return mask[:, 1:, 1:]


def _greedy(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy walk of each matrix of an inf-padded stack: its costs and its :func:`_walk` visits.

    Each cost sums the walked raw costs in visit order, from the corner.
    """
    t, n = padded.shape[1] - 1, padded.shape[2] - 1
    visits = _walk(padded, t, n)
    with np.errstate(over="ignore"):  # an overflowing cost raises below
        values = padded.ravel()[visits]
        values[1:][visits[1:] == visits[:-1]] = 0.0  # a finished walk repeats (1, 1)
        costs = np.add.accumulate(values, axis=0)[-1]  # sequential, in visit order
    if not np.all(np.isfinite(costs)):
        raise NonFiniteError("alignment cost overflows")
    return costs, visits


def _align_padded(padded: np.ndarray, algorithm: str) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The core of :func:`align_batch` on an inf-padded stack (see :func:`_padded`), unchecked: costs and ``paths``.

    ``paths(rows)`` is the (len(rows), T, N) 0/1 mask of the matrices that
    ``rows`` (an index or boolean array, or a slice) selects.
    """
    if algorithm == "dp":
        tables = _accumulate(padded)
        return tables[:, -1, -1], lambda rows: _mask(*_dp_walk(tables[rows]))
    costs, visits = _greedy(padded)
    return costs, _mask(visits, padded.shape).__getitem__


def align_batch(matrices, algorithm: str) -> tuple[np.ndarray, np.ndarray]:
    """Align a stack of cost matrices; return their costs and their (B, T, N) 0/1 path masks.

    ``matrices`` is a (B, T, N) array, or B matrices of one (T, N) shape,
    with finite, non-negative entries; mask k is ``dtw_subgradient`` of
    matrix k's ``dtw_dp``/``dtw_greedy`` alignment under ``algorithm``.
    """
    algorithm = check_algorithm(algorithm)
    costs, paths = _align_padded(_padded(matrices), algorithm)
    return costs, paths(slice(None))


def _result(cost, visits: np.ndarray, shape: tuple[int, int, int]) -> AlignmentResult:
    """One matrix's alignment: its ``cost``, and its flat ``visits`` into a padded ``shape`` as 1-based cells."""
    n1 = shape[-1]
    flat = visits[:, 0].tolist()
    flat = flat[: flat.index(n1 + 1) + 1]  # up to the first (1, 1), where a finished walk stays
    return AlignmentResult(cost=float(cost), path=tuple(divmod(p, n1) for p in flat))


def dtw_greedy(c: CostMatrix | np.ndarray) -> AlignmentResult:
    """Greedy backward trace: start at (T, N), step toward (1, 1).

    At each cell the diagonal neighbour is taken when it is no more costly
    than both the up and left neighbours, else the cheaper of up/left.  On
    the borders the only in-bounds move is forced: up when j == 1, left
    when i == 1.  Every visited cell's cost is accumulated, the start and
    end cells included; a sum that overflows raises :class:`NonFiniteError`.
    """
    padded = _padded(_values(c)[None])
    costs, visits = _greedy(padded)
    return _result(costs[0], visits, padded.shape)


def dtw_dp(c: CostMatrix | np.ndarray) -> AlignmentResult:
    """Globally minimal monotone path cost via an accumulated-cost table.

    Moves are {down, right, diagonal} from (1, 1) to (T, N); the path is
    recovered by backtracking the table with ties broken diagonal, then up,
    then left.  A cost that overflows raises :class:`NonFiniteError`.
    """
    tables = _accumulate(_padded(_values(c)[None]))
    return _result(tables[0, -1, -1], *_dp_walk(tables))


DTW_ALGORITHMS = {"greedy": dtw_greedy, "dp": dtw_dp}


def check_algorithm(algorithm: str) -> str:
    """``algorithm`` itself when it names a registered alignment routine, else :class:`FieldValueError`."""
    if algorithm not in DTW_ALGORITHMS:
        raise FieldValueError("dtw_algorithm", f"must be one of {tuple(DTW_ALGORITHMS)}, got {algorithm!r}")
    return algorithm


def align(c: CostMatrix | np.ndarray, algorithm: str = "greedy") -> AlignmentResult:
    """Dispatch to one of the registered alignment routines."""
    return DTW_ALGORITHMS[check_algorithm(algorithm)](c)


def reverse_columns(c: CostMatrix) -> CostMatrix:
    """Flip the text axis: out[i][j] = in[i][N+1-j]."""
    return CostMatrix(values=c.values[:, ::-1].copy())


def dtw_subgradient(c: CostMatrix | np.ndarray, result: AlignmentResult) -> np.ndarray:
    """Fixed-path subgradient: 1.0 on path cells, 0.0 elsewhere.

    Holding the path constant, the alignment cost is linear in the visited
    entries, so this is its exact gradient away from decision ties.
    """
    t, n = _values(c).shape
    cells = np.array(result.path, dtype=np.intp).reshape(-1, 2)
    outside = (cells < 1).any(axis=1) | (cells[:, 0] > t) | (cells[:, 1] > n)
    if outside.any():
        i, j = cells[np.argmax(outside)]
        raise DimMismatchError(f"path cell ({i}, {j}) outside {t}x{n} matrix")
    grad = np.zeros((t, n), dtype=np.float64)
    grad[cells[:, 0] - 1, cells[:, 1] - 1] = 1.0
    return grad
