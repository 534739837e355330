"""Dense float64 numerics shared by every other module.

All functions are pure, operate on and return ``numpy`` float64 arrays, and
are deterministic: the same inputs produce bit-identical outputs across
runs.  Randomness enters only through an explicitly seeded generator from
:func:`make_rng`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimMismatchError, EmptyMatrixError, FieldValueError, NonFiniteError, ZeroVectorError

ZERO_NORM_TOL = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; equal seeds give identical streams everywhere."""
    return np.random.default_rng(int(seed))


def f8le(arrays) -> bytes:
    """The little-endian float64 bytes of ``arrays``, one after another: the stored form of every array on disk."""
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return m


def check_cells(m: np.ndarray, name: str) -> None:
    """Raise :class:`EmptyMatrixError` naming ``name`` when the array ``m`` has no cells."""
    if m.size == 0:
        raise EmptyMatrixError(f"{name} has no cells, shape {m.shape}")


def as_stack(values, name: str = "stack") -> np.ndarray:
    """Coerce a (B, rows, cols) array or B equal-shape matrices to a finite, non-empty 3-D float64 array.

    A stack without cells raises :class:`EmptyMatrixError` naming ``name``; a
    non-finite entry raises :class:`NonFiniteError` naming the first matrix
    ``name[k]`` that holds one.
    """
    try:
        m = np.asarray(values, dtype=np.float64)
    except ValueError:  # matrices of different shapes
        raise DimMismatchError(f"{name} must be one (B, rows, cols) stack; its matrices differ in shape") from None
    if m.ndim != 3:
        raise DimMismatchError(f"{name} must be a (B, rows, cols) stack, got shape {m.shape}")
    check_cells(m, name)
    if not np.isfinite(m).all():
        bad = int(np.argmin(np.isfinite(m).all(axis=(1, 2))))
        raise NonFiniteError(f"{name}[{bad}] contains non-finite values")
    return m


def subsample_frames(frames: np.ndarray, n: int) -> np.ndarray:
    """Uniformly-spaced rows, all of them when the sample is short.

    With T rows and n samples the indices are floor(t*(T-1)/(n-1)); an
    ``n`` below 1 raises :class:`FieldValueError`.
    """
    if n < 1:
        raise FieldValueError("n", f"must be >= 1, got {n}")
    t = frames.shape[0]
    if t <= n:
        return frames
    if n == 1:
        return frames[:1]
    idx = (np.arange(n) * (t - 1)) // (n - 1)
    return frames[idx]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of each row of ``a`` with the same row of ``b``, as a 1-D array, unchecked.

    One (1, d) @ (d, 1) product per row: the dot ``np.linalg.norm`` takes of a
    single vector, so a row's result does not depend on the rows around it.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, preserving direction.

    Raises ZeroVectorError when the norm is below 1e-12.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("cannot normalize a non-finite vector")
    norm = np.linalg.norm(v)
    if norm < ZERO_NORM_TOL:
        raise ZeroVectorError(f"vector norm {norm} below {ZERO_NORM_TOL}")
    return v / norm


def l2_normalize_rows(m) -> np.ndarray:
    """Row-wise :func:`l2_normalize` for a 2-D array."""
    m = as_matrix(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms < ZERO_NORM_TOL):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {float(norms[bad, 0])}")
    return m / norms


def cosine_similarity_matrix(a, b) -> np.ndarray:
    """Pairwise dot products between the rows of two matrices.

    Rows are expected to be unit-norm, making the dot product a cosine.
    Computed via einsum rather than BLAS so that
    ``cosine_similarity_matrix(a, b) == cosine_similarity_matrix(b, a).T``
    holds bit-exactly regardless of operand sizes.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimMismatchError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return np.einsum("ik,jk->ij", a, b)


def finite_diff_grad(fn: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (fn(x+h e_i) - fn(x-h e_i)) / 2h.

    The default step balances truncation against round-off for float64
    inputs scaled to O(1).
    """
    if not h > 0:
        raise FieldValueError("h", f"must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(fn(x))
        flat[i] = orig - h
        down = float(fn(x))
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NonFiniteError(f"fn non-finite near coordinate {i}")
        out[i] = (up - down) / (2.0 * h)
    return grad
