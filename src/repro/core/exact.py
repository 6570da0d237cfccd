"""Exact-parity elementwise helpers for column-wise numpy code.

Array code that promises *bit-for-bit* agreement with a scalar Python
loop (the simulators' vectorized batch kernels, the configuration
space's candidate-pool decode and encode) may use numpy freely for the
operations IEEE 754 makes exact: elementwise float64 ``+ - * /``,
``np.sqrt``, ``np.floor``/``np.ceil``/``np.rint``, comparisons and
``np.where``.  numpy's SIMD transcendentals are **not** exact:
``np.log``/``np.log2``/``np.exp`` and array ``**`` may differ from
CPython's ``math.*``/``float.__pow__`` (which call libm per element) in
the last ulp.  Every such call therefore goes through :func:`emap` or
:func:`emap_where`, which apply the scalar function per element —
slower than a SIMD call but still one Python loop per *call site*
instead of one per row.

The builtins ``max``/``min`` are not ``np.maximum``/``np.minimum``
either: ``max(0.0, nan)`` keeps ``0.0`` where ``np.maximum`` returns
NaN.  :func:`builtin_max`/:func:`builtin_min` reproduce the builtins.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["emap", "emap_where", "builtin_max", "builtin_min"]


def emap(fn: Callable[..., float], *args) -> np.ndarray:
    """Apply a scalar float function elementwise, bit-identically.

    ``args`` are 1-D arrays (or scalars, broadcast); each output element
    is ``fn(*row)`` computed on Python floats, exactly as the scalar
    engine would.
    """
    arrs = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrs))
    count = int(np.prod(shape)) if shape else 1
    if len(arrs) == 1:
        col = np.broadcast_to(arrs[0], shape).tolist()
        return np.fromiter(map(fn, col), dtype=float, count=count)
    cols = [np.broadcast_to(a, shape).tolist() for a in arrs]
    return np.fromiter(map(fn, *cols), dtype=float, count=count)


def emap_where(
    mask, fn: Callable[..., float], *args, fill: float = 0.0
) -> np.ndarray:
    """:func:`emap` restricted to ``mask`` rows; ``fill`` elsewhere.

    Lets kernels mirror scalar branches guarded by conditions under
    which ``fn`` may be undefined (``log`` of values <= 1, division by a
    dead row's zero denominator).
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.full(mask.shape, fill, dtype=float)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    arrs = [
        np.broadcast_to(np.asarray(a, dtype=float), mask.shape) for a in args
    ]
    cols = [a[idx].tolist() for a in arrs]
    out[idx] = np.fromiter(map(fn, *cols), dtype=float, count=idx.size)
    return out


def builtin_max(a, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` with the builtin's semantics.

    The builtin keeps its first argument unless the second compares
    greater, so NaN in ``b`` yields ``a`` and ``max(0.0, -0.0)`` is
    ``0.0``.
    """
    return np.where(b > a, b, a)


def builtin_min(a, b) -> np.ndarray:
    """Elementwise ``min(a, b)`` with the builtin's semantics."""
    return np.where(b < a, b, a)
