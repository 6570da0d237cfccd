"""Exact-parity helpers for the simulators' vectorized batch kernels.

The vectorized fast paths (``run_batch_vectorized`` on the DBMS, Spark,
and Hadoop simulators) promise *bit-for-bit* agreement with the scalar
``run()`` loop.  Elementwise float64 arithmetic (``+ - * /``),
``np.sqrt``, ``np.minimum``/``np.maximum``, ``np.floor``/``np.ceil``,
and ``np.where`` reproduce IEEE-754 scalar results exactly, so kernels
use numpy freely for those.  numpy's SIMD transcendentals do **not**:
``np.log``/``np.log2``/``np.exp`` and array ``**`` may differ from
CPython's ``math.*``/``float.__pow__`` (which call libm per element) in
the last ulp.  Every config-dependent transcendental therefore goes
through :func:`emap`/:func:`emap_where`, which apply the scalar
function per element — slower than a SIMD call but still one Python
loop per *call site* instead of one per configuration.  Both live in
:mod:`repro.core.exact`, shared with the configuration space's
column-wise decode, and are re-exported here for the kernels.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.exact import emap, emap_where
from repro.core.measurement import Measurement
from repro.core.parameters import Configuration

__all__ = [
    "emap",
    "emap_where",
    "knob_floats",
    "knob_bools",
    "knob_values",
    "knob_table",
    "metric_columns",
    "metrics_row",
    "measurements_from_columns",
]


def knob_floats(configs: Sequence[Configuration], name: str) -> np.ndarray:
    """One knob as a float64 column over the config batch."""
    return np.array([c[name] for c in configs], dtype=float)


def knob_bools(configs: Sequence[Configuration], name: str) -> np.ndarray:
    """One boolean knob as a bool column over the config batch."""
    return np.array([bool(c[name]) for c in configs], dtype=bool)


def knob_values(configs: Sequence[Configuration], name: str) -> List:
    """One (categorical) knob as a plain value list over the batch."""
    return [c[name] for c in configs]


def knob_table(
    configs: Sequence[Configuration],
    name: str,
    table: Dict,
    column: int,
) -> np.ndarray:
    """Per-config lookup of one component of a choice table.

    ``table`` maps categorical values to tuples (e.g., codec ->
    (ratio, cpu_ms)); returns the ``column``-th component per config.
    """
    return np.array([table[c[name]][column] for c in configs], dtype=float)


def metric_columns(names: Sequence[str], n: int) -> Dict[str, np.ndarray]:
    """Zero-initialized metric accumulators, one column per metric."""
    return {k: np.zeros(n, dtype=float) for k in names}


def metrics_row(
    columns: Dict[str, List[float]], names: Sequence[str], i: int
) -> Dict[str, float]:
    """Row ``i`` of pre-``tolist()``-ed metric columns as a plain dict.

    Values must already be Python floats (``ndarray.tolist()``) so the
    emitted :class:`Measurement` hashes/reprs exactly like scalar ones.
    """
    return {k: columns[k][i] for k in names}


def measurements_from_columns(
    metric_cols: Dict[str, np.ndarray],
    names: Sequence[str],
    runtime: np.ndarray,
    cost: np.ndarray,
    failed: np.ndarray,
    failure_elapsed: np.ndarray,
    failure_cost: np.ndarray,
) -> List[Measurement]:
    """Assemble per-config Measurements from kernel output columns.

    Failed rows get ``runtime_s=inf``, the frozen metric values, an
    ``elapsed_before_failure_s`` entry, and the per-row failure cost —
    the exact shape the scalar engines produce on their early returns.
    """
    names_l = list(names)
    value_cols = [metric_cols[k].tolist() for k in names_l]
    runtime_l = runtime.tolist()
    cost_l = cost.tolist()
    failed_arr = np.asarray(failed, dtype=bool)
    rows = (
        [dict(zip(names_l, vals)) for vals in zip(*value_cols)]
        if value_cols
        else [{} for _ in runtime_l]
    )
    if not failed_arr.any():
        return [
            Measurement(runtime_s=rt, metrics=m, cost_units=cu)
            for rt, m, cu in zip(runtime_l, rows, cost_l)
        ]
    failed_l = failed_arr.tolist()
    f_elapsed_l = np.asarray(failure_elapsed, dtype=float).tolist()
    f_cost_l = np.asarray(failure_cost, dtype=float).tolist()
    out: List[Measurement] = []
    for i, m in enumerate(rows):
        if failed_l[i]:
            m["elapsed_before_failure_s"] = f_elapsed_l[i]
            out.append(
                Measurement(
                    runtime_s=float("inf"),
                    metrics=m,
                    failed=True,
                    cost_units=f_cost_l[i],
                )
            )
        else:
            out.append(
                Measurement(runtime_s=runtime_l[i], metrics=m, cost_units=cost_l[i])
            )
    return out
