"""Materialized relational operators over column batches."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.engine import batch as batch_mod
from repro.engine.batch import Batch
from repro.engine.expressions import Col, Expr, evaluate


def filter_batch(batch: Batch, predicate: Expr) -> Batch:
    """Keep rows where ``predicate`` evaluates truthy."""
    if batch_mod.num_rows(batch) == 0:
        return batch
    keep = evaluate(predicate, batch).astype(bool)
    return batch_mod.mask(batch, keep)


def project(batch: Batch, outputs: Dict[str, Expr]) -> Batch:
    """Compute output columns from expressions over the input."""
    rows = batch_mod.num_rows(batch)
    if rows == 0:
        # Plain column references keep their input dtype so empty results
        # stay schema-stable; computed expressions fall back to object.
        return {
            name: (
                batch[expr.name]
                if isinstance(expr, Col) and expr.name in batch
                else np.empty(0, dtype=object)
            )
            for name, expr in outputs.items()
        }
    return {name: evaluate(expr, batch) for name, expr in outputs.items()}


def hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Hash join.  ``how`` is ``inner``, ``left-semi`` or ``left-anti``.

    Output is left-major: left rows in input order, each followed by its
    right matches in right-input order.  Column-name collisions between
    the two inputs are a plan bug and raise :class:`PlanError` (for inner
    joins; semi/anti keep only left columns).
    """
    if len(left_keys) != len(right_keys):
        raise PlanError("join key lists must have equal length")
    index: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    right_key_cols = [right[k] for k in right_keys]
    for row in range(batch_mod.num_rows(right)):
        index[tuple(col[row] for col in right_key_cols)].append(row)

    left_rows = batch_mod.num_rows(left)
    left_key_cols = [left[k] for k in left_keys]

    if how in ("left-semi", "left-anti"):
        matched = np.fromiter(
            (
                tuple(col[row] for col in left_key_cols) in index
                for row in range(left_rows)
            ),
            dtype=bool,
            count=left_rows,
        )
        return batch_mod.mask(left, ~matched if how == "left-anti" else matched)

    if how != "inner":
        raise PlanError(f"unsupported join type {how!r}")
    overlap = set(left) & set(right)
    if overlap:
        raise PlanError(f"join output would duplicate columns {sorted(overlap)}")
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row in range(left_rows):
        matches = index.get(tuple(col[row] for col in left_key_cols))
        if matches:
            left_indices.extend([row] * len(matches))
            right_indices.extend(matches)
    li = np.asarray(left_indices, dtype=np.int64)
    ri = np.asarray(right_indices, dtype=np.int64)
    out: Batch = {name: values[li] for name, values in left.items()}
    out.update({name: values[ri] for name, values in right.items()})
    return out


#: The physical join algorithms a :class:`repro.engine.planner.Join`
#: node may carry.  The name is a costing and EXPLAIN label: the
#: optimizer prices each shape differently, but one kernel runs them all,
#: so every label returns byte-identical output for the same inputs.
JOIN_ALGORITHMS = {
    "hash": hash_join,
    "sort_merge": hash_join,
    "index_nl": hash_join,
    "block_nl": hash_join,
}


def join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    algorithm: str = "hash",
) -> Batch:
    """Run one join; ``algorithm`` must name a :data:`JOIN_ALGORITHMS` label."""
    try:
        fn = JOIN_ALGORITHMS[algorithm]
    except KeyError:
        raise PlanError(f"unknown join algorithm {algorithm!r}") from None
    return fn(left, right, left_keys, right_keys, how)


#: Aggregate spec: output name -> (function, input expression or None for count).
AggSpec = Dict[str, Tuple[str, Optional[Expr]]]

_AGG_FUNCS = ("sum", "min", "max", "count", "avg", "count_distinct")


def aggregate(batch: Batch, group_keys: Sequence[str], aggs: AggSpec) -> Batch:
    """Grouped (or, with no keys, global) aggregation."""
    for name, (func, __) in aggs.items():
        if func not in _AGG_FUNCS:
            raise PlanError(f"unknown aggregate {func!r} for output {name!r}")
    rows = batch_mod.num_rows(batch)
    inputs = {
        name: (evaluate(expr, batch) if expr is not None else None)
        for name, (__, expr) in aggs.items()
    }
    if not group_keys:
        out: Batch = {}
        everything = np.arange(rows)
        for name, (func, __) in aggs.items():
            out[name] = np.array([_fold(func, inputs[name], everything, rows)])
        return out

    groups: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    key_cols = [batch[k] for k in group_keys]
    for row in range(rows):
        groups[tuple(col[row] for col in key_cols)].append(row)

    ordered = list(groups.items())
    out = {}
    for pos, key_name in enumerate(group_keys):
        values = [key[pos] for key, __ in ordered]
        out[key_name] = _column_from_list(values, batch[key_name].dtype)
    for name, (func, __) in aggs.items():
        values = [
            _fold(func, inputs[name], np.asarray(indices, dtype=np.int64), rows)
            for __, indices in ordered
        ]
        if values:
            out[name] = _column_from_list(values, None)
        else:
            out[name] = np.empty(0, dtype=_empty_agg_dtype(func, inputs[name]))
    return out


def _empty_agg_dtype(func: str, values: Optional[np.ndarray]) -> np.dtype:
    """The column dtype a grouped aggregate has over zero groups."""
    if func in ("count", "count_distinct"):
        return np.dtype(np.int64)
    if func == "avg":
        return np.dtype(np.float64)
    return values.dtype if values is not None else np.dtype(object)


def sort(batch: Batch, keys: Sequence[Tuple[str, bool]]) -> Batch:
    """Sort by ``(column, ascending)`` keys, most significant first.

    Stable: rows tied on every key keep their input order.
    """
    rows = batch_mod.num_rows(batch)
    if rows == 0:
        return batch
    order = np.arange(rows)
    # Stable sorts applied from least-significant key to most-significant.
    for column, ascending in reversed(list(keys)):
        values = batch[column][order]
        if ascending:
            perm = _stable_argsort(values)
        else:
            # A stable descending sort: sort the reversed values ascending,
            # map back to original positions and reverse, so ties keep
            # their input order instead of flipping it.
            perm = (rows - 1 - _stable_argsort(values[::-1]))[::-1]
        order = order[perm]
    return batch_mod.take(batch, order)


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "O":
        return np.array(
            sorted(range(len(values)), key=lambda i: values[i]), dtype=np.int64
        )
    return np.argsort(values, kind="stable")


def limit(batch: Batch, count: int) -> Batch:
    """Keep the first ``count`` rows."""
    return {name: values[:count] for name, values in batch.items()}


def _fold(func: str, values: Optional[np.ndarray], indices: np.ndarray, rows: int) -> Any:
    if func == "count":
        return int(len(indices))
    if values is None:
        raise PlanError(f"aggregate {func!r} requires an input expression")
    selected = values[indices]
    if func == "count_distinct":
        return int(len(set(selected.tolist())))
    if len(selected) == 0:
        return 0 if func in ("sum",) else None
    if func == "sum":
        result = selected.sum()
    elif func == "min":
        result = selected.min()
    elif func == "max":
        result = selected.max()
    elif func == "avg":
        result = selected.mean()
    else:  # pragma: no cover - guarded in aggregate()
        raise PlanError(func)
    if isinstance(result, np.generic):
        return result.item()
    return result


def _column_from_list(values: List[Any], like_dtype: Optional[np.dtype]) -> np.ndarray:
    if like_dtype is not None and like_dtype.kind != "O":
        return np.array(values, dtype=like_dtype)
    if values and isinstance(values[0], bool):
        return np.array(values, dtype=bool)
    if values and isinstance(values[0], int):
        return np.array(values, dtype=np.int64)
    if values and isinstance(values[0], float):
        return np.array(values, dtype=np.float64)
    return np.array(values, dtype=object)
