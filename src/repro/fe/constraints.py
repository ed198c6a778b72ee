"""Optional unique-key enforcement (Section 4.4.3).

The paper deliberately does **not** enforce Unique/Primary Key
constraints: checking for duplicates "will have a severe impact on all
changes, including inserts", which is unacceptable for insert-heavy
analytics.  The reproduction implements enforcement as an opt-in table
property precisely so that the cost the paper cites can be measured — see
``benchmarks/bench_ablation_unique_constraints.py``.

Enforcement strategy (the cheapest sound one available to an LST engine):
on insert, (1) reject intra-batch duplicates, then (2) anti-join the batch
keys against the table's current snapshot, reading only the key column of
files whose zone maps overlap the batch's key range.  The check runs
inside the inserting transaction's snapshot; under SI, two concurrent
inserts of the same key can still both commit (the paper's other reason to
avoid the feature), which the tests document.
"""

from __future__ import annotations

from typing import Any, Dict, Set

import numpy as np

from repro.common.errors import PolarisError
from repro.engine.batch import Batch
from repro.fe.context import ServiceContext
from repro.fe.transaction import PolarisTransaction
from repro.fe.read_path import read_file


class UniqueConstraintViolation(PolarisError):
    """An insert would duplicate values of a unique column."""


def check_unique(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    batch: Batch,
) -> None:
    """Raise :class:`UniqueConstraintViolation` if the insert is invalid.

    No-op for tables without a ``unique_column`` property.
    """
    column = table_row.get("unique_column")
    if column is None:
        return
    values = np.asarray(batch[column])
    if len(values) == 0:
        return
    unique_count = len(np.unique(values)) if values.dtype.kind != "O" else len(
        set(values.tolist())
    )
    if unique_count != len(values):
        raise UniqueConstraintViolation(
            f"insert batch contains duplicate values of {column!r}"
        )
    incoming: Set[Any] = set(values.tolist())
    lo, hi = values.min(), values.max()
    snapshot = txn.table_snapshot(table_row["table_id"])
    overlap = ((column, ">=", lo), (column, "<=", hi))
    for info in snapshot.files.values():
        if not info.may_match(overlap):
            continue  # zone maps prove no overlap
        existing = read_file(context, snapshot, info, columns=[column])[column]
        clash = incoming.intersection(existing.tolist())
        if clash:
            sample = sorted(clash)[:3]
            raise UniqueConstraintViolation(
                f"values {sample} of {column!r} already exist in "
                f"{table_row['name']!r}"
            )
