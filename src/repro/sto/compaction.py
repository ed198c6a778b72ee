"""Data compaction (Section 5.1).

Compaction rewrites low-quality files — too small, or carrying too many
deleted rows — into fresh well-sized files, filtering deleted rows out.
It runs in its own transaction under the same Snapshot Isolation as user
transactions: rewritten files are logically removed (not physically
deleted — GC handles that after retention), and the new files stay
invisible until the compaction commits.  The known downside the paper
calls out is reproduced faithfully: because the compaction transaction
*updates* the files it rewrites, it can conflict with concurrent user
deletes on the same files and abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash, TransactionAbortedError
from repro.dcp.cells import Cell
from repro.engine.batch import Batch, concat_batches, num_rows
from repro.engine.statistics import file_health
from repro.fe.catalog import table_schema
from repro.fe.context import ServiceContext
from repro.fe.transaction import PolarisTransaction
from repro.fe.read_path import read_file, run_per_cell
from repro.fe.write_path import stage_actions, write_data_file
from repro.lst.actions import Action, AddDataFile, RemoveDataFile
from repro.sqldb import system_tables as catalog


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one compaction run."""

    table_id: int
    committed: bool
    files_rewritten: int
    files_created: int
    rows_compacted: int
    sequence_id: int | None = None


def run_compaction(context: ServiceContext, table_id: int) -> CompactionResult:
    """Compact one table's low-quality files; returns the outcome.

    A conflicting concurrent user transaction aborts the compaction
    (returned with ``committed=False``); the orchestrator simply retries
    on a later trigger.
    """
    txn = PolarisTransaction(context)
    # Cleanup is explicit per-outcome (not a ``finally``) so a simulated
    # crash leaves the transaction exactly as a dead process would: active
    # in the engine registry, for recovery to scavenge.
    try:
        result = _compact_in_txn(context, txn, table_id)
    except TransactionAbortedError:
        if txn.is_active:
            txn.rollback()
        return CompactionResult(
            table_id=table_id,
            committed=False,
            files_rewritten=0,
            files_created=0,
            rows_compacted=0,
        )
    except SimulatedCrash:
        raise
    except BaseException:
        if txn.is_active:
            txn.rollback()
        raise
    if txn.is_active:
        txn.rollback()
    return result


def _compact_in_txn(
    context: ServiceContext, txn: PolarisTransaction, table_id: int
) -> CompactionResult:
    table_row = catalog.get_table(txn.root, table_id)
    if table_row is None:
        return CompactionResult(table_id, False, 0, 0, 0)
    schema = table_schema(table_row)
    snapshot = txn.table_snapshot(table_id)
    report = file_health(snapshot, context.config.sto)
    victims = {h.file_name for h in report if not h.healthy}
    if not victims:
        return CompactionResult(table_id, True, 0, 0, 0)

    # One write task per cell holding victims, so rewrites stay cell-local.
    target_rows = context.config.rows_per_cell

    def compact_cell(cell: Cell) -> Tuple[List[Action], int, int]:
        actions: List[Action] = []
        parts: List[Batch] = []
        for info in cell.files:
            live = read_file(context, snapshot, info)
            if num_rows(live):
                parts.append(live)
            actions.append(RemoveDataFile(info))
        rows_total = 0
        created = 0
        if parts:
            merged = concat_batches(parts)
            rows_total = num_rows(merged)
            for start in range(0, rows_total, target_rows):
                chunk = {
                    name: values[start : start + target_rows]
                    for name, values in merged.items()
                }
                new_info = write_data_file(
                    context, txn, table_id, schema, chunk, cell.distribution,
                    sort_column=table_row.get("sort_column"),
                )
                actions.append(AddDataFile(new_info))
                created += 1
        stage_actions(txn, table_id, actions)
        return actions, rows_total, created

    results = run_per_cell(
        context, table_id, snapshot.restricted_to(victims), "compact", "write",
        compact_cell,
    )
    new_actions: List[Action] = []
    rows_compacted = 0
    files_created = 0
    for actions, rows_total, created in results:
        new_actions.extend(actions)
        rows_compacted += rows_total
        files_created += created
    txn.flush_rewrite(table_id, new_actions, victims)
    crashpoint("sto.compaction.before_commit")
    sequence_id = txn.commit()
    crashpoint("sto.compaction.after_commit")
    return CompactionResult(
        table_id=table_id,
        committed=True,
        files_rewritten=len(victims),
        files_created=files_created,
        rows_compacted=rows_compacted,
        sequence_id=sequence_id,
    )
