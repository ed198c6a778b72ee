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
from typing import Dict, List

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash, TransactionAbortedError
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task, TaskContext
from repro.engine.batch import Batch, concat_batches, num_rows
from repro.engine.statistics import file_health
from repro.fe.catalog import table_schema
from repro.fe.context import ServiceContext
from repro.fe.transaction import PolarisTransaction
from repro.fe.read_path import read_file
from repro.fe.write_path import _write_data_file
from repro.lst.actions import Action, AddDataFile, RemoveDataFile
from repro.lst.manifest import encode_actions
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

    # Group victims by distribution so rewrites stay cell-local.
    by_distribution: Dict[int, List[str]] = {}
    for name in victims:
        info = snapshot.files[name]
        by_distribution.setdefault(info.distribution, []).append(name)

    dag = WorkflowDag()
    target_rows = context.config.rows_per_cell
    for distribution, names in sorted(by_distribution.items()):
        infos = [snapshot.files[name] for name in sorted(names)]

        def compact_cell(
            ctx: TaskContext, infos=infos, distribution=distribution
        ) -> tuple:
            actions: List[Action] = []
            parts: List[Batch] = []
            for info in infos:
                live = read_file(context, snapshot, info)
                if num_rows(live):
                    parts.append(live)
                actions.append(RemoveDataFile(info))
            rows_total = 0
            created = 0
            if parts:
                merged = concat_batches(parts)
                total = num_rows(merged)
                for start in range(0, total, target_rows):
                    chunk = {
                        name: values[start : start + target_rows]
                        for name, values in merged.items()
                    }
                    new_info = _write_data_file(
                        context, txn, table_id, schema, chunk, distribution,
                        sort_column=table_row.get("sort_column"),
                    )
                    actions.append(AddDataFile(new_info))
                    created += 1
                rows_total = total
            writer = txn.manifest_writer(table_id)
            block_id = writer.write_block(encode_actions(actions))
            return [block_id], actions, rows_total, created

        dag.add_task(
            Task(
                task_id=f"compact:{table_id}:{distribution:04d}",
                fn=compact_cell,
                est_rows=sum(i.num_rows for i in infos),
                est_files=len(infos),
                est_bytes=sum(i.size_bytes for i in infos),
                pool="write",
            )
        )

    result = context.scheduler.execute(dag, wlm=context.wlm)
    new_actions: List[Action] = []
    rows_compacted = 0
    files_created = 0
    for task_id in sorted(result.results):
        __, actions, rows_total, created = result.results[task_id]
        new_actions.extend(actions)
        rows_compacted += rows_total
        files_created += created

    state = txn.write_state(table_id)
    state.has_update_or_delete = True
    state.touched_files.update(victims)
    txn.flush_rewrite(table_id, new_actions)
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
