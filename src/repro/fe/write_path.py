"""Distributed execution of write statements (Sections 3.2.2, 4.3).

This module owns every write of table rows.  :func:`write_data_file`
writes one private data file (stamped with its creator for GC, its
checksum mirrored in the manifest entry together with file-level zone
maps folded from the file's row-group stats), and :func:`stage_actions`
stages one block of the transaction manifest; inserts, bulk loads,
deletes, updates and STO compaction all write through the two.

Every DML statement compiles to a DCP workflow DAG whose tasks target
disjoint cells, so manifest entries never need merging across BE nodes:

* **insert** — one task per target distribution; each writes a private
  data file and stages a manifest block with its ``AddDataFile`` action.
* **bulk load** — one task per *source file* (reading within a source file
  does not scale out; this is the bottleneck shape of Figure 7).  Insert
  and bulk load share one DAG builder and differ only in how rows are
  split into parts.
* **delete** — one task per cell; each computes matched row positions per
  data file, writes merged deletion-vector files, and stages
  ``RemoveDeletionVector``/``AddDeletionVector`` blocks.
* **update** — delete plus insert in one statement: matched rows are
  DV-masked in place and re-written (with assignments applied) as new
  data files in the same cell.

The FE aggregates the block ids returned by the tasks and flushes the
transaction manifest: appends for inserts, a reconciling rewrite for
updates/deletes (Section 3.2.3).  The flush also records the rows and the
touched files the transaction's commit reports and validates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dcp.cells import Cell, distribution_of
from repro.dcp.channels import estimate_batch_bytes
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task, TaskContext
from repro.engine.batch import Batch, concat_batches, num_rows
from repro.engine.expressions import Expr, evaluate
from repro.engine.zorder import zorder_permutation
from repro.fe.catalog import table_schema
from repro.fe.context import ServiceContext
from repro.fe.read_path import load_dv, open_data_file, run_per_cell
from repro.fe.transaction import PolarisTransaction
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDeletionVector,
)
from repro.lst.manifest import encode_actions
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.file_format import PageFile, read_footer, write_page_file
from repro.pagefile.schema import Schema
from repro.storage import paths
from repro.storage.integrity import CHECKSUM_KEY


# -- shared helpers -------------------------------------------------------------


def _put_private_file(
    context: ServiceContext, txn: PolarisTransaction, path: str, data: bytes
) -> str:
    """Store one private file of ``txn``; returns the checksum the
    manifest mirrors.  The blob is stamped with its creator, which the
    garbage collector keys on (Section 5.3)."""
    blob = context.store.put(
        path,
        data,
        metadata={
            "creator_txid": str(txn.txid),
            "creator_begin_ts": repr(txn.begin_ts),
        },
    )
    return blob.metadata.get(CHECKSUM_KEY, "")


def write_data_file(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_id: int,
    schema: Schema,
    columns: Batch,
    distribution: int,
    sort_column: "str | Sequence[str] | None" = None,
) -> DataFileInfo:
    """Write one private data file; returns its manifest descriptor.

    With ``sort_column`` (the table's partitioning function p(r),
    Section 2.3) rows are ordered before writing, which tightens both the
    row-group zone maps inside the file and the file-level zone maps
    recorded in the manifest.  A composite key (a list of columns) orders
    rows along the Z-curve instead, so range predicates on any of the
    participating columns stay selective.
    """
    if sort_column is not None and num_rows(columns) > 1:
        if isinstance(sort_column, str):
            order = np.argsort(columns[sort_column], kind="stable")
        else:
            order = zorder_permutation(columns, sort_column)
        columns = {name: values[order] for name, values in columns.items()}
    name = context.guids.next() + ".rpf"
    path = paths.data_file_path(context.database, table_id, name)
    data = write_page_file(
        schema, columns, row_group_size=context.config.row_group_size
    )
    checksum = _put_private_file(context, txn, path, data)
    return DataFileInfo(
        name=name,
        path=path,
        num_rows=num_rows(columns),
        size_bytes=len(data),
        distribution=distribution,
        column_stats=_file_zone_map(read_footer(data)),
        checksum=checksum,
    )


def _file_zone_map(footer: PageFile) -> Tuple[Tuple[str, Any, Any], ...]:
    """File-level (column, min, max) zone maps for the manifest entry:
    the fold of the row-group zone maps the file's footer records."""
    stats = []
    for fld in footer.schema:
        if fld.type == "bool":
            continue  # pruning on bools is never worthwhile
        chunks = [
            group.chunks[fld.name].stats
            for group in footer.row_groups
            if group.chunks[fld.name].stats.minimum is not None
        ]
        if chunks:
            lo = min(chunk.minimum for chunk in chunks)
            hi = max(chunk.maximum for chunk in chunks)
            stats.append((fld.name, lo, hi))
    return tuple(stats)


def stage_actions(
    txn: PolarisTransaction, table_id: int, actions: Sequence[Action]
) -> str:
    """Stage ``actions`` as one block of the table's transaction manifest;
    returns the block id (committed later by the FE flush)."""
    return txn.manifest_writer(table_id).write_block(encode_actions(actions))


def _write_dv_file(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_id: int,
    target_file: str,
    vector: DeletionVector,
) -> DeletionVectorInfo:
    """Write one private deletion-vector file."""
    name = context.guids.next() + ".rdv"
    path = paths.dv_file_path(context.database, table_id, name)
    data = vector.to_bytes()
    return DeletionVectorInfo(
        name=name,
        path=path,
        target_file=target_file,
        cardinality=vector.cardinality,
        size_bytes=len(data),
        checksum=_put_private_file(context, txn, path, data),
    )


def _validate_batch(schema: Schema, batch: Batch) -> int:
    return schema.validate_columns(
        {name: np.asarray(values) for name, values in batch.items()}
    )


# -- insert and bulk load ----------------------------------------------------------


def execute_insert(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    batch: Batch,
) -> int:
    """Insert a batch: one task per target distribution; returns the
    number of rows inserted."""
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    total = _validate_batch(schema, batch)
    if total == 0:
        return 0
    assignments = _distribution_assignment(context, table_row, batch, total)
    # The manifest is named before any data file (the order GUIDs are
    # drawn in); a bulk load names it from its first task instead.
    txn.write_state(table_id)
    parts = []
    for distribution in sorted(set(assignments.tolist())):
        rows = np.flatnonzero(assignments == distribution)
        part = {name: values[rows] for name, values in batch.items()}
        parts.append((f"insert:{table_id}:{distribution}", distribution, part))
    return _write_parts(context, txn, table_row, schema, parts, total)


def execute_bulk_load(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    source_batches: Sequence[Batch],
    advance_clock: bool = True,
) -> int:
    """Bulk load: one task per source file (Figure 7's unit of parallelism).

    With ``advance_clock=False`` the statement's simulated duration is laid
    out on the pool's slot timelines but the shared clock stays put — the
    load runs *logically concurrent* with whatever the caller does next
    (used by the concurrency benchmarks).
    """
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    totals = [_validate_batch(schema, batch) for batch in source_batches]
    total = sum(totals)
    if total == 0:
        return 0
    distributions = context.config.distributions
    parts = [
        (f"load:{table_id}:{index:05d}", index % distributions, batch)
        for index, batch in enumerate(source_batches)
        if totals[index]
    ]
    return _write_parts(
        context, txn, table_row, schema, parts, total, advance_clock
    )


def _write_parts(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    schema: Schema,
    parts: List[Tuple[str, int, Batch]],
    total: int,
    advance_clock: bool = True,
) -> int:
    """The insert DAG: one write task per ``(task_id, distribution, rows)``
    part, each writing one data file and staging its ``AddDataFile``
    block; the FE then appends the blocks to the manifest.  Returns
    ``total``."""
    table_id = table_row["table_id"]
    sort_column = table_row.get("sort_column")
    dag = WorkflowDag()
    for task_id, distribution, part in parts:

        def write_part(
            ctx: TaskContext, part: Batch = part, distribution: int = distribution
        ) -> Tuple[str, Action]:
            info = write_data_file(
                context, txn, table_id, schema, part, distribution,
                sort_column=sort_column,
            )
            action = AddDataFile(info)
            return stage_actions(txn, table_id, [action]), action

        dag.add_task(
            Task(
                task_id=task_id,
                fn=write_part,
                est_rows=num_rows(part),
                est_files=1,
                est_bytes=estimate_batch_bytes(part),
                pool="write",
            )
        )
    if context.elastic:
        context.wlm.resize_pool(
            "write", context.autoscaler.nodes_for_load(total, len(dag))
        )
    result = context.scheduler.execute(
        dag, wlm=context.wlm, advance_clock=advance_clock
    )
    staged = [result.results[task_id] for task_id in sorted(result.results)]
    txn.flush_insert(
        table_id,
        [block_id for block_id, __ in staged],
        [action for __, action in staged],
        rows=total,
    )
    return total


# -- delete ------------------------------------------------------------------------


def execute_delete(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    prune: Sequence[Tuple[str, str, Any]] = (),
) -> int:
    """Delete matching rows; returns how many rows were marked deleted."""
    deleted, __ = _execute_mutation(
        context, txn, table_row, predicate, prune, assignments=None
    )
    return deleted


def execute_update(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    assignments: Dict[str, Expr],
    prune: Sequence[Tuple[str, str, Any]] = (),
) -> int:
    """Update matching rows (delete + re-insert); returns rows updated."""
    __, updated = _execute_mutation(
        context, txn, table_row, predicate, prune, assignments=assignments
    )
    return updated


def _execute_mutation(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    prune: Sequence[Tuple[str, str, Any]],
    assignments: Optional[Dict[str, Expr]],
) -> Tuple[int, int]:
    """Shared delete/update body.  Returns (rows_deleted, rows_rewritten)."""
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    snapshot = txn.table_snapshot(table_id)
    prune_list = list(prune)

    def mutate_cell(cell: Cell) -> Tuple[List[Action], int, List[str]]:
        actions: List[Action] = []
        touched: List[str] = []
        matched_rows: List[Batch] = []
        n_matched = 0
        for info in cell.files:
            if prune_list and not info.may_match(tuple(prune_list)):
                continue
            # The task opens the file and its DV itself (rather than
            # through read_file): the new DV is the union with the old.
            reader = open_data_file(context, info)
            existing_info = snapshot.dv_for(info.name)
            existing_dv = load_dv(context, existing_info)
            batch = reader.read(
                prune=prune_list or None,
                deletion_vector=existing_dv,
                with_positions=True,
            )
            if num_rows(batch) == 0:
                continue
            match = evaluate(predicate, batch).astype(bool)
            if not match.any():
                continue
            positions = batch["__pos__"][match]
            new_dv = DeletionVector(positions.tolist())
            if existing_dv is not None:
                new_dv = existing_dv.union(new_dv)
            dv_info = _write_dv_file(context, txn, table_id, info.name, new_dv)
            if existing_info is not None:
                actions.append(RemoveDeletionVector(existing_info))
            actions.append(AddDeletionVector(dv_info))
            touched.append(info.name)
            n_matched += int(match.sum())
            if assignments is not None:
                kept = {
                    name: values[match]
                    for name, values in batch.items()
                    if name != "__pos__"
                }
                matched_rows.append(kept)
        if assignments is not None and matched_rows:
            updated = _apply_assignments(matched_rows, assignments, schema)
            info = write_data_file(
                context, txn, table_id, schema, updated, cell.distribution,
                sort_column=table_row.get("sort_column"),
            )
            actions.append(AddDataFile(info))
        if actions:
            stage_actions(txn, table_id, actions)
        return actions, n_matched, touched

    results = run_per_cell(context, table_id, snapshot, "mutate", "write", mutate_cell)
    new_actions: List[Action] = []
    touched_all: List[str] = []
    total_matched = 0
    for actions, matched, touched in results:
        new_actions.extend(actions)
        touched_all.extend(touched)
        total_matched += matched
    if not new_actions:
        return 0, 0
    txn.flush_rewrite(table_id, new_actions, touched_all, rows_deleted=total_matched)
    return total_matched, (total_matched if assignments is not None else 0)


def _apply_assignments(
    matched_rows: List[Batch], assignments: Dict[str, Expr], schema: Schema
) -> Batch:
    merged = concat_batches(matched_rows)
    out: Batch = {}
    for fld in schema:
        if fld.name in assignments:
            out[fld.name] = evaluate(assignments[fld.name], merged)
        else:
            out[fld.name] = merged[fld.name]
    return out


def _distribution_assignment(
    context: ServiceContext, table_row: Dict[str, Any], batch: Batch, total: int
) -> np.ndarray:
    column = table_row.get("distribution_column")
    if column is not None:
        return distribution_of(np.asarray(batch[column]), context.config.distributions)
    return np.arange(total, dtype=np.int64) % context.config.distributions
