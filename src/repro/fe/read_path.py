"""Distributed execution of read statements (Section 3.2.1).

This module owns every read of table rows.  :func:`read_file` rebuilds
one data file's live rows from the immutable file plus its current
deletion vector (merge-on-read), both checked against the checksums the
manifest mirrors (:func:`open_data_file`, :func:`load_dv`); scans,
ANALYZE, CREATE INDEX, the unique-key check and compaction all read
through it.  :func:`run_per_cell` fans work out as one DCP task per
non-empty cell, for scans and for deletes/updates alike.

A query plan's base-table scans fan out per cell, with projection and
zone-map pruning pushed down.  The FE concatenates the partial batches
and runs the rest of the plan as the root task, charging the clock what
the cost model prices each operator at over the rows it actually
processed.

:func:`execute_query` is the one query path.  Plain queries, the query
store's profiled runs and EXPLAIN ANALYZE all go through it; the latter
two pass a :class:`~repro.engine.explain.PlanProfile` sink, which adds
scan pruning reports, estimates and per-operator stats without changing
what runs or what the clock is charged.

Scans of a transaction's own snapshot also gather the coarse per-table
statistics (file counts, deleted rows) the FE pushes to the STO
(Section 5.1) — the trigger feed for autonomous compaction.  A Query As
Of scan reads a past snapshot and reports nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dcp.cells import Cell, cells_for_snapshot
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task
from repro.engine.batch import Batch, concat_batches, empty_batch, num_rows
from repro.engine.executor import execute_plan
from repro.engine.explain import PlanProfile, operator_stats
from repro.engine.operators import filter_batch
from repro.engine.planner import Plan, TableScan, scans_of
from repro.engine.statistics import collect_stats
from repro.fe.catalog import describe_table
from repro.fe.context import ServiceContext
from repro.fe.timetravel import snapshot_as_of
from repro.fe.transaction import PolarisTransaction
from repro.lst.actions import DataFileInfo, DeletionVectorInfo
from repro.lst.snapshot import TableSnapshot
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.reader import PageFileReader
from repro.storage.integrity import verify_checksum


def open_data_file(context: ServiceContext, info: DataFileInfo) -> PageFileReader:
    """Open one data file with both verification layers applied.

    The store's ``get`` verifies the blob against its own metadata
    checksum; the cross-check here verifies against the manifest's
    mirrored checksum (catching a swapped blob whose metadata was
    rewritten); and the reader gets the blob path so format errors are
    self-describing.
    """
    blob = context.store.get(info.path)
    verify_checksum(info.path, blob.data, info.checksum, telemetry=context.telemetry)
    return PageFileReader(blob.data, source=info.path)


def load_dv(
    context: ServiceContext, info: Optional[DeletionVectorInfo]
) -> Optional[DeletionVector]:
    """Load one deletion vector (None for a file without one), checked
    against the manifest's mirrored checksum like a data file."""
    if info is None:
        return None
    blob = context.store.get(info.path)
    verify_checksum(info.path, blob.data, info.checksum, telemetry=context.telemetry)
    return DeletionVector.from_bytes(blob.data)


def read_file(
    context: ServiceContext,
    snapshot: TableSnapshot,
    info: DataFileInfo,
    columns: Optional[List[str]] = None,
    prune: Optional[List[Tuple[str, str, Any]]] = None,
    report: Optional[Dict[str, Any]] = None,
) -> Batch:
    """The live rows of one data file of ``snapshot`` (merge-on-read).

    Reads ``columns`` (all by default) minus the rows of the file's
    current deletion vector, skipping row groups whose zone maps rule out
    ``prune``.  A ``report`` dict, when given, accumulates the row groups
    scanned and pruned.
    """
    reader = open_data_file(context, info)
    dv = load_dv(context, snapshot.dv_for(info.name))
    if report is not None:
        scanned_groups, pruned_groups = reader.prune_counts(prune)
        report["row_groups"] += scanned_groups
        report["row_groups_pruned"] += pruned_groups
    return reader.read(columns=columns, prune=prune, deletion_vector=dv)


def run_per_cell(
    context: ServiceContext,
    table_id: int,
    snapshot: TableSnapshot,
    kind: str,
    pool: str,
    fn: Callable[[Cell], Any],
) -> List[Any]:
    """Run ``fn`` as one DCP task per non-empty cell of ``snapshot``.

    Tasks are named ``<kind>:<table_id>:<distribution>`` and run in
    ``pool``, sized to the cells' rows on an elastic deployment.  Returns
    the task results in task-id order (empty without a live file).
    """
    cells = [
        cell
        for cell in cells_for_snapshot(table_id, snapshot, context.config.distributions)
        if cell.files
    ]
    if not cells:
        return []
    dag = WorkflowDag()
    for cell in cells:
        dag.add_task(
            Task(
                task_id=f"{kind}:{table_id}:{cell.distribution:04d}",
                fn=lambda ctx, cell=cell: fn(cell),
                est_rows=cell.num_rows,
                est_files=len(cell.files),
                est_bytes=cell.total_bytes,
                pool=pool,
            )
        )
    if context.elastic:
        total_rows = sum(cell.num_rows for cell in cells)
        context.wlm.resize_pool(pool, context.autoscaler.nodes_for_query(total_rows))
    result = context.scheduler.execute(dag, wlm=context.wlm)
    return [result.results[task_id] for task_id in sorted(result.results)]


def scan_table(
    context: ServiceContext,
    txn: PolarisTransaction,
    scan: TableScan,
    snapshot_override: "TableSnapshot | None" = None,
    report: Optional[Dict[str, Any]] = None,
) -> Batch:
    """Execute one distributed table scan within ``txn``'s snapshot.

    ``snapshot_override`` substitutes an explicit snapshot (Query As Of,
    Section 6.1) for the transaction's own view; only a scan of the
    transaction's own view publishes table statistics.  A ``report``
    dict, when given, is filled with EXPLAIN ANALYZE counters: files
    scanned vs. pruned (zone maps at manifest level), row groups scanned
    vs. pruned (zone maps inside page files), cells scheduled, and rows
    produced.
    """
    table_row = describe_table(txn.root, scan.table)
    table_id = table_row["table_id"]
    snapshot = (
        snapshot_override
        if snapshot_override is not None
        else txn.table_snapshot(table_id)
    )
    # File-level pruning: manifests carry per-file zone maps, so whole
    # files that cannot match are dropped before any cell is scheduled.
    # Secondary indexes prune further: equality conjuncts drop covered
    # files the index proves cannot match (hash-distributed keys defeat
    # zone maps, but not a sorted run).  Health statistics are reported
    # over the *unpruned* snapshot.
    full_snapshot = snapshot
    prune = list(scan.prune) or None
    if prune:
        snapshot = snapshot.restricted_to(
            name
            for name, info in snapshot.files.items()
            if info.may_match(scan.prune)
        )
        snapshot = context.optimizer.prune_snapshot(
            txn.root, table_id, scan.prune, snapshot
        )
    if report is not None:
        report["files"] = len(full_snapshot.files)
        report["files_pruned"] = len(full_snapshot.files) - len(snapshot.files)
        report["row_groups"] = 0
        report["row_groups_pruned"] = 0
        # The planner's base-cardinality statistic: live rows in the
        # unpruned snapshot (file rows minus deletion-vector rows).
        report["est_rows"] = max(full_snapshot.live_rows, 0)

    def scan_cell(cell: Cell) -> Batch:
        parts: List[Batch] = []
        for info in cell.files:
            batch = read_file(
                context, snapshot, info, list(scan.columns), prune, report
            )
            if scan.predicate is not None and num_rows(batch):
                batch = filter_batch(batch, scan.predicate)
            if num_rows(batch):
                parts.append(batch)
        return concat_batches(parts) if parts else empty_batch(scan.columns)

    results = run_per_cell(context, table_id, snapshot, "scan", "read", scan_cell)
    if snapshot_override is None:
        _publish_scan_stats(context, table_id, full_snapshot)
    parts = [batch for batch in results if num_rows(batch)]
    out = concat_batches(parts) if parts else empty_batch(scan.columns)
    if report is not None:
        report["cells"] = len(results)
        report["rows"] = num_rows(out)
    return out


def optimize_plan(
    context: ServiceContext, txn: PolarisTransaction, plan: Plan
) -> Plan:
    """Run the cost-based rewrite pass over ``plan`` (identity without
    statistics for every referenced table, or with the optimizer off)."""
    rewritten, _ = context.optimizer.rewrite(txn, plan)
    return rewritten


def execute_query(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    as_of: "float | None" = None,
    profile: Optional[PlanProfile] = None,
) -> Batch:
    """Execute a full query plan within ``txn``'s snapshot.

    The plan first passes through the cost-based optimizer (a no-op
    until statistics exist); each base scan then runs as its own
    distributed DAG; the residual plan (joins, aggregation, sort) runs
    at the root task, which charges the simulated clock one task
    overhead plus every operator's cost priced over the rows it actually
    saw (:meth:`~repro.dcp.costmodel.CostModel.operator_costs`).  With
    ``as_of``, every scan reads the tables' state at that timestamp
    instead (Query As Of).

    A ``profile`` sink is filled with the executed (optimized) plan, the
    scans' pruning reports and simulated times, the estimates (with
    provenance and estimated costs) and the per-operator stats.
    Profiling changes neither the result nor the clock charges: scans,
    then annotations, then execution, then the root charge.
    """
    plan = optimize_plan(context, txn, plan)
    scanned: Dict[int, Batch] = {}
    scan_details: Dict[int, Dict[str, Any]] = {}

    def source(scan: TableScan) -> Batch:
        return scanned[id(scan)]

    for scan in scans_of(plan):
        override = None
        if as_of is not None:
            table_row = describe_table(txn.root, scan.table)
            override = snapshot_as_of(context, table_row["table_id"], as_of)
        report: Optional[Dict[str, Any]] = {} if profile is not None else None
        started = context.clock.now
        batch = scan_table(
            context, txn, scan, snapshot_override=override, report=report
        )
        if report is not None:
            report["sim_time_s"] = context.clock.now - started
            scan_details[id(scan)] = report
        scanned[id(scan)] = batch

    if profile is not None:
        _annotate(context, txn, plan, scan_details, profile)
    rows: Dict[int, int] = {}
    result = execute_plan(plan, source, rows)
    cost_model = context.cost_model
    charges = cost_model.operator_costs(plan, rows)
    if profile is not None:
        profile.stats = operator_stats(plan, rows, scan_details, charges)
    context.clock.advance(cost_model.task_overhead_s + sum(charges.values()))
    return result


def _annotate(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    scan_details: Dict[int, Dict[str, Any]],
    profile: PlanProfile,
) -> None:
    """Start ``profile`` afresh for ``plan``: scans, estimates, costs."""
    scan_rows = {
        scan_id: float(report.get("est_rows", 0))
        for scan_id, report in scan_details.items()
    }
    profile.plan = plan
    profile.scan_details = scan_details
    profile.estimates, profile.provenance, profile.costs = (
        context.optimizer.annotate(txn, plan, scan_rows)
    )


def _publish_scan_stats(context: ServiceContext, table_id, snapshot) -> None:
    stats = collect_stats(table_id, snapshot, context.config.sto)
    context.bus.publish(
        "stats.table",
        table_id=table_id,
        stats=stats,
    )
