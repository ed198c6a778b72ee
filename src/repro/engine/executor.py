"""Single-node plan execution: the engine's one plan interpreter.

Evaluates a logical plan bottom-up over materialized batches.  The caller
supplies a *scan source*: a callable resolving each :class:`TableScan`
into a batch — in production that is the FE read path over a transaction's
snapshot; in tests it can be a plain dict of batches.  Every execution —
plain queries, the query store's profiled runs and EXPLAIN ANALYZE — goes
through :func:`execute_plan`; profiling only adds a ``rows`` sink, from
which :mod:`repro.engine.explain` derives per-operator stats.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import PlanError
from repro.engine import operators
from repro.engine.batch import Batch, num_rows
from repro.engine.planner import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Sort,
    TableScan,
)

#: Resolves a TableScan into its (already projected/pruned/filtered) batch.
ScanSource = Callable[[TableScan], Batch]


def execute_plan(
    plan: Plan, scan_source: ScanSource, rows: Optional[Dict[int, int]] = None
) -> Batch:
    """Execute ``plan`` and return the result batch.

    With a ``rows`` dict, every node's output row count is recorded in it
    under ``id(node)``.
    """

    def run(node: Plan) -> Batch:
        return execute_plan(node, scan_source, rows)

    if isinstance(plan, TableScan):
        batch = scan_source(plan)
        missing = [c for c in plan.columns if c not in batch]
        if missing:
            raise PlanError(f"scan of {plan.table!r} missing columns {missing}")
        out = {name: batch[name] for name in plan.columns}
    elif isinstance(plan, Filter):
        out = operators.filter_batch(run(plan.child), plan.predicate)
    elif isinstance(plan, Project):
        out = operators.project(run(plan.child), plan.outputs)
    elif isinstance(plan, Join):
        out = operators.join(
            run(plan.left),
            run(plan.right),
            plan.left_keys,
            plan.right_keys,
            plan.how,
            plan.algorithm,
        )
    elif isinstance(plan, Aggregate):
        out = operators.aggregate(run(plan.child), plan.group_keys, plan.aggs)
    elif isinstance(plan, Sort):
        out = operators.sort(run(plan.child), plan.keys)
    elif isinstance(plan, Limit):
        out = operators.limit(run(plan.child), plan.count)
    else:
        raise PlanError(f"unknown plan node {plan!r}")
    if rows is not None:
        rows[id(plan)] = num_rows(out)
    return out


def dict_scan_source(batches: Dict[str, Batch]) -> ScanSource:
    """A scan source over in-memory tables (tests and examples).

    Applies the scan's residual predicate, since there is no storage layer
    underneath to do it.
    """

    def source(scan: TableScan) -> Batch:
        batch = batches[scan.table]
        if scan.predicate is not None:
            batch = operators.filter_batch(batch, scan.predicate)
        return batch

    return source
