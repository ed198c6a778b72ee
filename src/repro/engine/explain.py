"""EXPLAIN and EXPLAIN ANALYZE: plans as readable, annotated text.

``explain(plan)`` returns the operator tree, one node per line, with the
scans' pushed-down projections, predicates and pruning conjuncts — the
compiled-plan view the SQL FE would show for a statement.

Nothing here executes a plan.  The FE read path runs every statement
through the one interpreter (:func:`repro.engine.executor.execute_plan`)
and, when asked, fills a :class:`PlanProfile` sink with what it saw:
the executed plan, the scans' pruning reports, the estimates and the
per-node output rows.  Two pure functions read that sink:
:func:`operator_stats` pairs the row counts with the seconds the root
task was charged per operator into :class:`OperatorStats`, and
:func:`render_analyze` renders the EXPLAIN ANALYZE text (every operator
annotated with rows produced, simulated time and, for scans, file- and
row-group-level pruning counts).  The
query store reads the same sink through :func:`operator_summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import PlanError
from repro.engine.batch import Batch
from repro.engine.expressions import (
    BinOp,
    BoolOp,
    Case,
    Col,
    Expr,
    InList,
    Like,
    Lit,
    Not,
    Substr,
    Year,
)
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


def format_expr(expr: Expr) -> str:
    """One-line SQL-ish rendering of an expression tree."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Lit):
        return repr(expr.value)
    if isinstance(expr, BinOp):
        op = "=" if expr.op == "==" else ("<>" if expr.op == "!=" else expr.op)
        return f"({format_expr(expr.left)} {op} {format_expr(expr.right)})"
    if isinstance(expr, BoolOp):
        joiner = f" {expr.op.upper()} "
        return "(" + joiner.join(format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Not):
        return f"NOT {format_expr(expr.arg)}"
    if isinstance(expr, Like):
        return f"{format_expr(expr.arg)} LIKE {expr.pattern!r}"
    if isinstance(expr, InList):
        values = ", ".join(repr(v) for v in expr.values)
        return f"{format_expr(expr.arg)} IN ({values})"
    if isinstance(expr, Case):
        return (
            f"CASE WHEN {format_expr(expr.cond)} THEN {format_expr(expr.then)} "
            f"ELSE {format_expr(expr.orelse)} END"
        )
    if isinstance(expr, Year):
        return f"YEAR({format_expr(expr.arg)})"
    if isinstance(expr, Substr):
        return f"SUBSTRING({format_expr(expr.arg)}, {expr.start}, {expr.length})"
    raise TypeError(f"unknown expression {expr!r}")


def explain(plan: Plan) -> str:
    """Multi-line operator tree for a plan."""
    lines: List[str] = []
    _walk(plan, 0, lines)
    return "\n".join(lines)


@dataclass
class OperatorStats:
    """Measured execution stats of one plan operator."""

    #: Rows the operator produced.
    rows: int
    #: Simulated seconds the statement was charged for the operator: the
    #: measured distributed scan for scans, the root task's charge for
    #: the rest (None if unknown).
    sim_time_s: Optional[float] = None
    #: Scan-only extras: files/files_pruned, row_groups/row_groups_pruned,
    #: cells — whatever the scan source reported.
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PlanProfile:
    """One execution's profile sink.

    :func:`repro.fe.read_path.execute_query` fills it when given one;
    EXPLAIN ANALYZE (:func:`render_analyze`) and the query store
    (:func:`operator_summaries`) both read it, so the two views always
    describe the same execution.  All maps are keyed by ``id(plan_node)``
    of nodes in :attr:`plan`.
    """

    #: The physical plan actually executed (after cost-based optimizer
    #: rewrites).
    plan: Optional[Plan] = None
    #: The statement's output batch.
    batch: Optional[Batch] = None
    #: Scan pruning reports (files, row groups, cells, rows, est_rows and
    #: the scan's measured ``sim_time_s``).
    scan_details: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Planner-estimated output rows.
    estimates: Dict[int, int] = field(default_factory=dict)
    #: Estimate provenance (``stats`` / ``default``).
    provenance: Dict[int, str] = field(default_factory=dict)
    #: Estimated simulated seconds per root-side operator: the cost model
    #: over the estimates, comparable to the charged ``sim_time_s`` of
    #: :attr:`stats` (scans are priced by their tasks, not here).
    costs: Dict[int, float] = field(default_factory=dict)
    #: Per-operator stats (:func:`operator_stats`).
    stats: Dict[int, OperatorStats] = field(default_factory=dict)

    def stats_for(self, node: Plan) -> OperatorStats:
        """The stats recorded for one plan node."""
        return self.stats[id(node)]

    @property
    def text(self) -> str:
        """The EXPLAIN ANALYZE rendering of this execution."""
        return render_analyze(self)


def misestimate_ratio(est_rows: float, actual_rows: float) -> float:
    """Symmetric cardinality-misestimate factor, always >= 1.

    Both sides are floored at one row so empty results and zero
    estimates stay finite: 1.0 means exact to within a row, 10.0 means
    an order of magnitude off in either direction.
    """
    est = max(float(est_rows), 1.0)
    actual = max(float(actual_rows), 1.0)
    return max(actual / est, est / actual)


#: Display names of the physical join algorithms (plan text, operator
#: labels, DMV rows).  ``hash`` keeps its historical ``HashJoin`` label
#: so default plan hashes are unchanged.
JOIN_ALGORITHM_LABELS = {
    "hash": "HashJoin",
    "sort_merge": "SortMergeJoin",
    "index_nl": "IndexNLJoin",
    "block_nl": "BlockNLJoin",
}


def join_label(node: Join) -> str:
    """Display name of one Join node's chosen algorithm."""
    try:
        return JOIN_ALGORITHM_LABELS[node.algorithm]
    except KeyError:
        raise PlanError(f"unknown join algorithm {node.algorithm!r}") from None


def operator_labels(plan: Plan) -> List[Tuple[int, Plan, str]]:
    """Preorder ``(operator_id, node, label)`` triples for a plan.

    The preorder index is the stable ``operator_id`` the query store
    keys per-operator aggregates on — same plan shape, same ids.
    """
    labeled: List[Tuple[int, Plan, str]] = []
    for index, node in enumerate(_preorder(plan)):
        if isinstance(node, TableScan):
            label = f"Scan {node.table}"
        elif isinstance(node, Filter):
            label = "Filter"
        elif isinstance(node, Project):
            label = "Project"
        elif isinstance(node, Join):
            label = f"{join_label(node)}[{node.how}]"
        elif isinstance(node, Aggregate):
            label = "Aggregate"
        elif isinstance(node, Sort):
            label = "Sort"
        elif isinstance(node, Limit):
            label = "Limit"
        else:
            raise PlanError(f"unknown plan node {node!r}")
        labeled.append((index, node, label))
    return labeled


def operator_summaries(
    plan: Plan,
    stats: Dict[int, OperatorStats],
    estimates: Optional[Dict[int, int]] = None,
) -> List[Dict[str, Any]]:
    """Flat per-operator records (est vs actual rows, time, pruning).

    The cardinality-feedback rows the query store folds per fingerprint
    and serves back through ``sys.dm_exec_operator_stats``.
    """
    estimates = estimates or {}
    records: List[Dict[str, Any]] = []
    for operator_id, node, label in operator_labels(plan):
        node_stats = stats.get(id(node))
        details = node_stats.details if node_stats is not None else {}
        records.append(
            {
                "operator_id": operator_id,
                "operator": label,
                "est_rows": estimates.get(id(node), 0),
                "actual_rows": node_stats.rows if node_stats is not None else 0,
                "sim_time_s": (
                    node_stats.sim_time_s if node_stats is not None else None
                ),
                "files": details.get("files", 0),
                "files_pruned": details.get("files_pruned", 0),
                "row_groups": details.get("row_groups", 0),
                "row_groups_pruned": details.get("row_groups_pruned", 0),
            }
        )
    return records


def _preorder(plan: Plan) -> Iterator[Plan]:
    yield plan
    for child in _children(plan):
        yield from _preorder(child)


def _children(plan: Plan) -> Tuple[Plan, ...]:
    if isinstance(plan, TableScan):
        return ()
    if isinstance(plan, Join):
        return (plan.left, plan.right)
    if isinstance(plan, (Filter, Project, Aggregate, Sort, Limit)):
        return (plan.child,)
    raise PlanError(f"unknown plan node {plan!r}")


def operator_stats(
    plan: Plan,
    rows: Dict[int, int],
    scan_details: Dict[int, Dict[str, Any]],
    charges: Dict[int, float],
) -> Dict[int, OperatorStats]:
    """Per-operator stats of one execution, keyed by ``id(node)``.

    ``rows`` is the row sink of :func:`repro.engine.executor.execute_plan`
    and ``charges`` the per-operator seconds the root task was charged
    for them (:meth:`repro.dcp.costmodel.CostModel.operator_costs`).
    Scans take their measured simulated time and pruning counts from
    ``scan_details``.  Nothing is costed here.
    """
    stats: Dict[int, OperatorStats] = {}
    for node in _preorder(plan):
        if isinstance(node, TableScan):
            details = dict(scan_details.get(id(node), {}))
            elapsed = details.pop("sim_time_s", None)
        else:
            details = {}
            elapsed = charges[id(node)]
        stats[id(node)] = OperatorStats(
            rows=rows[id(node)], sim_time_s=elapsed, details=details
        )
    return stats


def render_analyze(profile: PlanProfile) -> str:
    """EXPLAIN ANALYZE text: the executed plan with observed stats.

    Every operator shows its rows and charged simulated ``time=``;
    ``est=``/``ratio=`` make cardinality misestimates visible, ``stats=``
    shows each estimate's provenance and ``cost=`` the seconds the cost
    model priced from the estimates, and scans add their file /
    row-group pruning counts.
    """
    lines: List[str] = []
    _walk(profile.plan, 0, lines, annotate=lambda node: _annotation(profile, node))
    return "\n".join(lines)


def _annotation(profile: PlanProfile, node: Plan) -> str:
    node_stats = profile.stats.get(id(node))
    if node_stats is None:
        return ""
    parts = [f"rows={node_stats.rows}"]
    est_rows = profile.estimates.get(id(node))
    if est_rows is not None:
        parts.append(f"est={est_rows}")
        parts.append(f"ratio={misestimate_ratio(est_rows, node_stats.rows):.2f}x")
    provenance = profile.provenance.get(id(node))
    if provenance is not None:
        parts.append(f"stats={provenance}")
    cost = profile.costs.get(id(node))
    if cost is not None:
        parts.append(f"cost={cost:.3f}s")
    if node_stats.sim_time_s is not None:
        parts.append(f"time={node_stats.sim_time_s:.3f}s")
    details = node_stats.details
    if "files" in details:
        parts.append(
            f"files={details['files'] - details.get('files_pruned', 0)}"
            f"/{details['files']}"
        )
    if details.get("files_pruned"):
        parts.append(f"files_pruned={details['files_pruned']}")
    if "row_groups" in details:
        parts.append(f"row_groups={details['row_groups']}")
    if details.get("row_groups_pruned"):
        parts.append(f"row_groups_pruned={details['row_groups_pruned']}")
    if "cells" in details:
        parts.append(f"cells={details['cells']}")
    return "  (" + " ".join(parts) + ")"


def _walk(
    plan: Plan,
    depth: int,
    lines: List[str],
    annotate: Optional[Callable[[Plan], str]] = None,
) -> None:
    pad = "  " * depth
    suffix = annotate(plan) if annotate is not None else ""
    if isinstance(plan, TableScan):
        line = f"{pad}Scan {plan.table} [{', '.join(plan.columns)}]"
        if plan.predicate is not None:
            line += f" filter={format_expr(plan.predicate)}"
        if plan.prune:
            conjuncts = " AND ".join(f"{c} {op} {v!r}" for c, op, v in plan.prune)
            line += f" prune=({conjuncts})"
        lines.append(line + suffix)
        return
    if isinstance(plan, Filter):
        lines.append(f"{pad}Filter {format_expr(plan.predicate)}" + suffix)
        _walk(plan.child, depth + 1, lines, annotate)
        return
    if isinstance(plan, Project):
        outputs = ", ".join(
            f"{name}={format_expr(expr)}" for name, expr in plan.outputs.items()
        )
        lines.append(f"{pad}Project [{outputs}]" + suffix)
        _walk(plan.child, depth + 1, lines, annotate)
        return
    if isinstance(plan, Join):
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(plan.left_keys, plan.right_keys)
        )
        lines.append(f"{pad}{join_label(plan)}[{plan.how}] on ({keys})" + suffix)
        _walk(plan.left, depth + 1, lines, annotate)
        _walk(plan.right, depth + 1, lines, annotate)
        return
    if isinstance(plan, Aggregate):
        keys = ", ".join(plan.group_keys) if plan.group_keys else "<global>"
        aggs = ", ".join(
            f"{name}={func}({format_expr(expr) if expr is not None else '*'})"
            for name, (func, expr) in plan.aggs.items()
        )
        lines.append(f"{pad}Aggregate group=[{keys}] [{aggs}]" + suffix)
        _walk(plan.child, depth + 1, lines, annotate)
        return
    if isinstance(plan, Sort):
        keys = ", ".join(
            f"{column} {'ASC' if asc else 'DESC'}" for column, asc in plan.keys
        )
        lines.append(f"{pad}Sort [{keys}]" + suffix)
        _walk(plan.child, depth + 1, lines, annotate)
        return
    if isinstance(plan, Limit):
        lines.append(f"{pad}Limit {plan.count}" + suffix)
        _walk(plan.child, depth + 1, lines, annotate)
        return
    raise TypeError(f"unknown plan node {plan!r}")
