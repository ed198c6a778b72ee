"""The cost model: simulated seconds for DCP tasks and plan operators.

Mirrors the cost-based resource allocation described in Section 7.1: task
cost is dominated by CPU (rows processed), with per-task scheduling
overhead, per-source-file IO overhead (reads within one file do not scale
out), and a transfer term for bytes moved to/from the object store.

Plan operators are priced the same way: each touches some number of
*row operations*, converted to seconds at ``seconds_per_million_rows``.
The constants below give the classic relative shapes of the join zoo:

* hash join pays a per-row build surcharge on its right (build) input
  and a spill penalty once the build side exceeds memory;
* sort-merge pays ``n log n`` on both inputs but never spills;
* index-nested-loop pays a logarithmic probe per left row (only
  priced when a catalog index actually exists on the right key);
* block-nested-loop pays the quadratic product shrunk by the block
  factor — unbeatable when one side is tiny.

One walker, :meth:`CostModel.operator_costs`, prices the operators the
root task runs above the scans from per-node output rows: with the
optimizer's estimates for EXPLAIN's ``cost=``, with the executor's
actual rows for the root task's clock charge.  Join choice prices each
alternative with the same formulas.  Every formula is documented in
``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.common.config import DcpConfig, StorageConfig
from repro.common.errors import PlanError
from repro.common.units import mib
from repro.engine.planner import (
    Aggregate,
    Filter,
    Join,
    Plan,
    Project,
    Sort,
    TableScan,
    _UNARY_NODES,
)

#: Per-row surcharge for building a hash table (vs. streaming a probe).
HASH_BUILD_FACTOR = 4.0
#: Build sides larger than this spill; both inputs are re-read once.
HASH_SPILL_ROWS = 65_536
#: Per-row multiplier applied to ``n log2 n`` sort work.
SORT_FACTOR = 0.25
#: Per-probe overhead of an index lookup on top of ``log2`` search.
INDEX_PROBE_OVERHEAD = 4.0
#: Left rows per block of a block-nested-loop join: one pass over the
#: right input serves a whole block.
BLOCK_NL_ROWS = 256


class CostModel:
    """Computes simulated task and operator durations from cost hints."""

    def __init__(self, dcp: DcpConfig, storage: StorageConfig) -> None:
        self._dcp = dcp
        self._storage = storage

    @property
    def task_overhead_s(self) -> float:
        """Fixed scheduling cost of one task attempt."""
        return self._dcp.task_overhead_s

    def row_seconds(self, row_ops: float) -> float:
        """Simulated CPU seconds of ``row_ops`` row operations."""
        return (row_ops / 1_000_000) * self._dcp.seconds_per_million_rows

    def task_duration(self, rows: int, files: int, io_bytes: int) -> float:
        """Simulated seconds for one task attempt."""
        cpu = self.row_seconds(rows)
        file_io = files * self._dcp.per_file_overhead_s
        transfer = mib(io_bytes) * self._storage.per_mib_latency_s
        requests = files * self._storage.request_latency_s
        return self._dcp.task_overhead_s + cpu + file_io + transfer + requests

    def join_cost(
        self,
        algorithm: str,
        left_rows: float,
        right_rows: float,
        out_rows: float,
    ) -> float:
        """Simulated seconds of joining ``left × right`` with one algorithm."""
        left = max(left_rows, 0.0)
        right = max(right_rows, 0.0)
        out = max(out_rows, 0.0)
        if algorithm == "hash":
            ops = left + HASH_BUILD_FACTOR * right + out
            if right > HASH_SPILL_ROWS:
                ops += 2.0 * (left + right)
        elif algorithm == "sort_merge":
            ops = (
                SORT_FACTOR
                * (left * math.log2(left + 2.0) + right * math.log2(right + 2.0))
                + out
            )
        elif algorithm == "index_nl":
            ops = left * (math.log2(right + 2.0) + INDEX_PROBE_OVERHEAD) + out
        elif algorithm == "block_nl":
            ops = (left * right) / BLOCK_NL_ROWS + out
        else:
            raise PlanError(f"unknown join algorithm {algorithm!r}")
        return self.row_seconds(ops)

    def choose_join_algorithm(
        self,
        left_rows: float,
        right_rows: float,
        out_rows: float,
        right_index: bool,
    ) -> Tuple[str, float]:
        """The cheapest applicable algorithm and its cost in seconds.

        ``index_nl`` is only considered when a secondary index exists on
        the right key (``right_index``).  Ties break alphabetically so
        choices are deterministic across runs.
        """
        candidates = ["block_nl", "hash", "sort_merge"]
        if right_index:
            candidates.append("index_nl")
        cost, name = min(
            (self.join_cost(name, left_rows, right_rows, out_rows), name)
            for name in candidates
        )
        return name, cost

    def operator_costs(self, plan: Plan, rows: Dict[int, int]) -> Dict[int, float]:
        """Simulated seconds of every root-side operator, by ``id(node)``.

        ``rows`` maps ``id(node)`` to the node's output rows — estimated
        or actual.  Each figure covers the operator's own work only, over
        its inputs' rows.  Scans get no entry: their distributed tasks are
        priced by :meth:`task_duration` when they run.
        """
        costs: Dict[int, float] = {}

        def out(node: Plan) -> float:
            return float(rows.get(id(node), 0))

        def walk(node: Plan) -> None:
            if isinstance(node, TableScan):
                return
            if isinstance(node, Join):
                walk(node.left)
                walk(node.right)
                costs[id(node)] = self.join_cost(
                    node.algorithm, out(node.left), out(node.right), out(node)
                )
                return
            if not isinstance(node, _UNARY_NODES):
                raise PlanError(f"unknown plan node {node!r}")
            walk(node.child)
            child = out(node.child)
            if isinstance(node, (Filter, Project)):
                ops = child
            elif isinstance(node, Aggregate):
                ops = child + out(node)
            elif isinstance(node, Sort):
                ops = SORT_FACTOR * child * math.log2(child + 2.0)
            else:  # Limit
                ops = out(node)
            costs[id(node)] = self.row_seconds(ops)

        walk(plan)
        return costs
