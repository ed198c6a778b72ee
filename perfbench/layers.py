"""Per-layer self time for the traced benchmark run.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` — from this directory, without touching the program — and
records for every entry point three figures:

* ``<name>.self_ms`` — exclusive wall milliseconds: the call's duration
  minus the time its wrapped callees took (a stack of child times);
* ``<name>.calls`` — how often it was entered;
* ``<name>.sim_s`` — exclusive advance of the simulated clock.

Counts that belong to a layer (join rows, bytes decoded, cache hits,
commit-lock waits, ...) are taken in hooks at the same boundaries.

The wrappers are installed only around traced passes
(:meth:`LayerTracer.installed`) and removed afterwards, so the plain
passes of the same process run the untouched program.  A function bound
by ``from``-import is wrapped in the module that looks it up
(``repro.pagefile.reader.decode_column``, ``repro.fe.read_path.execute_plan``,
``repro.sql.runner.parse``, ...).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import WriteConflictError
from repro.engine.batch import num_rows
from repro.engine.planner import Join

#: Hook run before the wrapped call: ``before(args) -> token``.
Before = Callable[[tuple], Any]
#: Hook run after it: ``after(counts, token, args, result, error)``.
After = Callable[[Dict[str, float], Any, tuple, Any, Optional[BaseException]], None]


# -- hooks: counts taken where the work happens --------------------------------


def _count_joins(counts, token, args, result, error):
    """optimizer.joins.<algorithm> over the plan the optimizer returned."""
    if error is not None:
        return
    stack = [result[0]]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            counts[f"optimizer.joins.{node.algorithm}"] += 1
            stack.extend((node.left, node.right))
        elif hasattr(node, "child"):
            stack.append(node.child)


def _files_pruned(counts, token, args, result, error):
    if error is None:
        counts["optimizer.files_pruned"] += len(args[4].files) - len(result.files)


def _commit_conflicts(counts, token, args, result, error):
    if isinstance(error, WriteConflictError):
        counts["fe.commit.conflicts"] += 1


def _dag_size(args):
    return len(args[1])


def _dag_done(counts, tasks, args, result, error):
    counts["dcp.tasks"] += tasks
    if error is None:
        counts["dcp.makespan_sim_s"] += result.makespan


def _join_rows(counts, token, args, result, error):
    counts["engine.join.rows_in"] += num_rows(args[0]) + num_rows(args[1])
    if error is None:
        counts["engine.join.rows_out"] += num_rows(result)


def _bytes_decoded(counts, token, args, result, error):
    counts["pagefile.bytes_decoded"] += len(args[1])


def _get_bytes(counts, token, args, result, error):
    if error is None:
        counts["storage.bytes_read"] += result.size


def _put_bytes(counts, token, args, result, error):
    if error is None:
        counts["storage.bytes_written"] += result.size


def _staged_bytes(counts, token, args, result, error):
    counts["storage.bytes_written"] += len(args[3])


def _cache_before(args):
    stats = args[0].stats
    return stats.hits + stats.incremental_extensions, stats.manifests_replayed


def _cache_after(counts, token, args, result, error):
    stats = args[0].stats
    counts["lst.cache.gets"] += 1
    counts["lst.cache.reused"] += (
        stats.hits + stats.incremental_extensions - token[0]
    )
    counts["lst.manifests_replayed"] += stats.manifests_replayed - token[1]


def _lock_before(args):
    lock = args[0].commit_lock
    return lock.total_wait_s, lock.total_hold_s, lock.acquisitions


def _lock_after(counts, token, args, result, error):
    lock = args[0].commit_lock
    counts["sqldb.commit_lock.wait_sim_s"] += lock.total_wait_s - token[0]
    counts["sqldb.commit_lock.hold_sim_s"] += lock.total_hold_s - token[1]
    counts["sqldb.commit_lock.acquisitions"] += lock.acquisitions - token[2]
    if error is None:
        counts["sqldb.commits"] += 1


def _aborts_before(args):
    return args[0].stats["aborted"]


def _aborts_after(counts, token, args, result, error):
    counts["sqldb.aborts"] += args[0].stats["aborted"] - token


def _written_before(args):
    return args[0].store.meter.bytes_written


def _compacted(counts, token, args, result, error):
    counts["sto.bytes_rewritten"] += args[0].store.meter.bytes_written - token
    if error is None and result.committed:
        counts["sto.compactions"] += 1


def _collected(counts, token, args, result, error):
    if error is None:
        counts["sto.blobs_deleted"] += result.deleted_total


def _ledger(gateway) -> Tuple[int, int, float]:
    waited = sum(
        request.queue_wait_s
        for request in gateway.requests_with_status("completed", "failed")
    )
    return (
        gateway.finished_count("shed"),
        gateway.finished_count("timed_out"),
        waited,
    )


def _service_before(args):
    return _ledger(args[0])


def _service_after(counts, token, args, result, error):
    shed, timed_out, waited = _ledger(args[0])
    counts["service.shed"] += shed - token[0]
    counts["service.timed_out"] += timed_out - token[1]
    counts["service.admission_wait_sim_s"] += waited - token[2]


#: (layer entry point, "module[:Class]", attribute, before hook, after hook).
#: ``timed=False`` entries only count.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Before], Optional[After]], ...] = (
    ("sql.parse", "repro.sql.runner", "parse", None, None),
    ("sql.bind", "repro.sql.binder:Binder", "bind_select", None, None),
    ("optimizer.rewrite", "repro.optimizer.manager:QueryOptimizer", "rewrite",
     None, _count_joins),
    ("optimizer.annotate", "repro.optimizer.manager:QueryOptimizer", "annotate",
     None, None),
    ("fe.query", "repro.fe.read_path", "execute_query", None, None),
    ("fe.scan", "repro.fe.read_path", "scan_table", None, None),
    ("fe.dml", "repro.fe.write_path", "execute_insert", None, None),
    ("fe.dml", "repro.fe.write_path", "execute_bulk_load", None, None),
    ("fe.dml", "repro.fe.write_path", "execute_delete", None, None),
    ("fe.dml", "repro.fe.write_path", "execute_update", None, None),
    ("fe.commit", "repro.fe.transaction:PolarisTransaction", "commit",
     None, _commit_conflicts),
    ("dcp.execute", "repro.dcp.scheduler:Scheduler", "execute",
     _dag_size, _dag_done),
    ("engine.execute", "repro.fe.read_path", "execute_plan", None, None),
    ("engine.join", "repro.engine.operators", "join", None, _join_rows),
    ("engine.aggregate", "repro.engine.operators", "aggregate", None, None),
    ("engine.sort", "repro.engine.operators", "sort", None, None),
    ("engine.filter", "repro.engine.operators", "filter_batch", None, None),
    ("engine.filter", "repro.fe.read_path", "filter_batch", None, None),
    ("engine.project", "repro.engine.operators", "project", None, None),
    ("pagefile.decode", "repro.pagefile.reader", "decode_column",
     None, _bytes_decoded),
    ("pagefile.encode", "repro.pagefile.file_format", "encode_column",
     None, None),
    ("pagefile.read", "repro.pagefile.reader:PageFileReader", "read",
     None, None),
    ("pagefile.write", "repro.fe.write_path", "write_page_file", None, None),
    ("pagefile.write", "repro.optimizer.indexes", "write_page_file",
     None, None),
    ("storage.get", "repro.storage.object_store:ObjectStore", "get",
     None, _get_bytes),
    ("storage.put", "repro.storage.object_store:ObjectStore", "put",
     None, _put_bytes),
    ("storage.stage_block", "repro.storage.object_store:ObjectStore",
     "stage_block", None, _staged_bytes),
    ("storage.commit_block_list", "repro.storage.object_store:ObjectStore",
     "commit_block_list", None, None),
    ("lst.snapshot", "repro.lst.cache:SnapshotCache", "get",
     _cache_before, _cache_after),
    ("sqldb.commit", "repro.sqldb.engine:SqlDbEngine", "commit_transaction",
     _lock_before, _lock_after),
    ("sto.compaction", "repro.sto.orchestrator", "run_compaction",
     _written_before, _compacted),
    ("sto.checkpoint", "repro.sto.orchestrator", "run_checkpoint", None, None),
    ("sto.gc", "repro.sto.orchestrator", "run_garbage_collection",
     None, _collected),
    ("service", "repro.service.gateway:Gateway", "run",
     _service_before, _service_after),
)

#: Count-only hooks: (counter owner, "module[:Class]", attribute, before, after).
COUNTERS: Tuple[Tuple[str, str, str, Optional[Before], Optional[After]], ...] = (
    ("optimizer.files_pruned", "repro.optimizer.manager:QueryOptimizer",
     "prune_snapshot", None, _files_pruned),
    ("sqldb.aborts", "repro.sqldb.engine:SqlDbEngine", "forget",
     _aborts_before, _aborts_after),
)

#: Count metrics reported per pass, besides the three per entry point.
COUNT_NAMES = (
    "optimizer.joins.hash",
    "optimizer.joins.sort_merge",
    "optimizer.joins.index_nl",
    "optimizer.joins.block_nl",
    "optimizer.files_pruned",
    "fe.commit.conflicts",
    "dcp.tasks",
    "dcp.makespan_sim_s",
    "engine.join.rows_in",
    "engine.join.rows_out",
    "pagefile.bytes_decoded",
    "storage.bytes_read",
    "storage.bytes_written",
    "lst.manifests_replayed",
    "sqldb.commits",
    "sqldb.aborts",
    "sqldb.commit_lock.wait_sim_s",
    "sqldb.commit_lock.hold_sim_s",
    "sqldb.commit_lock.acquisitions",
    "sto.compactions",
    "sto.bytes_rewritten",
    "sto.blobs_deleted",
    "service.admission_wait_sim_s",
    "service.shed",
    "service.timed_out",
)


def entry_point_names() -> List[str]:
    """Distinct entry-point names, in table order."""
    names: List[str] = []
    for name, *__ in ENTRY_POINTS:
        if name not in names:
            names.append(name)
    return names


def _resolve(target: str):
    module_name, __, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """Exclusive wall and simulated time per layer entry point."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.sim_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: The simulated clock of the warehouse being traced; workloads
        #: that switch warehouses set it through :meth:`use_clock`.
        self.clock = None
        # Open frames: [wall start, sim start, child wall, child sim].
        self._stack: List[List[float]] = []

    def use_clock(self, clock) -> None:
        """Measure simulated time on ``clock`` from now on."""
        self.clock = clock

    def _sim_now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _wrap(self, name: Optional[str], fn, before, after):
        tracer = self
        counts = self.counts
        stack = self._stack

        if name is None:

            def counted(*args, **kwargs):
                token = before(args) if before is not None else None
                result = error = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    after(counts, token, args, result, error)

            return counted

        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [time.perf_counter(), tracer._sim_now(), 0.0, 0.0]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                wall = time.perf_counter() - frame[0]
                sim = tracer._sim_now() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += wall
                    stack[-1][3] += sim
                tracer.self_s[name] += wall - frame[2]
                tracer.sim_s[name] += sim - frame[3]
                tracer.calls[name] += 1
                if after is not None:
                    after(counts, token, args, result, error)

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the ``with`` body, then restore."""
        patches: List[Tuple[Any, str, Any]] = []
        try:
            for name, target, attr, before, after in ENTRY_POINTS:
                patches.append(self._patch(name, target, attr, before, after))
            for __, target, attr, before, after in COUNTERS:
                patches.append(self._patch(None, target, attr, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            self._stack.clear()

    def _patch(self, name, target, attr, before, after):
        owner = _resolve(target)
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, before, after))
        return owner, attr, original

    def per_pass(self, passes: int, traced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric, averaged over ``passes`` traced passes.

        ``traced_wall_s`` is the traced passes' total wall time; the part
        no entry point claims is reported as ``other.self_ms``.
        """
        out: Dict[str, float] = {}
        attributed = 0.0
        for name in entry_point_names():
            attributed += self.self_s[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1000.0 / passes
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.sim_s"] = self.sim_s[name] / passes
        out["other.self_ms"] = (traced_wall_s - attributed) * 1000.0 / passes
        for name in COUNT_NAMES:
            out[name] = self.counts[name] / passes
        out["storage.sim_s"] = sum(
            out[f"{name}.sim_s"]
            for name in entry_point_names()
            if name.startswith("storage.")
        )
        gets = self.counts["lst.cache.gets"]
        out["lst.cache.hit_ratio"] = (
            self.counts["lst.cache.reused"] / gets if gets else 0.0
        )
        return out
