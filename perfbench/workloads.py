"""The four benchmark workloads and the correctness checks they carry.

Every workload has the same shape:

* ``build()`` creates a fresh, loaded warehouse state from the seeded
  inputs (the timed set-up);
* ``run_pass(state, tracer)`` runs one timed pass and returns a
  :class:`PassRecord` (wall and simulated seconds, per-statement wall
  latencies, attempted/failed operations, result digests);
* ``check_pass(state, record, index)`` verifies the pass outside the
  timed section and returns a list of problems;
* ``close(state)`` takes the storage figures (write and space
  amplification) outside the timed section.

``passes_per_build`` is how many passes one build serves: ``None`` for a
read-only state that every pass sees unchanged, otherwise the number of
passes after which the state is rebuilt, so that every round of passes
ages the storage the same way.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import PolarisConfig, Warehouse
from repro.common.errors import PolarisError
from repro.engine.batch import num_rows
from repro.engine.planner import Aggregate, TableScan
from repro.service import Gateway
from repro.sql.runner import SqlSession
from repro.workloads.lst_bench import LstBenchRunner
from repro.workloads.service_load import ServiceLoadGenerator
from repro.workloads.tpcds.schema import TPCDS_SCHEMAS
from repro.workloads.tpch import TPCH_QUERIES, TPCH_SQL_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

#: The TPC-H data set ``tpch_analyzed`` always loads (see TpchWorkload).
ANALYZED_DATA_SEED = 42

#: Secondary indexes of ``tpch_analyzed`` (those ``bench_optimizer`` builds).
TPCH_INDEXES = (
    ("customer", "idx_customer_custkey", "c_custkey"),
    ("orders", "idx_orders_custkey", "o_custkey"),
    ("lineitem", "idx_lineitem_orderkey", "l_orderkey"),
)


def bench_config() -> PolarisConfig:
    """The deployment every workload runs on (micro-benchmark scaling)."""
    config = PolarisConfig()
    config.distributions = 8
    config.rows_per_cell = 20_000
    config.sto.min_healthy_rows_per_file = 300
    config.sto.max_deleted_fraction = 0.2
    config.sto.checkpoint_manifest_threshold = 10
    config.sto.poll_interval_s = 60.0
    return config


def digest(value: Any) -> str:
    """A stable digest of a result batch (or of a scalar result)."""
    h = hashlib.sha256()
    if not isinstance(value, dict):
        h.update(repr(value).encode())
        return h.hexdigest()[:16]
    for name in sorted(value):
        column = np.asarray(value[name])
        h.update(name.encode())
        h.update(column.dtype.str.encode())
        if column.dtype == object:
            h.update("\x1f".join(map(repr, column.tolist())).encode())
        else:
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


def batch_nbytes(batch) -> int:
    """Logical bytes of a batch: the sum of its numpy ``nbytes``."""
    return sum(np.asarray(column).nbytes for column in batch.values())


def _take(batch, order):
    """The rows of ``batch`` in ``order``."""
    return {name: np.asarray(column)[order] for name, column in batch.items()}


def same_sim(a: float, b: float) -> bool:
    """Simulated durations equal up to float accumulation on the clock."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def store_bytes(dw: Warehouse) -> int:
    """Bytes of every blob in the object store (charges no latency)."""
    with dw.store.latency_suspended():
        return sum(blob.size for blob in dw.store.list())


def scan_table(session, table: str, columns) -> Tuple[int, int]:
    """(rows, numpy bytes) of a full scan of ``table``."""
    batch = session.query(TableScan(table, tuple(columns)))
    return num_rows(batch), batch_nbytes(batch)


def count_rows(session, table: str, column: str) -> int:
    """``COUNT(*)`` of ``table`` through the query engine."""
    batch = session.query(
        Aggregate(TableScan(table, (column,)), (), {"n": ("count", None)})
    )
    return int(batch["n"][0])


def _result_mismatch(a, b) -> str:
    """Why two result batches differ beyond float summation order, or ''."""
    if list(a) != list(b):
        return f"columns {list(a)} != {list(b)}"
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.dtype != y.dtype or x.shape != y.shape:
            return f"{name}: {x.dtype}{x.shape} != {y.dtype}{y.shape}"
        if x.dtype.kind == "f":
            scale = float(np.max(np.abs(y))) if y.size else 0.0
            if not np.all(np.abs(x - y) <= 1e-9 * scale):
                return f"{name}: float values differ beyond 1e-9 relative"
        elif digest({name: x}) != digest({name: y}):
            return f"{name}: values differ"
    return ""


class PassRecord:
    """What one timed pass measured."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.sim_s = 0.0
        self.query_ms: List[float] = []
        self.write_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: One digest per statement (or per gateway rung), in order.
        self.digests: List[str] = []
        #: Workload-specific figures of this pass.
        self.extra: Dict[str, float] = {}
        #: The statements' results, when the caller keeps them.
        self.results: Optional[List[Any]] = None

    def statement(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run and time one statement; ``kind`` is query|write|maintenance."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except PolarisError as error:
            self.failed += 1
            self.digests.append("failed:" + type(error).__name__)
            return None
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if kind == "query":
            self.query_ms.append(elapsed_ms)
        elif kind == "write":
            self.write_ms.append(elapsed_ms)
        self.digests.append(digest(result))
        if self.results is not None:
            self.results.append(result)
        return result


class _Timed:
    """Accumulates one pass's timed sections on both clocks."""

    def __init__(self, record: PassRecord, clock) -> None:
        self.record = record
        self.clock = clock

    def __enter__(self):
        self._wall = time.perf_counter()
        self._sim = self.clock.now
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record.wall_s += time.perf_counter() - self._wall
        self.record.sim_s += self.clock.now - self._sim


# -- TPC-H: power run and analyzed power run -----------------------------------


class TpchState:
    """One loaded TPC-H warehouse and its reference result digests."""

    def __init__(self, dw: Warehouse) -> None:
        self.dw = dw
        self.session = dw.session()
        self.sql = SqlSession(self.session)
        #: Result digests of the warm-up pass, which every pass repeats.
        self.reference: List[str] = []
        #: Results of the warm-up pass, until :meth:`check_once` drops them.
        self.warm_results: Optional[List[Any]] = None
        #: Simulated time of the first timed pass (the warm-up pass fills
        #: caches, so it costs more), which every later pass repeats.
        self.reference_sim_s: Optional[float] = None


class TpchWorkload:
    """The 22 plan-builder queries then the 6 SQL texts, one session."""

    passes_per_build: Optional[int] = None
    has_writes = False

    def __init__(self, scale_factor: float, seed: int, analyzed: bool) -> None:
        self.analyzed = analyzed
        if not analyzed:
            self.tables = TpchGenerator(scale_factor, seed=seed).all_tables()
        else:
            # At this scale a dimension table has a few dozen rows, so
            # which nation a seed gives each supplier or customer swings
            # the cost of a nested-loop join 3-15x (Q21 took 33 ms with
            # one seed, 499 ms with another, on the same plans).  The
            # analyzed workload therefore loads one data set, seed 42's,
            # and the seed shuffles the order its rows are loaded in.
            rng = np.random.default_rng(seed)
            self.tables = {
                name: _take(batch, rng.permutation(num_rows(batch)))
                for name, batch in TpchGenerator(
                    scale_factor, seed=ANALYZED_DATA_SEED
                ).all_tables().items()
            }
        self.ingested_bytes = sum(batch_nbytes(b) for b in self.tables.values())

    def _load(self) -> TpchState:
        state = TpchState(
            Warehouse(
                config=bench_config(),
                elastic=True,
                separate_pools=True,
                auto_optimize=False,
            )
        )
        for name, batch in self.tables.items():
            state.session.create_table(
                name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name]
            )
            state.session.insert(name, batch)
        return state

    def build(self) -> TpchState:
        """Load, ANALYZE and index when analyzed, then one warm-up pass."""
        state = self._load()
        if self.analyzed:
            for table in state.session.table_names():
                state.session.analyze_table(table)
            for table, index_name, column in TPCH_INDEXES:
                state.session.create_index(table, index_name, column)
        warm = self.run_pass(state, keep_results=True)
        state.reference = warm.digests
        state.warm_results = warm.results
        return state

    def check_once(self, state: TpchState) -> Tuple[List[str], Dict[str, float]]:
        """Analyzed results against the statistics-free results.

        The same corpus runs on the same data without statistics.  Every
        result must have the same columns, dtypes and rows in the same
        order; every non-float column must be byte-equal.  A float column
        may differ in its last bits, because a reordered join feeds the
        rows to ``sum`` in another order, but by no more than 1e-9 of the
        column's largest magnitude.  How many results are byte-equal is
        reported.
        """
        analyzed, state.warm_results = state.warm_results, None
        if not self.analyzed:
            return [], {}
        plain = self.run_pass(self._load(), keep_results=True)
        problems = []
        for index, (a, b) in enumerate(zip(analyzed, plain.results)):
            problem = _result_mismatch(a, b)
            if problem:
                problems.append(
                    f"statement {index}: analyzed result differs from the "
                    f"statistics-free one: {problem}"
                )
        byte_equal = sum(
            a == b for a, b in zip(state.reference, plain.digests)
        )
        return problems, {"byte_equal_results": byte_equal}

    def run_pass(
        self, state: TpchState, tracer=None, keep_results: bool = False
    ) -> PassRecord:
        if tracer is not None:
            tracer.use_clock(state.dw.clock)
        record = PassRecord()
        if keep_results:
            record.results = []
        session, sql = state.session, state.sql
        with _Timed(record, state.dw.clock):
            for __, builder in sorted(TPCH_QUERIES.items()):
                record.statement("query", lambda: session.query(builder()))
            for __, text in sorted(TPCH_SQL_QUERIES.items()):
                record.statement("query", lambda: sql.execute(text))
        return record

    def report_figures(self, record: PassRecord) -> Dict[str, float]:
        return {}

    def check_pass(self, state: TpchState, record: PassRecord, index: int) -> List[str]:
        problems = []
        if record.digests != state.reference:
            problems.append(f"pass {index}: result digests differ from the warm-up pass")
        if state.reference_sim_s is None:
            state.reference_sim_s = record.sim_s
        elif not same_sim(record.sim_s, state.reference_sim_s):
            problems.append(
                f"pass {index}: simulated time {record.sim_s!r} differs from "
                f"the first pass {state.reference_sim_s!r}"
            )
        return problems

    def close(self, state: TpchState) -> Dict[str, float]:
        live = sum(
            scan_table(state.session, name, TPCH_SCHEMAS[name].names)[1]
            for name in self.tables
        )
        return {
            "write_amp": state.dw.store.meter.bytes_written / self.ingested_bytes,
            "space_amp": store_bytes(state.dw) / live,
        }


# -- LST-Bench WP1 ---------------------------------------------------------------


class CountingSession:
    """An FE session that tallies the rows its DML statements report.

    ``rows[table]`` is rows loaded + inserted - deleted, from the
    statements' own return values; ``ingested_bytes`` sums the numpy
    bytes of every batch handed to an insert or a load.
    """

    def __init__(self, session) -> None:
        self._session = session
        self.rows: Dict[str, int] = {}
        self.ingested_bytes = 0

    def __getattr__(self, name: str):
        return getattr(self._session, name)

    def insert(self, table: str, batch) -> int:
        count = self._session.insert(table, batch)
        self.rows[table] = self.rows.get(table, 0) + count
        self.ingested_bytes += batch_nbytes(batch)
        return count

    def bulk_load(self, table: str, source_batches) -> int:
        count = self._session.bulk_load(table, source_batches)
        self.rows[table] = self.rows.get(table, 0) + count
        self.ingested_bytes += sum(batch_nbytes(b) for b in source_batches)
        return count

    def delete(self, table: str, *args, **kwargs) -> int:
        count = self._session.delete(table, *args, **kwargs)
        self.rows[table] = self.rows.get(table, 0) - count
        return count


class LstState:
    """One LST-Bench warehouse and the round of passes it serves."""

    def __init__(self, dw: Warehouse, runner: LstBenchRunner, session) -> None:
        self.dw = dw
        self.runner = runner
        self.session = session


class LstWp1Workload:
    """LST-Bench WP1: SU power run, DM phase, STO tick — per pass."""

    #: Passes per round: the storage ages over these, then is rebuilt.
    passes_per_build: Optional[int] = 4
    has_writes = True
    scale_factor = 8.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Digests and simulated time of each pass of the first round;
        #: later rounds must repeat them exactly.
        self._round_reference: List[Tuple[List[str], float]] = []

    def build(self) -> LstState:
        dw = Warehouse(
            config=bench_config(), elastic=True, separate_pools=True, auto_optimize=True
        )
        runner = LstBenchRunner(dw, scale_factor=self.scale_factor, seed=self.seed)
        session = CountingSession(runner.session)
        runner.session = session
        runner.setup()
        return LstState(dw, runner, session)

    def check_once(self, state: LstState) -> Tuple[List[str], Dict[str, float]]:
        return [], {}

    def run_pass(self, state: LstState, tracer=None) -> PassRecord:
        if tracer is not None:
            tracer.use_clock(state.dw.clock)
        record = PassRecord()
        runner, session = state.runner, state.session
        with _Timed(record, state.dw.clock):
            for __, plan in runner.su_queries():
                record.statement("query", lambda: session.query(plan))
            for label, stmt in runner.dm_statements():
                kind = "maintenance" if ":compact" in label else "write"
                before = dict(session.rows)
                record.statement(kind, stmt)
                # The DM closures return nothing; digest the row change
                # the statement reported instead.
                record.digests[-1] += digest(
                    {t: session.rows[t] - before.get(t, 0) for t in session.rows}
                )
            record.statement("maintenance", state.dw.sto.tick)
        return record

    def report_figures(self, record: PassRecord) -> Dict[str, float]:
        return {}

    def check_pass(self, state: LstState, record: PassRecord, index: int) -> List[str]:
        problems = []
        for table, expected in sorted(state.session.rows.items()):
            column = TPCDS_SCHEMAS[table].names[0]
            actual = count_rows(state.session, table, column)
            if actual != expected:
                problems.append(
                    f"pass {index}: {table} has {actual} rows, statements "
                    f"account for {expected}"
                )
        position = index % self.passes_per_build
        if len(self._round_reference) <= position:
            self._round_reference.append((record.digests, record.sim_s))
        else:
            digests, sim_s = self._round_reference[position]
            if record.digests != digests or not same_sim(record.sim_s, sim_s):
                problems.append(
                    f"pass {index}: does not repeat pass {position} of the "
                    "first round"
                )
        return problems

    def close(self, state: LstState) -> Dict[str, float]:
        live = sum(
            scan_table(state.session, name, TPCDS_SCHEMAS[name].names)[1]
            for name in sorted(state.session.rows)
        )
        return {
            "write_amp": state.dw.store.meter.bytes_written
            / state.session.ingested_bytes,
            "space_amp": store_bytes(state.dw) / live,
        }


# -- gateway commit load -----------------------------------------------------------


class Rung:
    """One offered rate of the ladder: a fresh warehouse behind a gateway."""

    def __init__(self, think_s: float, dw, gateway, generator, rows_before) -> None:
        self.think_s = think_s
        self.dw = dw
        self.gateway = gateway
        self.generator = generator
        self.rows_before = rows_before
        self.report = None
        #: Wall milliseconds per executed request, by workload class.
        self.wall_ms: Dict[str, List[float]] = {"analytical": [], "transactional": []}
        execute = gateway._execute

        def timed_execute(request) -> None:
            start = time.perf_counter()
            execute(request)
            self.wall_ms[request.workload_class].append(
                (time.perf_counter() - start) * 1000.0
            )

        # Instance attribute: the dispatcher looks ``_execute`` up on self.
        gateway._execute = timed_execute


class GatewayWorkload:
    """Open-loop trickle inserts and Q1/Q6 scans through the gateway."""

    passes_per_build: Optional[int] = 1
    has_writes = True
    #: Mean think time per client of each ladder rung (simulated seconds).
    THINK_S = (64.0, 32.0, 16.0)
    #: The rung the rate-specific metrics are read at.
    REFERENCE_THINK_S = 32.0
    TRANSACTIONAL_CLIENTS = 16
    ANALYTICAL_CLIENTS = 2
    REQUESTS_PER_CLIENT = 40
    SCALE_FACTOR = 0.2
    COMMIT_HOLD_S = 0.5
    #: Latency limit on the transactional p95 for ``max_rate_within_slo``.
    SLO_P95_SIM_S = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._reference: Optional[List[str]] = None

    def _config(self) -> PolarisConfig:
        config = bench_config()
        config.txn.commit_hold_s = self.COMMIT_HOLD_S
        # Overload shows as queueing delay, not as lost requests: no
        # queued request expires and no class queue overflows, so every
        # request of every rung completes.
        config.service.queue_deadline_s = 1e9
        config.service.queue_capacity = 10 * self.REQUESTS_PER_CLIENT * (
            self.TRANSACTIONAL_CLIENTS + self.ANALYTICAL_CLIENTS
        )
        return config

    def build(self) -> List[Rung]:
        rungs = []
        for think_s in self.THINK_S:
            dw = Warehouse(config=self._config(), auto_optimize=True)
            gateway = Gateway(dw.context, seed=self.seed)
            generator = ServiceLoadGenerator(
                gateway,
                seed=self.seed,
                transactional_clients=self.TRANSACTIONAL_CLIENTS,
                analytical_clients=self.ANALYTICAL_CLIENTS,
                requests_per_client=self.REQUESTS_PER_CLIENT,
                mean_think_s=think_s,
                scale_factor=self.SCALE_FACTOR,
            )
            generator.setup()
            rows_before = count_rows(dw.session(), "lineitem", "l_orderkey")
            rungs.append(Rung(think_s, dw, gateway, generator, rows_before))
        return rungs

    def check_once(self, rungs: List[Rung]) -> Tuple[List[str], Dict[str, float]]:
        return [], {}

    def run_pass(self, rungs: List[Rung], tracer=None) -> PassRecord:
        record = PassRecord()
        for rung in rungs:
            if tracer is not None:
                tracer.use_clock(rung.dw.clock)
            start = time.perf_counter()
            rung.report = rung.generator.run()
            record.wall_s += time.perf_counter() - start
            requests = rung.gateway.requests_with_status(
                "completed", "failed", "timed_out", "shed"
            )
            # The dispatcher executes one request at a time: its busy
            # time is the simulated work of the rung.  (Elapsed time of
            # an open loop is set by the arrival schedule.)
            record.sim_s += sum(r.execute_s for r in requests)
            report = rung.report
            record.attempted += report.submitted - report.retries
            record.failed += report.abandoned + report.timed_out + report.failed
            record.query_ms += rung.wall_ms["analytical"]
            record.write_ms += rung.wall_ms["transactional"]
            record.digests.append(
                digest(
                    [
                        (
                            r.request_id,
                            r.status,
                            repr(r.finished_at),
                            digest(r.result),
                        )
                        for r in requests
                    ]
                )
            )
            record.extra.update(self._rung_figures(rung, requests))
        return record

    def _rung_figures(self, rung: Rung, requests) -> Dict[str, float]:
        """txn latency percentiles, goodput and SLO verdict of one rung."""
        report = rung.report
        latencies = sorted(
            r.finished_at - r.submitted_at
            if r.status == "completed"
            else float("inf")
            for r in requests
            if r.workload_class == "transactional"
        ) + [float("inf")] * report.abandoned
        tag = f"think_{rung.think_s:g}"
        p95 = float(np.percentile(latencies, 95))
        return {
            f"{tag}.txn_sim_s_p50": float(np.percentile(latencies, 50)),
            f"{tag}.txn_sim_s_p95": p95,
            f"{tag}.goodput_per_sim_s": report.goodput,
            f"{tag}.elapsed_sim_s": report.elapsed_s,
            f"{tag}.within_slo": float(
                p95 <= self.SLO_P95_SIM_S
                and report.shed + report.abandoned + report.timed_out + report.failed == 0
            ),
        }

    def offered_rate(self, think_s: float) -> float:
        """Requests per simulated second the ladder rung offers."""
        return (self.TRANSACTIONAL_CLIENTS + self.ANALYTICAL_CLIENTS) / think_s

    def report_figures(self, record: PassRecord) -> Dict[str, float]:
        """The rate-ladder metrics (every pass repeats the first)."""
        extra = record.extra
        ref = f"think_{self.REFERENCE_THINK_S:g}"
        within = [
            self.offered_rate(think)
            for think in self.THINK_S
            if extra[f"think_{think:g}.within_slo"]
        ]
        figures = {
            "txn_sim_s_p50": extra[f"{ref}.txn_sim_s_p50"],
            "txn_sim_s_p95": extra[f"{ref}.txn_sim_s_p95"],
            "goodput_per_sim_s": extra[f"{ref}.goodput_per_sim_s"],
            "max_rate_within_slo": max(within) if within else 0.0,
        }
        for think in self.THINK_S:
            tag = f"think_{think:g}"
            figures[f"{tag}.txn_sim_s_p95"] = extra[f"{tag}.txn_sim_s_p95"]
            figures[f"{tag}.elapsed_sim_s"] = extra[f"{tag}.elapsed_sim_s"]
        return figures

    def check_pass(self, rungs: List[Rung], record: PassRecord, index: int) -> List[str]:
        problems = []
        for rung in rungs:
            inserted = sum(
                r.result
                for r in rung.gateway.requests_with_status("completed")
                if r.workload_class == "transactional"
            )
            actual = count_rows(rung.dw.session(), "lineitem", "l_orderkey")
            if actual != rung.rows_before + inserted:
                problems.append(
                    f"pass {index}, think {rung.think_s:g}s: lineitem has "
                    f"{actual} rows, expected {rung.rows_before} + {inserted}"
                )
        if self._reference is None:
            self._reference = record.digests
        elif record.digests != self._reference:
            problems.append(f"pass {index}: request outcomes differ from pass 0")
        return problems

    def close(self, rungs: List[Rung]) -> Dict[str, float]:
        """Storage figures of the reference rung.

        No statement deletes, so the live rows a full scan returns are
        exactly the rows ingested.
        """
        rung = next(r for r in rungs if r.think_s == self.REFERENCE_THINK_S)
        __, live = scan_table(
            rung.dw.session(), "lineitem", TPCH_SCHEMAS["lineitem"].names
        )
        return {
            "write_amp": rung.dw.store.meter.bytes_written / live,
            "space_amp": store_bytes(rung.dw) / live,
        }


#: Workload name -> (factory taking the seed, default seed).
WORKLOADS: Dict[str, Tuple[Callable[[int], Any], int]] = {
    "tpch_power": (lambda seed: TpchWorkload(1.0, seed, analyzed=False), 42),
    "tpch_analyzed": (lambda seed: TpchWorkload(0.25, seed, analyzed=True), 42),
    "lst_wp1": (LstWp1Workload, 7),
    "gateway_commit": (GatewayWorkload, 0),
}
