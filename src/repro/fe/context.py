"""The service context: every component a session or system task needs.

One :class:`ServiceContext` is assembled per warehouse by
:class:`repro.warehouse.Warehouse` and threaded through the FE, the STO
and the benchmarks.  Keeping it a plain bundle (rather than globals) makes
every test hermetic — two warehouses never share state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.common.clock import SimulatedClock
from repro.common.config import PolarisConfig
from repro.common.events import EventBus
from repro.common.ids import GuidGenerator, MonotonicSequence
from repro.dcp.autoscaler import Autoscaler
from repro.dcp.costmodel import CostModel
from repro.dcp.scheduler import Scheduler
from repro.dcp.wlm import WorkloadManager
from repro.lst.cache import SnapshotCache
from repro.sqldb.engine import SqlDbEngine
from repro.storage.object_store import ObjectStore
from repro.storage.retry import with_retries
from repro.telemetry.facade import Telemetry
from repro.telemetry.timeseries import MetricsSampler, Watchdog, default_rules

if TYPE_CHECKING:
    from repro.optimizer.manager import QueryOptimizer
    from repro.service.gateway import Gateway
    from repro.telemetry.introspection import Introspector

T = TypeVar("T")


@dataclass
class ServiceContext:
    """Shared infrastructure of one Polaris deployment."""

    database: str
    config: PolarisConfig
    clock: SimulatedClock
    store: ObjectStore
    sqldb: SqlDbEngine
    wlm: WorkloadManager
    scheduler: Scheduler
    autoscaler: Autoscaler
    cost_model: CostModel
    cache: SnapshotCache
    #: Cost-based query optimizer: ANALYZE statistics, secondary indexes
    #: and plan rewriting (it reads the catalog through each statement's
    #: transaction); ``config.optimizer.enabled`` is its off switch.
    optimizer: "QueryOptimizer"
    guids: GuidGenerator
    bus: EventBus
    #: Span tracing + metrics for the whole deployment.
    telemetry: Telemetry
    #: Resolves ``sys.dm_*`` system-view names (attached after
    #: construction, like the cache — it subscribes to the bus).
    introspection: "Optional[Introspector]" = None
    #: The multi-tenant gateway fronting this deployment, if one was
    #: constructed (it attaches itself; ``sys.dm_sessions`` /
    #: ``sys.dm_requests`` read it and recovery scavenges it).
    gateway: "Optional[Gateway]" = None
    #: Whether the deployment sizes pools per statement (serverless Fabric
    #: model) or keeps the fixed provisioned size (Synapse SQL DW model) —
    #: the contrast of Figure 8.
    elastic: bool = True
    #: Allocates logical table ids.
    table_ids: MonotonicSequence = field(
        default_factory=lambda: MonotonicSequence(start=1001)
    )

    def retry(self, label: str, operation: Callable[[], T]) -> T:
        """Run one FE-side store operation under the deployment's retry
        policy: seeded backoff charged to the clock, attempts recorded in
        telemetry under ``label`` (see :func:`~repro.storage.retry.with_retries`)."""
        return with_retries(
            operation,
            telemetry=self.telemetry,
            label=label,
            clock=self.clock,
            config=self.config.storage,
            seed=self.config.seed,
        )

    @classmethod
    def create(
        cls,
        database: str = "dw",
        config: Optional[PolarisConfig] = None,
        elastic: bool = True,
        separate_pools: bool = True,
    ) -> "ServiceContext":
        """Wire a fresh deployment with a shared clock across components."""
        config = config or PolarisConfig()
        config.validate()
        clock = SimulatedClock()
        telemetry = Telemetry(clock, config.telemetry, seed=config.seed)
        store = ObjectStore(
            clock=clock, config=config.storage, telemetry=telemetry
        )
        sqldb = SqlDbEngine(clock=clock)
        cost_model = CostModel(config.dcp, config.storage)
        scheduler = Scheduler(
            clock, store, cost_model, config.dcp, telemetry=telemetry
        )
        wlm = WorkloadManager(config.dcp, separate_pools=separate_pools)
        bus = EventBus()
        telemetry.attach_bus(bus)
        context = cls(
            database=database,
            config=config,
            clock=clock,
            store=store,
            sqldb=sqldb,
            wlm=wlm,
            scheduler=scheduler,
            autoscaler=Autoscaler(config.dcp),
            cost_model=cost_model,
            cache=None,  # type: ignore[arg-type]  -- set just below
            optimizer=None,  # type: ignore[arg-type]  -- set just below
            guids=GuidGenerator(seed=config.seed),
            bus=bus,
            telemetry=telemetry,
            elastic=elastic,
        )
        # The cache's loaders need the context (store + sqldb), so it is
        # attached after construction.
        from repro.fe.manifest_io import make_snapshot_cache

        context.cache = make_snapshot_cache(context)
        # The introspector needs the assembled context (bus, cache, sqldb)
        # to subscribe its transaction ledger and resolve sys.dm_* views.
        from repro.telemetry.introspection import Introspector

        context.introspection = Introspector(context)
        # The optimizer needs the assembled context (store, clock, cost
        # model, telemetry) to scan snapshots and charge IO.
        from repro.optimizer.manager import QueryOptimizer

        context.optimizer = QueryOptimizer(context)
        if config.telemetry.query_store_enabled:
            from repro.telemetry.querystore import QueryStore

            telemetry.querystore = QueryStore(
                clock,
                config.telemetry,
                metrics=telemetry.metrics,
                bus=bus,
                seed=config.seed,
            )
        if config.telemetry.wait_stats_enabled:
            from repro.telemetry.waits import WaitStats

            telemetry.waits = WaitStats(
                clock,
                config.telemetry,
                metrics=telemetry.metrics,
                tracer=telemetry.tracer if telemetry.tracing else None,
                seed=config.seed,
            )
        # The engine (and its commit lock) predates telemetry wiring, so
        # the contention model and its sinks are bound afterwards.
        sqldb.commit_lock.configure(
            hold_s=config.txn.commit_hold_s,
            waits=telemetry.waits,
            metrics=telemetry.metrics,
        )
        if config.telemetry.sample_interval_s > 0:
            sampler = MetricsSampler(
                clock,
                telemetry.metrics,
                interval_s=config.telemetry.sample_interval_s,
                capacity=config.telemetry.sample_capacity,
            )
            telemetry.sampler = sampler
            if config.telemetry.watchdog_enabled:
                telemetry.watchdog = Watchdog(
                    telemetry.metrics, bus, rules=default_rules()
                )
                sampler.subscribe(telemetry.watchdog.observe)
            sampler.start()
        return context
