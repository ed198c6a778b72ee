"""The per-deployment telemetry facade.

One :class:`Telemetry` object per :class:`~repro.fe.context.ServiceContext`
bundles the span tracer, the metrics registry, and the domain hooks the
instrumented layers call (storage requests, latency charges, retries, bus
events).  The metrics registry always records (cheap dict increments);
every span entry point fast-paths to a no-op unless
``TelemetryConfig.enabled``, so a deployment that never enables tracing
pays only attribute checks for it.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional

from repro.common.clock import SimulatedClock
from repro.common.config import TelemetryConfig
from repro.common.events import Event, EventBus, WILDCARD
from repro.telemetry import exporters
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanEvent, Tracer

#: Live Telemetry instances in creation order (weakly held; the benchmark
#: harness exports combined traces/metrics from these after a run).
_INSTANCES: "List[weakref.ref[Telemetry]]" = []


def instances() -> "List[Telemetry]":
    """All live Telemetry instances, oldest first."""
    out: List[Telemetry] = []
    for ref in _INSTANCES:
        instance = ref()
        if instance is not None:
            out.append(instance)
    return out


def tracing_instances() -> "List[Telemetry]":
    """All live tracing-enabled Telemetry instances, oldest first."""
    return [instance for instance in instances() if instance.tracing]


class _NullScope:
    """Shared no-op stand-in for span/activate scopes when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Telemetry:
    """Tracing + metrics for one deployment, gated by its config."""

    def __init__(
        self,
        clock: SimulatedClock,
        config: Optional[TelemetryConfig] = None,
        seed: int = Histogram.DEFAULT_SEED,
    ) -> None:
        self.config = config or TelemetryConfig()
        self.clock = clock
        #: Span tracing on/off (the expensive half).
        self.tracing = self.config.enabled
        self.metrics = MetricsRegistry(self.config.histogram_max_samples, seed=seed)
        self.tracer = Tracer(clock, max_spans=self.config.max_spans)
        self._bus: Optional[EventBus] = None
        #: Time-series sampler over :attr:`metrics` (None unless
        #: ``TelemetryConfig.sample_interval_s`` > 0 — the disabled path
        #: allocates nothing and arms no clock watcher).
        self.sampler = None
        #: Threshold watchdog fed by :attr:`sampler` (None unless enabled).
        self.watchdog = None
        #: Query store folding per-fingerprint execution profiles (None
        #: unless ``TelemetryConfig.query_store_enabled`` — the disabled
        #: path costs the SQL runner one attribute check per statement).
        self.querystore = None
        #: Wait-statistics collector attributing every stalled simulated
        #: second (None unless ``TelemetryConfig.wait_stats_enabled`` —
        #: the disabled path costs each blocking point one attribute
        #: check).
        self.waits = None
        _INSTANCES.append(weakref.ref(self))

    # -- span API (no-ops when tracing is off) -------------------------------

    def span(self, name: str, category: str = "fe", **attributes: Any):
        """Context manager for one nested span; no-op when tracing is off."""
        if not self.tracing:
            return _NULL_SCOPE
        return self.tracer.span(name, category, attributes=attributes)

    def start_span(
        self,
        name: str,
        category: str = "fe",
        *,
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        tid: Optional[int] = None,
        start_time: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Open a span explicitly (returns None when tracing is off)."""
        if not self.tracing:
            return None
        return self.tracer.start_span(
            name,
            category,
            parent=parent,
            track=track,
            tid=tid,
            start_time=start_time,
            attributes=attributes,
        )

    def end_span(
        self,
        span: Optional[Span],
        status: Optional[str] = None,
        end_time: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        """Close a span from :meth:`start_span` (None-safe)."""
        if span is not None:
            self.tracer.end_span(span, status, end_time, **attributes)

    def activate(self, span: Optional[Span]):
        """Make ``span`` the parent for the ``with`` body (None-safe)."""
        if not self.tracing or span is None:
            return _NULL_SCOPE
        return self.tracer.activate(span)

    def add_event(self, name: str, **attributes: Any) -> Optional[SpanEvent]:
        """Attach an event to the active span, if tracing."""
        if not self.tracing:
            return None
        return self.tracer.add_event(name, **attributes)

    @property
    def current_span(self) -> Optional[Span]:
        """The contextvar-active span (None when tracing is off)."""
        return self.tracer.current if self.tracing else None

    @property
    def spans(self) -> List[Span]:
        """All finished spans."""
        return self.tracer.finished

    # -- storage hooks --------------------------------------------------------

    def storage_request(
        self,
        operation: str,
        path: str,
        read_bytes: int,
        written_bytes: int,
        cost: float,
    ) -> None:
        """Account one object-store request (called by ``ObjectStore``)."""
        metrics = self.metrics
        metrics.counter("storage.requests", op=operation).inc()
        if read_bytes:
            metrics.counter("storage.bytes_read").inc(read_bytes)
        if written_bytes:
            metrics.counter("storage.bytes_written").inc(written_bytes)
        metrics.histogram("storage.request_latency_s", op=operation).observe(cost)
        if self.tracing:
            start, end = self.tracer.child_window(cost)
            span = self.tracer.start_span(
                "store." + operation,
                "storage",
                start_time=start,
                attributes={
                    "path": path,
                    "bytes_read": read_bytes,
                    "bytes_written": written_bytes,
                    "latency_s": cost,
                },
            )
            self.tracer.end_span(span, end_time=end)

    def storage_fault(self, operation: str, path: str) -> None:
        """Account one injected transient storage fault."""
        self.metrics.counter("storage.faults_injected", op=operation).inc()
        if self.tracing:
            self.tracer.add_event("storage.fault", op=operation, path=path)

    def integrity_corruption(self, kind: str, operation: str, path: str) -> None:
        """Account one injected corruption fault (wrong bytes, no error)."""
        self.metrics.counter(
            "storage.integrity_corruptions_injected", kind=kind, op=operation
        ).inc()
        if self.tracing:
            self.tracer.add_event(
                "storage.corruption", kind=kind, op=operation, path=path
            )

    def integrity_violation(self, path: str, detail: str) -> None:
        """Account one detected checksum mismatch (a corrupt read caught)."""
        self.metrics.counter("storage.integrity_errors").inc()
        if self.tracing:
            self.tracer.add_event(
                "storage.integrity_violation", path=path, detail=detail
            )

    def latency_charged(self, operation: str, cost: float, charged: bool) -> None:
        """Account simulated time from ``LatencyModel.charge``.

        ``charged`` distinguishes time advanced on the shared clock from
        time modeled inside DCP per-node timelines (charging suspended) —
        the two are reported separately so IO latency is never counted
        twice.
        """
        mode = "clock" if charged else "node_timeline"
        self.metrics.counter(
            "storage.sim_latency_s", op=operation or "unknown", mode=mode
        ).inc(cost)

    # -- retry hooks ----------------------------------------------------------

    def retry_attempt(
        self,
        label: str,
        attempt: int,
        error: BaseException,
        backoff_s: float = 0.0,
    ) -> None:
        """Account one failed attempt inside ``with_retries``.

        ``backoff_s`` is the simulated backoff charged before the next
        attempt (0 for the final failure, which has no next attempt).
        """
        self.metrics.counter("storage.retry_attempts", label=label).inc()
        if backoff_s > 0:
            self.metrics.histogram(
                "storage.retry_backoff_s", label=label
            ).observe(backoff_s)
        if self.tracing:
            self.tracer.add_event(
                "retry",
                label=label,
                attempt=attempt,
                error=type(error).__name__,
                backoff_s=backoff_s,
            )

    def retry_outcome(self, label: str, attempts: int, succeeded: bool) -> None:
        """Account the final outcome of a retried operation."""
        outcome = "ok" if succeeded else "exhausted"
        self.metrics.counter(
            "storage.retry_outcomes", label=label, outcome=outcome
        ).inc()
        if self.tracing and not succeeded:
            self.tracer.add_event("retry.exhausted", label=label, attempts=attempts)

    # -- event-bus tap ---------------------------------------------------------

    def attach_bus(self, bus: EventBus) -> None:
        """Subscribe to every bus topic (wildcard) to mirror events."""
        if self._bus is not None:
            return
        bus.subscribe(WILDCARD, self._on_bus_event)
        self._bus = bus

    def detach_bus(self) -> None:
        """Remove the wildcard subscription (e.g. before a restore)."""
        if self._bus is not None:
            self._bus.unsubscribe(WILDCARD, self._on_bus_event)
            self._bus = None

    def _on_bus_event(self, event: Event) -> None:
        self.metrics.counter("bus.events", topic=event.topic).inc()
        if self.tracing:
            scalars = {
                key: value
                for key, value in event.payload.items()
                if isinstance(value, (str, int, float, bool))
            }
            self.tracer.add_event("event:" + event.topic, **scalars)

    # -- export ---------------------------------------------------------------

    def export_chrome(
        self, path: Optional[str] = None, process_prefix: str = ""
    ) -> Dict[str, Any]:
        """The finished spans as a Chrome trace document (optionally written)."""
        document = exporters.chrome_trace(self.spans, process_prefix)
        if path is not None:
            exporters.write_chrome_trace(document, path)
        return document

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """The finished spans as JSONL (optionally written to ``path``)."""
        if path is not None:
            exporters.write_jsonl(self.spans, path)
            return path
        return exporters.spans_to_jsonl(self.spans)
