"""Unified telemetry: metrics registry, query tracing, structured events.

Three pillars (see ``docs/observability.md`` for the full catalogue):

* :mod:`repro.telemetry.registry` — labelled counters, gauges and
  log-bucketed histograms with a process-global default registry plus
  injectable per-tree registries;
* :mod:`repro.telemetry.tracing` — per-node visit spans rendered as an
  EXPLAIN tree (``SGTree.explain`` / ``repro-sgtree query --explain``);
* :mod:`repro.telemetry.events` — JSON-lines structural events with
  stable schemas (splits, WAL checkpoints, page rescues, scrub findings).

The :class:`Telemetry` facade bundles a registry and an event log and
pre-binds the instruments the hot layers use.  Instrumented code holds a
``telemetry`` attribute that is ``None`` by default — the null-sink fast
path: every per-operation hook is a single ``is not None`` check, so
with telemetry disabled the overhead is unmeasurable (the CI
``observability-smoke`` job gates this at < 5% on the batched-kNN
benchmark).
"""

from __future__ import annotations

from .events import (
    EVENT_SCHEMAS,
    EventLog,
    EventSink,
    JsonlEventSink,
    MemoryEventSink,
)
from .export import (
    render_prometheus,
    snapshot,
    snapshot_json,
    validate_prometheus_text,
)
from .registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricFamily,
    MetricsRegistry,
    TelemetryError,
    default_registry,
    log_buckets,
    set_default_registry,
)
from .tracing import (
    EntryDecision,
    ExplainReport,
    JsonlTraceSink,
    RequestTrace,
    RequestTracing,
    TraceContext,
    Tracer,
    TraceSampler,
    TraceSpan,
    TraceStore,
    VisitSpan,
    new_trace_id,
    sanitize_request_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TelemetryError",
    "LabelCardinalityError",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "default_registry",
    "set_default_registry",
    "log_buckets",
    "render_prometheus",
    "snapshot",
    "snapshot_json",
    "validate_prometheus_text",
    "EntryDecision",
    "VisitSpan",
    "Tracer",
    "ExplainReport",
    "TraceSpan",
    "TraceContext",
    "RequestTrace",
    "TraceSampler",
    "TraceStore",
    "JsonlTraceSink",
    "RequestTracing",
    "new_trace_id",
    "sanitize_request_id",
    "EventLog",
    "EventSink",
    "JsonlEventSink",
    "MemoryEventSink",
    "EVENT_SCHEMAS",
    "Telemetry",
]


class Telemetry:
    """Registry + event log bundle attached to a tree/store.

    Instruments are created lazily through the registry's get-or-create
    semantics, so two trees sharing the process-global registry share
    metric families (their traffic aggregates) while a tree built with
    its own :class:`MetricsRegistry` stays fully isolated.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None,
                 events: "EventLog | None" = None):
        self.registry = registry if registry is not None else default_registry()
        self.events = events if events is not None else EventLog()

        reg = self.registry
        # Query-layer instruments (pushed per query, not per node).
        self.queries_total = reg.counter(
            "sgtree_queries_total", "Queries served, by query kind", ("kind",)
        )
        self.query_seconds = reg.histogram(
            "sgtree_query_seconds", "Query wall time by kind", ("kind",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.query_node_accesses = reg.histogram(
            "sgtree_query_node_accesses",
            "Node accesses per query by kind", ("kind",),
            buckets=DEFAULT_COUNT_BUCKETS,
        )
        # Structure-change instruments (pushed at split/grow time).
        self.node_splits_total = reg.counter(
            "sgtree_node_splits_total", "Node splits, by tree level", ("level",)
        )
        self.root_grows_total = reg.counter(
            "sgtree_root_grows_total", "Root growth events (tree height +1)"
        )
        self.events_total = reg.counter(
            "sgtree_events_total", "Structured events emitted, by type",
            ("event",),
        )
        # Serving-layer instruments (pushed per request by repro.server).
        self.server_requests_total = reg.counter(
            "sgtree_server_requests_total",
            "HTTP requests served, by route and status code",
            ("route", "code"),
        )
        self.server_request_seconds = reg.histogram(
            "sgtree_server_request_seconds",
            "End-to-end request wall time (admission wait included), "
            "by route", ("route",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.server_shed_total = reg.counter(
            "sgtree_server_shed_total",
            "Requests shed by admission control (429), by route",
            ("route",),
        )
        self.server_timeouts_total = reg.counter(
            "sgtree_server_timeouts_total",
            "Requests whose deadline expired (in queue or mid-traversal), "
            "by route", ("route",),
        )
        self.server_queue_depth = reg.gauge(
            "sgtree_server_queue_depth",
            "Requests waiting for an execution slot right now",
        )
        self.server_inflight = reg.gauge(
            "sgtree_server_inflight",
            "Requests executing right now",
        )
        self.server_reloads_total = reg.counter(
            "sgtree_server_reloads_total",
            "Snapshot hot-swaps completed, by outcome", ("outcome",),
        )
        # Copy-on-write publish instruments (pushed by ConcurrentSGTree;
        # the generation/pin/reclaim gauges are pull-model and register
        # in ConcurrentSGTree.attach_telemetry).
        self.snapshot_publishes_total = reg.counter(
            "sgtree_snapshot_publishes_total",
            "Copy-on-write snapshot publishes (mutations and swaps)",
        )
        # Sharded-serving instruments (pushed by repro.server.shard and
        # repro.server.supervisor).
        self.server_partial_total = reg.counter(
            "sgtree_server_partial_total",
            "Responses degraded to partial coverage, by route", ("route",),
        )
        self.shard_requests_total = reg.counter(
            "sgtree_shard_requests_total",
            "Per-shard calls, by shard and outcome (ok/error/timeout/open)",
            ("shard", "outcome"),
        )
        self.shard_call_seconds = reg.histogram(
            "sgtree_shard_call_seconds",
            "Per-shard call latency (successful calls)", ("shard",),
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        self.shard_retries_total = reg.counter(
            "sgtree_shard_retries_total",
            "Per-shard retry attempts after transient failures", ("shard",),
        )
        self.shard_restarts_total = reg.counter(
            "sgtree_shard_restarts_total",
            "Supervisor worker restarts, by shard", ("shard",),
        )
        self.shard_breaker_state = reg.gauge(
            "sgtree_shard_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
            ("shard",),
        )
        self.shards_up = reg.gauge(
            "sgtree_shards_up",
            "Shards currently up (alive worker, breaker not open)",
        )
        # Cooperative cross-shard pruning (pushed per kNN query by the
        # ShardedTree coordinator).
        self.bound_provenance_total = reg.counter(
            "sgtree_bound_provenance_total",
            "Sharded kNN queries, by final-threshold provenance "
            "(local/pilot)", ("source",),
        )

    def emit(self, event_type: str, **fields: object) -> dict:
        """Emit a structured event, counting it in the registry too."""
        self.events_total.labels(event=event_type).inc()
        return self.events.emit(event_type, **fields)

    def observe_query(self, kind: str, seconds: float,
                      node_accesses: "int | None" = None) -> None:
        """Record one query's latency (and traffic, when known)."""
        self.queries_total.labels(kind=kind).inc()
        self.query_seconds.labels(kind=kind).observe(seconds)
        if node_accesses is not None:
            self.query_node_accesses.labels(kind=kind).observe(node_accesses)

    # -- export conveniences -------------------------------------------------

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry)

    def snapshot(self) -> dict:
        return snapshot(self.registry)
