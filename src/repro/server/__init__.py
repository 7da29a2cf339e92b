"""Query serving: admission control, deadlines, sharding, resilience.

:class:`Query` is the one query value every layer forwards, from the
HTTP body to the shard worker.  :class:`QueryService` is the
protocol-independent core (use it directly to embed the serving
behaviours in another process);
:func:`make_server`/:class:`ServingHTTPServer` put a stdlib HTTP+JSON
front end on top, which is what ``repro-sgtree serve`` runs.  With
``serve --shards N`` the service becomes a
:class:`~repro.server.shard.ShardedQueryService`: a scatter-gather
coordinator over N supervised shard workers with per-shard circuit
breakers, deadline-aware retries, automatic restarts
(:class:`~repro.server.supervisor.ShardSupervisor`), and graceful
partial results.  See ``docs/serving.md`` and ``docs/resilience.md``.

The typed shard failures (:class:`~repro.errors.ShardUnavailable`,
:class:`~repro.errors.CircuitOpen`, :class:`~repro.errors.RetryExhausted`)
are re-exported here for callers handling serving errors.
"""

from ..errors import CircuitOpen, RetryExhausted, ShardError, ShardUnavailable
from .http import ServingHTTPServer, make_server, serve_forever
from .query import Query
from .resilience import Backoff, CircuitBreaker, RetryPolicy
from .service import QueryService, ReloadInProgress, RequestShed, ServedQuery
from .shard import (
    Coverage,
    ShardedQueryService,
    ShardedTree,
    ShardHandle,
    ShardRouter,
    make_shard_handles,
    partition_routed,
    partition_transactions,
)
from .supervisor import ShardSupervisor

__all__ = [
    "Query",
    "QueryService",
    "ServedQuery",
    "RequestShed",
    "ReloadInProgress",
    "ServingHTTPServer",
    "make_server",
    "serve_forever",
    # resilience primitives
    "Backoff",
    "RetryPolicy",
    "CircuitBreaker",
    # sharded serving
    "partition_transactions",
    "partition_routed",
    "ShardRouter",
    "make_shard_handles",
    "ShardHandle",
    "ShardedTree",
    "ShardedQueryService",
    "ShardSupervisor",
    "Coverage",
    # typed shard failures (defined in repro.errors)
    "ShardError",
    "ShardUnavailable",
    "CircuitOpen",
    "RetryExhausted",
]
