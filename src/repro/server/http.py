"""HTTP+JSON front end for :class:`~repro.server.service.QueryService`.

Pure stdlib (:mod:`http.server`), one OS thread per connection via
:class:`~http.server.ThreadingHTTPServer` — the service underneath
bounds actual concurrency with its admission control, so the thread-per-
connection model stays cheap even when a load spike hits.

Routes (see ``docs/serving.md`` for the full request/response contract):

====== ====================== ==========================================
method path                   behaviour
====== ====================== ==========================================
GET    ``/healthz``           full health snapshot (always 200)
GET    ``/healthz/live``      liveness probe: 200 until closed, else 503
GET    ``/healthz/ready``     readiness probe: 200 when accepting
                              traffic, 503 mid-reload or below shard
                              quorum
GET    ``/metrics``           Prometheus text exposition
GET    ``/debug/traces``      summaries of retained request traces
GET    ``/debug/traces/<id>`` one stitched trace in full (404 when
                              unknown or tracing is detached)
POST   ``/query/knn``         ``{"items": [...], "k": 5, ...}``
POST   ``/query/range``       ``{"items": [...], "epsilon": 0.4, ...}``
POST   ``/query/containment`` ``{"items": [...]}``
POST   ``/query/batch``       ``{"queries": [[...], ...], "kind": "knn"}``
POST   ``/admin/reload``      ``{"index_path": ...}`` or
                              ``{"dataset_path": ...}`` — snapshot swap
====== ====================== ==========================================

Error statuses: **400** malformed body, **404** unknown route, **409**
reload already running, **429** shed by admission control (body carries
``retry": true``), **503** no shard could answer (breaker-open responses
carry a ``Retry-After`` header), **504** deadline exceeded (in queue or
mid-traversal).  Every query route accepts an optional ``deadline_ms``.
Sharded responses carry ``partial`` and ``coverage`` fields describing
which shards contributed (see ``docs/resilience.md``).

Request correlation: an inbound ``X-Request-Id`` header (sanitised) is
honoured as the trace id when the service has tracing attached; a fresh
id is generated otherwise.  The id is echoed back as ``X-Request-Id`` on
the response and as ``request_id`` in query payloads, and it is the key
into ``/debug/traces/<id>`` (see ``docs/observability.md``).

Connections are HTTP/1.1 keep-alive.  Each response is buffered and
flushed in one write on a ``TCP_NODELAY`` socket, and a connection whose
read or write stalls for :data:`READ_TIMEOUT_SECONDS` is closed.

On SIGTERM/SIGINT the CLI loop (:func:`serve_forever`) shuts down
gracefully: the listener closes first, in-flight requests drain up to
``--drain-timeout`` seconds, then the process exits 0.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import CircuitOpen, QueryTimeout, ReproError, ShardError
from ..sgtree.search import Neighbor, SearchStats
from ..telemetry.tracing import sanitize_request_id
from .query import ROUTES, Query
from .service import QueryService, ReloadInProgress, RequestShed, ServedQuery

__all__ = ["ServingHTTPServer", "make_server", "serve_forever"]

#: Request-body size cap; a query body past this is certainly malformed.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Socket timeout on an accepted connection, in seconds.  A read or write
#: that stalls this long (a body that never arrives, an idle keep-alive
#: connection) closes the connection and frees its handler thread.
READ_TIMEOUT_SECONDS = 60.0


def _stats_payload(stats: SearchStats) -> dict:
    return {
        "node_accesses": stats.node_accesses,
        "random_ios": stats.random_ios,
        "leaf_entries": stats.leaf_entries,
        "hit_ratio": stats.hit_ratio,
        "bound_provenance": stats.bound_provenance,
    }


def _results_payload(results: object) -> object:
    """Neighbors, ids, or nested lists thereof, JSON-shaped."""
    if isinstance(results, Neighbor):
        return {"tid": results.tid, "distance": results.distance}
    if isinstance(results, list):
        return [_results_payload(r) for r in results]
    return results


def _response_payload(served: ServedQuery) -> dict:
    payload = {
        "kind": served.kind,
        "results": _results_payload(served.results),
        "generation": served.generation,
        "tree_generation": served.tree_generation,
        "seconds": served.seconds,
        "partial": served.partial,
        "stats": _stats_payload(served.stats),
    }
    if served.coverage is not None:
        payload["coverage"] = served.coverage
    if served.trace_id is not None:
        payload["request_id"] = served.trace_id
    return payload


def _deadline_seconds(body: dict) -> "float | None":
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is None:
        return None
    deadline_ms = float(deadline_ms)
    if deadline_ms < 0:
        raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
    return deadline_ms / 1e3


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`QueryService`."""

    protocol_version = "HTTP/1.1"
    server: "ServingHTTPServer"

    # A buffered ``wfile`` that ``handle_one_request`` flushes once per
    # request: status line, headers and body leave in one write (bodies
    # past the 8 KiB buffer follow the headers back to back).  With Nagle
    # off, no segment waits for the client's delayed ACK on keep-alive.
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_SECONDS

    #: The request's correlation id (inbound ``X-Request-Id``, sanitised,
    #: or freshly generated); echoed on every JSON response.
    _request_id: "str | None" = None

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        # Per-request access logging is the structured ``http_access``
        # event's job; the default stderr line per request would swamp
        # benchmark output.
        pass

    def handle_expect_100(self) -> bool:
        # The interim 100 reply must reach the client before it sends the
        # body, so it cannot wait in the buffered writer for the flush at
        # the end of the request.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send(self, code: int, body: bytes, content_type: str,
              headers: "dict[str, str] | None" = None) -> None:
        """Queue one complete response in the buffered ``wfile``."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict,
                   headers: "dict[str, str] | None" = None) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body of {length} bytes exceeds cap")
        if length == 0:
            return {}
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        self._request_id = None  # keep-alive: don't leak a POST's id
        if self.path == "/healthz":
            self._send_json(200, service.health())
        elif self.path == "/healthz/live":
            doc = service.health()
            self._send_json(200 if doc["live"] else 503, doc)
        elif self.path == "/healthz/ready":
            doc = service.health()
            self._send_json(200 if doc["ready"] else 503, doc)
        elif self.path == "/metrics":
            self._send(200, service.metrics_text().encode("utf-8"),
                       "text/plain; version=0.0.4")
        elif self.path == "/debug/traces":
            summaries = service.traces()
            if summaries is None:
                self._send_json(404, {"error": "tracing is not enabled"})
            else:
                self._send_json(200, {"traces": summaries})
        elif self.path.startswith("/debug/traces/"):
            trace_id = self.path[len("/debug/traces/"):]
            doc = service.trace(trace_id) if service.tracing is not None \
                else None
            if doc is None:
                self._send_json(
                    404,
                    {"error": f"no retained trace {trace_id!r}"}
                    if service.tracing is not None
                    else {"error": "tracing is not enabled"},
                )
            else:
                self._send_json(200, doc)
        else:
            self._send_json(404, {"error": f"unknown route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        rid = None
        if service.tracing is not None:
            rid = sanitize_request_id(self.headers.get("X-Request-Id"))
            self._request_id = rid
        try:
            body = self._read_body()
            route = self.path.removeprefix("/query/")
            if route in ROUTES:
                served = service.query(
                    Query.from_body(route, body),
                    deadline_seconds=_deadline_seconds(body),
                    request_id=rid,
                )
            elif self.path == "/admin/reload":
                info = service.reload(
                    index_path=body.get("index_path"),
                    dataset_path=body.get("dataset_path"),
                    bulk=body.get("bulk", "gray"),
                )
                self._send_json(200, info)
                return
            else:
                self._send_json(404, {"error": f"unknown route {self.path}"})
                return
            self._send_json(200, _response_payload(served))
        except RequestShed as exc:
            self._send_json(
                429,
                {
                    "error": str(exc),
                    "retry": True,
                    "inflight": exc.inflight,
                    "queued": exc.waiting,
                },
            )
        except QueryTimeout as exc:
            self._send_json(
                504,
                {"error": str(exc), "budget_seconds": exc.budget},
            )
        except ReloadInProgress as exc:
            self._send_json(409, {"error": str(exc)})
        except CircuitOpen as exc:
            # Every shard breaker open: shed with an honest retry hint.
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "retry": True,
                    "retry_after_seconds": exc.retry_after,
                },
                headers={"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        except ShardError as exc:
            # ShardUnavailable / RetryExhausted at request level: no
            # shard could answer at all.
            self._send_json(503, {"error": str(exc), "retry": True})
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})


class ServingHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that owns a :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", service: QueryService):
        super().__init__(address, _Handler)
        self.service = service
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False
        self._shutdown_done = threading.Event()

    def serve_background(self) -> threading.Thread:
        """Run the accept loop on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.serve_forever, name="sgtree-serve", daemon=True
        )
        thread.start()
        return thread

    def shutdown_gracefully(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight work, close the service.

        The listener closes *first*, so no new request can arrive while
        the in-flight tail drains (up to ``drain_timeout`` seconds).
        Safe to call from any thread except the one running
        ``serve_forever``; concurrent callers block until the first
        caller finishes, so "shutdown returned" always means "drained
        and closed".
        """
        with self._shutdown_lock:
            first = not self._shutting_down
            self._shutting_down = True
        if not first:
            self._shutdown_done.wait()
            return
        try:
            self.shutdown()
            self.server_close()
            drained = self.service.drain(drain_timeout)
            telemetry = self.service.telemetry
            if telemetry is not None:
                telemetry.emit(
                    "server_drain",
                    drained=drained,
                    timeout_seconds=drain_timeout,
                )
            self.service.close()
        finally:
            self._shutdown_done.set()

    def close(self) -> None:
        """Stop the accept loop and release the socket (idempotent)."""
        self.shutdown_gracefully(0.0)


def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind a serving socket (``port=0`` picks a free one) around a service.

    Emits the ``server_started`` event and returns the server without
    starting its accept loop — call :meth:`ServingHTTPServer.
    serve_background` (tests, embedding) or :func:`serve_forever` (CLI).
    """
    server = ServingHTTPServer((host, port), service)
    if service.telemetry is not None:
        service.telemetry.emit(
            "server_started",
            host=host,
            port=server.server_address[1],
            max_inflight=service.max_inflight,
            max_queue=service.max_queue,
        )
    return server


def serve_forever(server: ServingHTTPServer, drain_timeout: float = 5.0,
                  install_signals: bool = True) -> None:
    """Run the accept loop in the calling thread until interrupted.

    With ``install_signals`` (the CLI path), SIGTERM and SIGINT trigger
    a graceful shutdown: a helper thread closes the listener, drains
    in-flight requests for up to ``drain_timeout`` seconds, and this
    function returns normally — the process exits 0 instead of dying
    mid-request.  ``shutdown()`` must never run on the accept-loop
    thread (it deadlocks), hence the helper thread.
    """

    def _graceful(*_args: object) -> None:
        threading.Thread(
            target=server.shutdown_gracefully,
            args=(drain_timeout,),
            name="sgtree-shutdown",
            daemon=True,
        ).start()

    previous: dict = {}
    if install_signals and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        # Idempotent: if a signal already started the graceful path this
        # waits for the drain to finish before returning to the CLI.
        server.shutdown_gracefully(drain_timeout)
