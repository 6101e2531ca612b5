"""WSGI JSON API over a :class:`~repro.server.hub.ServingHub`.

Stdlib-only Slicer-style endpoints:

========================  ======  =====================================
``/cubes``                GET     the tenant's cube names
``/cube/<name>/model``    GET     logical model (dimensions,
                                  hierarchies, measures)
``/cube/<name>/aggregate``  GET   ``cut`` / ``drilldown`` aggregation
``/cube/<name>/update``   POST    SHIFT-SPLIT delta batch
``/metrics``              GET     Prometheus text exposition
``/healthz``              GET     breaker / journal / quota / replication
``/debug/queries``        GET     flight recorder + recent request log
``/debug/trace``          GET     live trace (admin key only)
``/debug/heat``           GET     tile-heat map
``/replica/stream``       GET     shipped journal frames (admin key)
``/replica/snapshot``     GET     full arena snapshot (admin key)
``/replica/state``        GET     logical state + version (admin key)
``/replica/promote``      POST    promote this replica (admin key)
========================  ======  =====================================

Replication: the ``/replica/*`` routes require the **admin** key.  A
replica hub polls its primary's ``/replica/stream`` with its applied
seq as the ``after`` cursor; the response is an
``application/octet-stream`` of zero or more frames plus
``X-Repro-Next-Seq`` (the primary's next group seq — the follower's
staleness bound follows) and ``X-Repro-State-Version`` (bumped on
provisioning or directory growth; the follower refetches
``/replica/state`` when it moves).  ``X-Repro-Snapshot-Needed: 1``
means the cursor predates the retention window — re-bootstrap from
``/replica/snapshot``.  Updates sent to a non-primary are answered
**503** with a ``Retry-After`` header.

Tenancy: every data route requires an API key (``X-API-Key`` header or
``api_key`` query parameter) resolving to a tenant; ``/metrics`` and
``/healthz`` are operator routes and skip auth.  A per-request
deadline (``X-Deadline-Ms`` header or ``deadline_ms`` parameter)
propagates into the engine, which runs the whole aggregate in the
request's thread as one batch under that deadline; queries that blow it
are answered from resident blocks with a sound ``error_bound`` and the
response is **206 Partial Content** — a slow tenant degrades instead of
stalling.

Telemetry: every request carries a W3C-style trace — an incoming
``traceparent`` header's trace id is continued, otherwise a fresh one
is minted — and the response echoes a ``traceparent`` built from that
trace id, so a client can join its logs to the hub's.  Each request is
appended to the hub's structured request log (tenant, cube, cut,
status, deadline slack, I/O receipt) and each *data-route* request is
offered to the flight recorder behind ``/debug/queries``.  The
``/debug/queries``, ``/debug/trace`` and ``/debug/heat`` routes are
authenticated: the hub's admin key sees everything, a tenant key sees
its own slice (and never the raw trace).

Status mapping: schema/parse errors 400, unknown key 401, unknown
cube 404, tenant quota 429, a closed engine or a read-only replica 503,
engine errors 500.  Responses are always JSON; floats serialise via
``repr`` so a client reading the body sees bit-identical values to a
direct :class:`~repro.service.engine.QueryEngine` caller.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.reqlog import (
    make_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.tracer import IO_FIELDS, get_tracer
from repro.olap.schema import SchemaError
from repro.server import persist
from repro.server.hub import (
    CubeState,
    ReplicaReadOnlyError,
    ServingHub,
    Tenant,
)
from repro.server.slicer import (
    compile_aggregate,
    parse_cuts,
    parse_drilldowns,
)
from repro.service.engine import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    EngineClosedError,
    QuotaError,
)
from repro.service.queries import RangeSumQuery

__all__ = ["ServingApp"]

_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY_BYTES = 8 << 20


class _HttpError(Exception):
    """Internal: unwound into a JSON error response."""

    def __init__(
        self, code: int, message: str, headers: Optional[list] = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.headers = headers or []


class ServingApp:
    """The WSGI callable; one instance serves one hub."""

    def __init__(self, hub: ServingHub, max_cells: int = 4096) -> None:
        self._hub = hub
        self._max_cells = max_cells

    # ------------------------------------------------------------------
    # WSGI entry
    # ------------------------------------------------------------------

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        params = {
            key: values[-1]
            for key, values in parse_qs(
                environ.get("QUERY_STRING", "")
            ).items()
        }
        # Trace propagation: continue the caller's trace id when a
        # valid traceparent arrives, mint one otherwise.  The response
        # always carries a traceparent whose span id is this request.
        incoming = parse_traceparent(environ.get("HTTP_TRACEPARENT"))
        trace_id = incoming[0] if incoming else new_trace_id()
        request_span_hex = new_span_id()
        ctx: dict = {
            "tenant": None,
            "cube": None,
            "cut": None,
            "deadline_s": None,
            "status": None,
        }
        started = time.perf_counter()
        before = self._hub.stats.snapshot()
        # Handler threads are spawned by the threading HTTP server, so
        # there is no ambient span to inherit: the request span roots
        # its own trace.  An aggregate executes its queries in this
        # thread, under the request span.
        with get_tracer().span(
            "http.request",
            parent=None,
            method=method,
            path=path,
            trace_id=trace_id,
        ) as span:
            try:
                code, payload, content_type = self._dispatch(
                    method, path, params, environ, ctx
                )
            except _HttpError as exc:
                code, payload, content_type = (
                    exc.code,
                    {"error": exc.message},
                    None,
                )
                ctx.setdefault("headers", []).extend(exc.headers)
            except ReplicaReadOnlyError as exc:
                # Writes during replica service / a promotion window:
                # tell the client exactly when to retry.
                code, payload, content_type = (
                    503,
                    {"error": str(exc), "role": exc.role},
                    None,
                )
                ctx.setdefault("headers", []).append(
                    ("Retry-After", str(max(1, round(exc.retry_after_s))))
                )
            except SchemaError as exc:
                code, payload, content_type = 400, {"error": str(exc)}, None
            except QuotaError as exc:
                code, payload, content_type = 429, {"error": str(exc)}, None
            except EngineClosedError as exc:
                code, payload, content_type = 503, {"error": str(exc)}, None
            except Exception as exc:  # never leak a traceback as HTML
                code, payload, content_type = 500, {"error": repr(exc)}, None
            span.set(status_code=code)
        if content_type is None:
            content_type = "application/json"
            body = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, bytes):
            body = payload
        else:
            body = payload.encode("utf-8")
        self._hub.metrics.counter(
            "http_requests", {"code": code, "method": method}
        ).inc()
        self._record_request(
            method, path, trace_id, incoming, code, started, before, ctx
        )
        reason = _REASONS.get(code, "Unknown")
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
            (
                "Traceparent",
                make_traceparent(trace_id, request_span_hex),
            ),
        ]
        headers.extend(ctx.get("headers", []))
        start_response(f"{code} {reason}", headers)
        return [body]

    def _record_request(
        self, method, path, trace_id, incoming, code, started, before, ctx
    ) -> None:
        """Append the finished request to the request log and offer
        data-route receipts to the flight recorder.

        The I/O receipt is the shared-arena stats delta over this
        request's wall time; under concurrent requests it is an
        *approximation* (other requests' charges overlap) — exact
        attribution is the tracer's job.
        """
        wall_s = time.perf_counter() - started
        delta = self._hub.stats.delta_since(before)
        deadline_s = ctx.get("deadline_s")
        record = {
            "trace_id": trace_id,
            "parent_span": incoming[1] if incoming else None,
            "method": method,
            "path": path,
            "code": code,
            "tenant": ctx.get("tenant"),
            "cube": ctx.get("cube"),
            "cut": ctx.get("cut"),
            "status": ctx.get("status") or "",
            "wall_s": wall_s,
            "deadline_s": deadline_s,
            "deadline_slack_s": (
                deadline_s - wall_s if deadline_s is not None else None
            ),
            "io": {field: getattr(delta, field) for field in IO_FIELDS},
        }
        reqlog = self._hub.request_log
        if reqlog is not None:
            reqlog.record(**record)
        flightrec = self._hub.flight_recorder
        if flightrec is not None and path.startswith("/cube/"):
            flightrec.record(record)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _dispatch(
        self, method: str, path: str, params: Dict[str, str], environ, ctx
    ) -> Tuple[int, object, Optional[str]]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._hub.healthz(), None
        if path == "/metrics":
            self._require(method, "GET")
            return 200, self._hub.prometheus(), "text/plain; version=0.0.4"
        if path.startswith("/debug/"):
            self._require(method, "GET")
            return self._debug(path, params, environ, ctx)
        if path.startswith("/replica/"):
            return self._replica(method, path, params, environ, ctx)
        tenant = self._authenticate(params, environ)
        ctx["tenant"] = tenant.name
        if path == "/cubes":
            self._require(method, "GET")
            return (
                200,
                {
                    "tenant": tenant.name,
                    "cubes": sorted(tenant.cubes),
                },
                None,
            )
        parts = [part for part in path.split("/") if part]
        if len(parts) == 3 and parts[0] == "cube":
            state = self._cube(tenant, parts[1])
            ctx["cube"] = state.name
            if parts[2] == "model":
                self._require(method, "GET")
                return 200, state.model(), None
            if parts[2] == "aggregate":
                self._require(method, "GET")
                return self._aggregate(state, params, environ, ctx) + (
                    None,
                )
            if parts[2] == "update":
                self._require(method, "POST")
                return self._update(state, environ, ctx) + (None,)
        raise _HttpError(404, f"no route for {path!r}")

    # ------------------------------------------------------------------
    # replication routes
    # ------------------------------------------------------------------

    def _require_admin(self, params: Dict[str, str], environ) -> None:
        api_key = environ.get("HTTP_X_API_KEY") or params.get("api_key")
        if not api_key or api_key != self._hub.admin_key:
            raise _HttpError(
                401, "/replica/* routes require the admin key"
            )

    def _replica(
        self, method: str, path: str, params: Dict[str, str], environ, ctx
    ) -> Tuple[int, object, Optional[str]]:
        self._require_admin(params, environ)
        if path == "/replica/stream":
            self._require(method, "GET")
            return self._replica_stream(params, ctx)
        if path == "/replica/snapshot":
            self._require(method, "GET")
            return 200, self._hub.snapshot_payload(), None
        if path == "/replica/state":
            self._require(method, "GET")
            return (
                200,
                {
                    "state": persist.hub_to_state(self._hub),
                    "version": self._hub.state_version,
                },
                None,
            )
        if path == "/replica/promote":
            self._require(method, "POST")
            return 200, self._hub.promote(), None
        raise _HttpError(404, f"no route for {path!r}")

    def _replica_stream(
        self, params: Dict[str, str], ctx
    ) -> Tuple[int, object, Optional[str]]:
        shipper = self._hub.shipper
        if shipper is None:
            raise _HttpError(
                403,
                f"this hub (role={self._hub.role!r}) is not shipping "
                f"its journal; start it with --replicate",
            )
        try:
            after = int(params.get("after", "0"))
        except ValueError:
            raise _HttpError(
                400, f"after must be an integer, got {params['after']!r}"
            ) from None
        follower_id = params.get("follower", "")
        headers = ctx.setdefault("headers", [])
        # shipper.snapshot() reads last_seq under the shipper lock; a
        # bare attribute read here races the commit path's writer
        last_seq = int(shipper.snapshot()["last_seq"])
        headers.append(("X-Repro-Next-Seq", str(last_seq + 1)))
        headers.append(
            ("X-Repro-State-Version", str(self._hub.state_version))
        )
        frames = shipper.frames_since(after)
        if frames is None:
            # The cursor predates the retention window: nothing we can
            # stream reconnects this follower — it must re-snapshot.
            headers.append(("X-Repro-Snapshot-Needed", "1"))
            return 200, b"", "application/octet-stream"
        if follower_id:
            # The cursor doubles as the follower's ack: everything at
            # or below it has been durably applied on the follower.
            shipper.ack(follower_id, after)
        return 200, b"".join(frames), "application/octet-stream"

    # ------------------------------------------------------------------
    # debug routes
    # ------------------------------------------------------------------

    def _debug(
        self, path: str, params: Dict[str, str], environ, ctx
    ) -> Tuple[int, object, Optional[str]]:
        scope = self._debug_scope(params, environ, ctx)
        if path == "/debug/queries":
            return 200, self._hub.debug_queries(tenant=scope), None
        if path == "/debug/trace":
            if scope is not None:
                # The raw trace spans every tenant; a tenant key must
                # not see its neighbours' queries.
                raise _HttpError(
                    403, "/debug/trace requires the admin key"
                )
            return 200, self._hub.debug_trace(), None
        if path == "/debug/heat":
            return 200, self._hub.debug_heat(tenant=scope), None
        raise _HttpError(404, f"no route for {path!r}")

    def _debug_scope(
        self, params: Dict[str, str], environ, ctx
    ) -> Optional[str]:
        """Admin key -> ``None`` (unfiltered); tenant key -> the
        tenant's name (filtered view); anything else -> 401."""
        api_key = environ.get("HTTP_X_API_KEY") or params.get("api_key")
        if api_key and api_key == self._hub.admin_key:
            return None
        tenant = self._hub.resolve_key(api_key)
        if tenant is None:
            raise _HttpError(
                401,
                "debug routes need the admin key or a tenant API key "
                "(X-API-Key header or api_key parameter)",
            )
        ctx["tenant"] = tenant.name
        return tenant.name

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed")

    def _authenticate(self, params: Dict[str, str], environ) -> Tenant:
        api_key = environ.get("HTTP_X_API_KEY") or params.get("api_key")
        tenant = self._hub.resolve_key(api_key)
        if tenant is None:
            raise _HttpError(
                401,
                "unknown or missing API key (X-API-Key header or "
                "api_key parameter)",
            )
        return tenant

    @staticmethod
    def _cube(tenant: Tenant, name: str) -> CubeState:
        state = tenant.cubes.get(name)
        if state is None:
            raise _HttpError(
                404,
                f"tenant {tenant.name!r} has no cube {name!r}; have "
                f"{sorted(tenant.cubes)}",
            )
        return state

    @staticmethod
    def _deadline_s(params: Dict[str, str], environ) -> Optional[float]:
        raw = environ.get("HTTP_X_DEADLINE_MS") or params.get("deadline_ms")
        if raw is None:
            return None
        try:
            deadline_ms = float(raw)
        except ValueError:
            raise _HttpError(
                400, f"deadline_ms must be a number, got {raw!r}"
            ) from None
        if deadline_ms < 0:
            raise _HttpError(400, "deadline_ms must be >= 0")
        return deadline_ms / 1000.0

    # ------------------------------------------------------------------
    # aggregate
    # ------------------------------------------------------------------

    def _aggregate(
        self, state: CubeState, params: Dict[str, str], environ, ctx
    ) -> Tuple[int, dict]:
        cuts = parse_cuts(params.get("cut", ""))
        drilldowns = parse_drilldowns(params.get("drilldown", ""))
        plan = compile_aggregate(
            state.cube.dimensions, cuts, drilldowns, self._max_cells
        )
        deadline_s = self._deadline_s(params, environ)
        ctx["cut"] = params.get("cut", "")
        ctx["deadline_s"] = deadline_s
        queries = [
            RangeSumQuery(cell.lows, cell.highs) for cell in plan.cells
        ]
        results = state.engine.execute_batch(
            queries, timeout=deadline_s
        ).results

        rows: List[dict] = []
        worst = STATUS_OK
        dimension_names = [
            dimension.name for dimension in state.cube.dimensions
        ]
        for cell, result in zip(plan.cells, results):
            row: dict = {
                "paths": dict(cell.paths),
                "box": {
                    name: [low, high]
                    for name, low, high in zip(
                        dimension_names, cell.lows, cell.highs
                    )
                },
                "status": result.status,
                "count": cell.cell_count,
            }
            if result.status in (STATUS_OK, STATUS_DEGRADED):
                value = float(result.value)
                row["sum"] = value
                row["avg"] = value / cell.cell_count
            if result.status == STATUS_DEGRADED:
                row["error_bound"] = result.error_bound
            if result.error:
                row["error"] = result.error
            rows.append(row)
            if result.status == STATUS_ERROR:
                worst = STATUS_ERROR
            elif result.status != STATUS_OK and worst != STATUS_ERROR:
                worst = result.status
        if worst == STATUS_ERROR:
            code = 500
        elif worst == STATUS_OK:
            code = 200
        else:
            code = 206
        ctx["status"] = worst
        return code, {
            "cube": state.name,
            "cut": params.get("cut", ""),
            "drilldown": list(plan.drilled),
            "status": worst,
            "cells": rows,
        }

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------

    def _update(self, state: CubeState, environ, ctx) -> Tuple[int, dict]:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            raise _HttpError(400, "update needs a JSON body")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(
                413, f"update body exceeds {_MAX_BODY_BYTES} bytes"
            )
        raw = environ["wsgi.input"].read(length)
        try:
            body = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "update body is not valid JSON") from None
        if (
            not isinstance(body, dict)
            or "deltas" not in body
            or not isinstance(body.get("corner"), dict)
        ):
            raise _HttpError(
                400,
                'update body must be {"deltas": [...], '
                '"corner": {dim: value}}',
            )
        try:
            io_delta = self._hub.update(
                state.tenant, state.name, body["deltas"], body["corner"]
            )
        except (ValueError, KeyError) as exc:
            raise _HttpError(400, str(exc)) from None
        ctx["status"] = STATUS_OK
        return 200, {"applied": True, "io": io_delta}
