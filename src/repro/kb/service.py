"""Configuration recommendation service over the knowledge base.

A JSON-over-HTTP layer (stdlib ``http.server``) so tuning clients that
are not Python — or not colocated — can query accumulated tuning
knowledge:

* ``GET  /workloads``  — what the knowledge base has seen.
* ``GET  /metrics``    — process-wide observability snapshot: the
  :func:`~repro.obs.global_metrics` counters/gauges/histograms
  (per-endpoint latency percentiles included) plus cache stats.
* ``GET  /healthz``    — serving health: request-queue depth and shed
  counts, write-behind ingest lag, recent internal error ids.
* ``GET  /surrogate/status`` — the surrogate registry: which
  (system, family) models exist, their KB-version freshness, holdout
  scores, and top knobs.
* ``POST /recommend``  — given a workload fingerprint (or a stored
  workload's name), return the most similar stored sessions and the
  best configuration they found.  With ``"mode": "surrogate"`` the
  reply instead optimizes a learned per-family surrogate (zero probe
  runs), falling back to the similarity answer on cache miss or low
  model confidence — ``served_by``/``fallback_reason`` say which.
* ``POST /ingest``     — store a completed session document (the
  ``kb_session`` payload :meth:`KnowledgeBase.session_payload` builds).
  Ingests bump the KB version, which invalidates both the fingerprint
  index and any surrogate models trained on the previous contents.

Serving model (see :mod:`repro.kb.serving`): connection threads parse
and validate the request, then hand the computation to a **bounded
worker pool** behind an explicit queue.  Admission control sheds with
HTTP 429 + ``Retry-After`` when the queue is full or the predicted
wait passes a limit; concurrent ``/recommend`` calls with identical
bodies coalesce into one computation.  ``POST /ingest`` goes through a
**write-behind queue with group commit** — the 200 ack is released
only after the batch transaction lands, so an acked session can never
be lost, while index warming and surrogate invalidation run off the
request path.

Every response is *strict* RFC 8259 JSON: payloads pass through the
knowledge base's inf-safe encoding (:func:`~repro.kb.store.json_safe`)
and are serialized with ``allow_nan=False``.  *Every* request gets a
response: unexpected exceptions are caught and answered with a strict
JSON 500 carrying an opaque ``error_id`` (surfaced on ``/healthz``),
never a silently closed socket.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
import uuid
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import SurrogateError
from repro.kb.fingerprint import WorkloadFingerprint, rank_similar
from repro.kb.serving import (
    IngestWriter,
    Overloaded,
    RequestExecutor,
    ServingConfig,
)
from repro.kb.store import KnowledgeBase, SessionRecord, dumps_strict
from repro.obs.metrics import global_metrics
from repro.surrogate import (
    DEFAULT_CONFIDENCE,
    SurrogateStore,
    family_of,
    recommend_config,
)

__all__ = [
    "RecommendationService",
    "ServiceError",
    "ServingHTTPServer",
    "make_server",
    "serve_forever",
]

#: Upper bound on ``k`` — a single request must not be able to demand
#: an arbitrarily large (and arbitrarily expensive) response.
_MAX_K = 1000


class ServiceError(ValueError):
    """Client error in a service request (maps to HTTP 400)."""


#: Ingest failures the *payload* caused, mapped to 400.  Binding errors
#: (``InterfaceError``: a non-scalar ``seed``), constraint/data errors,
#: and statement misuse are all functions of the client's document;
#: environmental sqlite errors (``OperationalError``: locked, disk
#: full) stay on the 500 path because retrying the same payload can
#: legitimately succeed.
_PAYLOAD_ERRORS = (
    KeyError,
    ValueError,
    TypeError,
    OverflowError,
    sqlite3.InterfaceError,
    sqlite3.IntegrityError,
    sqlite3.ProgrammingError,
    sqlite3.DataError,
)


def _parse_k(request: Mapping[str, Any]) -> int:
    """Validated ``k`` (bool is an int subclass — rejected explicitly)."""
    raw = request.get("k", 3)
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ServiceError(f"k must be an integer, got {raw!r}")
    try:
        k = int(raw)
    except (TypeError, ValueError, OverflowError):
        # OverflowError: json.loads accepts Infinity, and int(inf) must
        # map to a 400 like every other malformed k, never a 500
        raise ServiceError(f"k must be an integer, got {raw!r}") from None
    if isinstance(raw, (float, str)) and float(raw) != k:
        raise ServiceError(f"k must be an integer, got {raw!r}")
    if not 0 < k <= _MAX_K:
        raise ServiceError(f"k must be in [1, {_MAX_K}]")
    return k


def _indexed(
    records: List[SessionRecord],
) -> List[Tuple[SessionRecord, WorkloadFingerprint]]:
    """The similarity index's (record, fingerprint) pairs for records."""
    return [
        (record, record.fingerprint)
        for record in records
        if record.fingerprint is not None
    ]


class RecommendationService:
    """Query engine behind the HTTP endpoints (usable in-process too).

    Args:
        surrogate_store: registry backing surrogate-mode recommends and
            ``/surrogate/status``; defaults to a fresh in-memory store
            (models train lazily on first surrogate request).
        confidence_threshold: maximum relative posterior std for a
            surrogate answer to be served; above it the reply falls
            back to the similarity recommendation.
        config: serving tunables (negative-cache TTL for unknown system
            kinds, surrogate retrain debounce).  The default retrains
            on every KB version bump, matching offline usage.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        surrogate_store: Optional[SurrogateStore] = None,
        confidence_threshold: float = DEFAULT_CONFIDENCE,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.kb = kb
        self.surrogates = surrogate_store or SurrogateStore()
        self.confidence_threshold = confidence_threshold
        self.config = config or ServingConfig()
        self._index_lock = threading.Lock()
        self._index_build_lock = threading.Lock()
        self._index_version: Optional[Tuple[int, int]] = None
        self._index: List[Tuple[SessionRecord, WorkloadFingerprint]] = []
        # one lock per (system kind, family): a cold surrogate training
        # for one family must never stall requests for another
        self._family_guard = threading.Lock()
        self._family_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._family_trained_at: Dict[Tuple[str, str], float] = {}
        self._space_lock = threading.Lock()
        # kind -> (space | None, negative-cache expiry); a transient
        # failure must not poison the kind forever
        self._spaces: Dict[str, Tuple[Any, float]] = {}
        self.recent_errors: "deque[Dict[str, str]]" = deque(maxlen=16)

    # -- index -------------------------------------------------------------
    def _fingerprint_index(
        self,
    ) -> List[Tuple[SessionRecord, WorkloadFingerprint]]:
        """(record, fingerprint) pairs, newest first, updated only when
        the KB changed.

        The returned list is shared between threads and must be treated
        as immutable.  Updates run outside ``_index_lock`` — readers
        of the current index never block behind a ``kb.sessions()``
        scan — and are serialized on a dedicated build lock so a
        thundering herd after an ingest does one scan, not hundreds.

        A pure append is read incrementally: from version ``(c0, m0)``
        to ``(c1, m1)``, only sessions with ``m0 < id <= m1`` are
        fetched and put in front of the old index.  Ids only grow, so
        finding exactly ``c1 - c0`` of them proves no old session was
        removed; any other change rebuilds from a full scan.
        """
        version = self.kb.version()
        with self._index_lock:
            if version == self._index_version:
                return self._index
        with self._index_build_lock:
            version = self.kb.version()
            with self._index_lock:
                if version == self._index_version:
                    return self._index  # rebuilt while we waited
                old, old_version = self._index, self._index_version
            index = None
            if old_version is not None and version[1] > old_version[1]:
                added = [
                    record
                    for record in self.kb.sessions(after_id=old_version[1])
                    if record.session_id <= version[1]
                ]
                if len(added) == version[0] - old_version[0]:
                    index = _indexed(added) + old
                    global_metrics().inc("kb.index.incremental")
            if index is None:
                index = _indexed(self.kb.sessions())
                global_metrics().inc("kb.index.rebuild")
            with self._index_lock:
                self._index = index
                self._index_version = version
            return index

    def refresh_index(self) -> None:
        """Warm the fingerprint index (the ingest writer's off-request
        ``on_commit`` hook)."""
        self._fingerprint_index()

    # -- endpoints ---------------------------------------------------------
    def workloads(self) -> Dict[str, Any]:
        return self.kb.summary()

    def recommend(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Rank stored sessions against the request's workload.

        Request fields:
            ``fingerprint``: a serialized
                :class:`~repro.kb.fingerprint.WorkloadFingerprint`; or
            ``workload``: name of a stored workload whose newest stored
                fingerprint stands in for a probe run;
            ``system_kind`` (optional): restrict candidates;
            ``k`` (optional, default 3): number of matches returned;
            ``mode`` (optional): ``"similarity"`` (default) replays the
                nearest stored session's best config; ``"surrogate"``
                optimizes the workload family's learned model instead,
                falling back to the similarity answer when no model
                applies or its confidence gate fails.

        Every malformed field raises :class:`ServiceError` (HTTP 400);
        nothing in the request body can reach the 500 path.
        """
        if not isinstance(request, Mapping):
            raise ServiceError("request body must be a JSON object")
        mode = request.get("mode", "similarity")
        if not isinstance(mode, str) or mode not in ("similarity", "surrogate"):
            raise ServiceError(f"unknown recommend mode {mode!r}")
        k = _parse_k(request)
        system_kind = request.get("system_kind")
        if system_kind is not None and not isinstance(system_kind, str):
            raise ServiceError(
                f"system_kind must be a string, got {system_kind!r}"
            )
        candidates = [
            (record, fp)
            for record, fp in self._fingerprint_index()
            if system_kind is None or record.system_kind == system_kind
        ]
        fingerprint = self._request_fingerprint(request, candidates)
        ranked = rank_similar(fingerprint, candidates)[:k]
        matches = [
            {**record.describe(), "distance": round(distance, 6)}
            for record, distance in ranked
        ]
        finite = [
            (record, distance)
            for record, distance in ranked
            if math.isfinite(record.best_runtime_s)
        ]
        recommended = None
        if finite:
            # Nearest workload wins; its best config is the recommendation.
            record = finite[0][0]
            recommended = {
                "config": dict(record.best_config),
                "from_session": record.session_id,
                "from_workload": record.workload_name,
                "expected_runtime_s": record.best_runtime_s,
            }
        response = {
            "n_candidates": len(candidates),
            "matches": matches,
            "recommended": recommended,
        }
        if mode == "surrogate":
            response = self._surrogate_overlay(
                request, response, fingerprint, ranked, system_kind
            )
        return response

    # -- surrogate mode ----------------------------------------------------
    def _space_for(self, system_kind: str) -> Optional[Any]:
        """The system kind's configuration space (memoized under a
        lock).  Failures are cached *negatively with an expiry*: an
        unknown kind answers cheaply for ``space_negative_ttl_s``, but
        a transient failure (import hiccup, racing registration) is
        retried after the TTL instead of poisoning the kind forever.
        """
        now = time.monotonic()
        with self._space_lock:
            entry = self._spaces.get(system_kind)
            if entry is not None:
                space, expires = entry
                if space is not None or now < expires:
                    return space
        from repro.core.registry import make_system

        try:
            space = make_system(system_kind).config_space
            expires = math.inf
        except Exception:
            space = None
            expires = now + self.config.space_negative_ttl_s
        with self._space_lock:
            self._spaces[system_kind] = (space, expires)
        return space

    def _family_lock(self, key: Tuple[str, str]) -> threading.Lock:
        with self._family_guard:
            lock = self._family_locks.get(key)
            if lock is None:
                lock = self._family_locks[key] = threading.Lock()
            return lock

    def _family_model(
        self, kind: str, family: str, space: Any
    ) -> Optional[Any]:
        """A surrogate for (kind, family), retrain-debounced.

        With ``surrogate_retrain_debounce_s > 0``, a family retrains at
        most once per window even under continuous ingest; inside the
        window the most recent (possibly stale) model keeps serving.
        Callers hold the family's lock.
        """
        key = (kind, family)
        debounce = self.config.surrogate_retrain_debounce_s
        last = self._family_trained_at.get(key)
        if (
            debounce > 0
            and last is not None
            and time.monotonic() - last < debounce
        ):
            model = self.surrogates.get(
                self.kb, kind, family, space, train=False
            )
            if model is None:
                model = self.surrogates.load(kind, family)
            return model
        model = self.surrogates.get(self.kb, kind, family, space)
        self._family_trained_at[key] = time.monotonic()
        return model

    def _surrogate_overlay(
        self,
        request: Mapping[str, Any],
        base: Dict[str, Any],
        fingerprint: WorkloadFingerprint,
        ranked: List[Tuple[SessionRecord, float]],
        system_kind: Optional[str],
    ) -> Dict[str, Any]:
        """Serve the request from a per-family surrogate if one applies.

        Every exit path keeps the similarity fields intact: a fallback
        response is exactly the similarity answer plus provenance
        (``served_by: "similarity-fallback"`` and the reason).
        """
        response = dict(base)
        response["mode"] = "surrogate"
        response["surrogate"] = None
        response["served_by"] = "similarity-fallback"
        response["fallback_reason"] = None

        def fallback(reason: str) -> Dict[str, Any]:
            response["fallback_reason"] = reason
            return response

        kind = system_kind or (ranked[0][0].system_kind if ranked else None)
        if kind is None:
            return fallback("no-candidate-sessions")
        workload = request.get("workload") or (
            ranked[0][0].workload_name if ranked else None
        )
        if workload is None:
            return fallback("no-workload-match")
        space = self._space_for(kind)
        if space is None:
            return fallback(f"unknown-system-kind:{kind}")
        family = family_of(workload)
        with self._family_lock((kind, family)):
            model = self._family_model(kind, family, space)
        if model is None:
            return fallback("no-model")
        try:
            recommendation = recommend_config(
                model, space, fingerprint,
                confidence_threshold=self.confidence_threshold,
            )
        except SurrogateError:
            return fallback("no-probe-anchor")
        if recommendation is None:
            return fallback("no-feasible-candidates")
        response["surrogate"] = recommendation.describe()
        if not recommendation.confident:
            return fallback("low-confidence")
        response["served_by"] = "surrogate"
        response["recommended"] = {
            "config": dict(recommendation.values),
            "from_surrogate": model.family,
            "model_kind": model.model_kind,
            "expected_runtime_s": recommendation.predicted_runtime_s,
        }
        return response

    def surrogate_status(self) -> Dict[str, Any]:
        """Registry snapshot (``GET /surrogate/status``)."""
        return self.surrogates.status(self.kb)

    def _request_fingerprint(
        self,
        request: Mapping[str, Any],
        candidates: List[Tuple[SessionRecord, WorkloadFingerprint]],
    ) -> WorkloadFingerprint:
        if "fingerprint" in request:
            payload = request["fingerprint"]
            if not isinstance(payload, Mapping):
                raise ServiceError("fingerprint must be an object")
            try:
                return WorkloadFingerprint.from_jsonable(payload)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ServiceError(
                    f"bad fingerprint payload: {exc}"
                ) from exc
        name = request.get("workload")
        if not name:
            raise ServiceError("request needs 'fingerprint' or 'workload'")
        if not isinstance(name, str):
            raise ServiceError(f"workload must be a string, got {name!r}")
        for record, fp in candidates:  # newest first (sessions() ordering)
            if record.workload_name == name:
                return fp
        raise ServiceError(f"unknown workload {name!r}")

    def ingest(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Synchronous ingest (in-process callers; bypasses the queue)."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        try:
            session_id = self.kb.ingest_payload(payload)
        except _PAYLOAD_ERRORS as exc:
            raise ServiceError(f"bad kb_session payload: {exc}") from exc
        return {"session_id": session_id, "n_sessions": len(self.kb)}

    def ingest_async(
        self, writer: IngestWriter, payload: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Write-behind ingest (the HTTP path): enqueue, await commit.

        The returned ack is durable — the writer releases it only after
        the payload's group-commit transaction returned.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        if payload.get("kind") != "kb_session":
            raise ServiceError(
                "bad kb_session payload: payload is not a kb_session document"
            )
        ack = writer.submit(payload)  # may raise Overloaded (429)
        try:
            session_id = ack.wait(self.config.ingest_ack_timeout_s)
        except Overloaded:
            raise
        except _PAYLOAD_ERRORS as exc:
            raise ServiceError(f"bad kb_session payload: {exc}") from exc
        return {"session_id": session_id, "n_sessions": len(self.kb)}

    def metrics(self) -> Dict[str, Any]:
        """Process-wide observability snapshot (``GET /metrics``)."""
        from repro.exec.cache import global_cache

        registry = global_metrics()
        registry.set_gauge("kb.sessions", len(self.kb))
        payload: Dict[str, Any] = {
            "kb": {"path": self.kb.path, "n_sessions": len(self.kb)},
            "metrics": registry.snapshot(),
        }
        cache = global_cache()
        if cache is not None:
            payload["eval_cache"] = cache.stats()
        return payload

    def note_internal_error(
        self, endpoint: str, error_id: str, exc: BaseException
    ) -> None:
        """Record a 500 for /healthz (opaque id on the wire, type here)."""
        global_metrics().inc("kb.serve.errors.internal")
        self.recent_errors.append({
            "error_id": error_id,
            "endpoint": endpoint,
            "type": type(exc).__name__,
        })


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded connection front end over the bounded serving stack.

    Connection threads only parse/validate and then block on the
    request queue or the ingest ack; all computation runs on the
    executor's fixed worker pool.  ``server_close`` drains the
    write-behind ingest queue (flush-on-shutdown) before releasing the
    socket.
    """

    daemon_threads = True
    #: Pending-connection backlog.  The socketserver default (5) drops
    #: connects under a 1000-client stampede before accept() runs.
    request_queue_size = 1024

    service: RecommendationService
    executor: RequestExecutor
    ingest_writer: IngestWriter
    config: ServingConfig

    def server_close(self) -> None:  # noqa: D102 (inherited semantics)
        try:
            writer = getattr(self, "ingest_writer", None)
            if writer is not None:
                writer.close()
            executor = getattr(self, "executor", None)
            if executor is not None:
                executor.close()
        finally:
            super().server_close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared serving stack."""

    #: Keep-alive: connection threads are reused across a client's
    #: sequential requests instead of being respawned per request.
    protocol_version = "HTTP/1.1"
    #: Socket timeout — a stalled client cannot pin a connection
    #: thread (or an rfile.read) forever.
    timeout = 60
    #: TCP_NODELAY: a reply leaves at once instead of waiting on Nagle
    #: for the client's (delayed) ACK of the previous segment.
    disable_nagle_algorithm = True

    server: ServingHTTPServer

    @property
    def service(self) -> RecommendationService:
        return self.server.service

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        executor = self.server.executor
        service = self.service
        path = self.path.rstrip("/")
        if path == "/workloads":
            self._handle(
                "workloads",
                lambda: executor.submit(service.workloads, key="GET:/workloads"),
            )
        elif path == "/metrics":
            # deliberately not queued: observability must answer even
            # when the request queue is saturated
            self._handle("metrics", service.metrics)
        elif path == "/healthz":
            self._handle("healthz", self._healthz)
        elif path == "/surrogate/status":
            self._handle(
                "surrogate_status",
                lambda: executor.submit(
                    service.surrogate_status, key="GET:/surrogate/status"
                ),
            )
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.rstrip("/")
        endpoint = {"/recommend": "recommend", "/ingest": "ingest"}.get(path)
        if endpoint is None:
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        body = self._read_json_body(endpoint)
        if body is None:
            return  # already replied (400/413)
        executor = self.server.executor
        service = self.service
        if endpoint == "recommend":
            # coalescing key: the canonical body — identical
            # (fingerprint/workload, system_kind, mode, k) requests
            # share one computation
            key = "recommend:" + json.dumps(
                body, sort_keys=True, separators=(",", ":"), default=repr
            )
            self._handle(
                "recommend",
                lambda: executor.submit(
                    lambda: service.recommend(body), key=key
                ),
            )
        else:
            self._handle(
                "ingest",
                lambda: service.ingest_async(self.server.ingest_writer, body),
            )

    # -- request plumbing ---------------------------------------------------
    def _read_json_body(self, endpoint: str) -> Optional[Dict[str, Any]]:
        """Read and parse the request body, enforcing the size cap.

        Replies (and returns ``None``) on any violation: missing,
        non-integer or negative ``Content-Length`` → 400; a declared
        length over ``max_body_bytes`` → 413 *without reading the
        body* (the connection is closed — the unread body would
        desynchronize keep-alive framing); short reads and invalid
        JSON → 400; non-object top-level values → 400.
        """
        metrics = global_metrics()

        def refuse(status: int, message: str) -> None:
            metrics.inc(f"kb.http.{endpoint}.{status}")
            self._reply(status, {"error": message}, close=True)

        raw = self.headers.get("Content-Length")
        if raw is None:
            refuse(400, "missing Content-Length")
            return None
        try:
            length = int(raw)
        except (TypeError, ValueError):
            refuse(400, f"invalid Content-Length {raw!r}")
            return None
        if length < 0:
            refuse(400, f"invalid Content-Length {raw!r}")
            return None
        limit = self.server.config.max_body_bytes
        if length > limit:
            metrics.inc("kb.serve.body_too_large")
            refuse(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
            return None
        try:
            data = self.rfile.read(length)
        except (TimeoutError, OSError):
            self.close_connection = True
            return None
        if len(data) != length:
            refuse(400, "truncated request body")
            return None
        try:
            body = json.loads(data.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            refuse(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            refuse(400, "request body must be a JSON object")
            return None
        return body

    def _healthz(self) -> Dict[str, Any]:
        """Serving health (never queued — must answer under overload)."""
        executor = self.server.executor.stats()
        ingest = self.server.ingest_writer.stats()
        kb = self.service.kb
        overloaded = executor["queued"] >= executor["queue_limit"]
        return {
            "status": "overloaded" if overloaded else "ok",
            "kb": {
                "path": kb.path,
                "n_sessions": len(kb),
                "version": list(kb.version()),
            },
            "executor": executor,
            "ingest": ingest,
            "recent_errors": list(self.service.recent_errors),
        }

    def _handle(
        self, endpoint: str, thunk: Callable[[], Dict[str, Any]]
    ) -> None:
        """Run one endpoint with latency/status accounting.

        Maps :class:`ServiceError` → 400, :class:`Overloaded` → 429
        with ``Retry-After``, and — crucially — *any* other exception
        to a strict-JSON 500 with an opaque error id.  No request ever
        ends in a silently closed socket and a server-side traceback.
        """
        metrics = global_metrics()
        start = time.perf_counter()
        headers: Dict[str, str] = {}
        try:
            status, payload = 200, thunk()
        except ServiceError as exc:
            status, payload = 400, {"error": str(exc)}
        except Overloaded as exc:
            status = 429
            retry_after = max(1, math.ceil(exc.retry_after_s))
            headers["Retry-After"] = str(retry_after)
            payload = {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after_s": retry_after,
            }
        except Exception as exc:  # noqa: BLE001 — the 500 safety net
            status = 500
            error_id = f"e-{uuid.uuid4().hex[:12]}"
            self.service.note_internal_error(endpoint, error_id, exc)
            payload = {"error": "internal server error", "error_id": error_id}
        metrics.observe(f"kb.http.{endpoint}.seconds",
                        time.perf_counter() - start)
        metrics.inc(f"kb.http.{endpoint}.{status}")
        self._reply(status, payload, headers=headers)

    def _reply(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        # Strict JSON on the wire: the KB's inf-safe encoding plus
        # allow_nan=False, so math.inf in a stored record (all-failed
        # sessions) serializes as "inf" instead of the invalid Infinity.
        try:
            data = dumps_strict(payload).encode("utf-8")
        except (TypeError, ValueError):
            global_metrics().inc("kb.serve.errors.serialization")
            status = 500
            data = b'{"error": "unserializable response"}'
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if close:
                self.send_header("Connection", "close")
                self.close_connection = True
            # status line, headers and body in one write: end_headers()
            # would send the header block on its own, a separate segment
            self._headers_buffer.extend((b"\r\n", data))
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError, TimeoutError, OSError):
            # the client went away mid-reply; nothing to answer anymore
            global_metrics().inc("kb.serve.client_disconnects")
            self.close_connection = True

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # keep test/CLI output clean; HTTP access logs are noise here


def make_server(
    kb: KnowledgeBase,
    host: str = "127.0.0.1",
    port: int = 0,
    surrogate_dir: Optional[str] = None,
    config: Optional[ServingConfig] = None,
    service: Optional[RecommendationService] = None,
) -> ServingHTTPServer:
    """Build the serving stack bound to (host, port).

    ``port=0`` picks a free port (tests); the bound address is available
    as ``server.server_address``.  Call ``serve_forever()`` on it (or
    use :func:`serve_forever` for the CLI loop).  ``surrogate_dir``
    makes the surrogate registry disk-backed so trained models survive
    restarts.  ``config`` sizes the worker pool, queues, and shedding
    thresholds; ``service`` injects a pre-built (possibly subclassed)
    query engine — benches use it to model slow backends.
    """
    config = config or ServingConfig()
    if service is None:
        store = SurrogateStore(surrogate_dir) if surrogate_dir else None
        service = RecommendationService(
            kb, surrogate_store=store, config=config
        )
    server = ServingHTTPServer((host, port), _Handler)
    server.config = config
    server.service = service
    server.executor = RequestExecutor(config)
    # index warming and surrogate invalidation happen here, off the
    # request path, after each group commit
    server.ingest_writer = IngestWriter(
        kb, config, on_commit=service.refresh_index
    )
    return server


def serve_forever(
    kb: KnowledgeBase,
    host: str,
    port: int,
    surrogate_dir: Optional[str] = None,
    config: Optional[ServingConfig] = None,
) -> None:
    """Blocking CLI entry point (Ctrl-C to stop; flushes ingests)."""
    server = make_server(kb, host, port, surrogate_dir=surrogate_dir,
                         config=config)
    bound_host, bound_port = server.server_address[:2]
    print(f"kb service on http://{bound_host}:{bound_port} "
          f"({len(kb)} stored sessions, "
          f"{server.config.workers} workers, "
          f"queue limit {server.config.queue_limit}; endpoints: "
          f"GET /workloads, GET /metrics, GET /healthz, "
          f"GET /surrogate/status, POST /recommend, POST /ingest)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        server.server_close()  # drains the write-behind ingest queue
