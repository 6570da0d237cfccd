"""SQLite-backed persistent tuning knowledge base.

Every completed tuning session is an expensive artifact: tens of real
experiment runs against a system.  The knowledge base persists those
sessions — system/workload descriptors, full observation histories,
metric vectors, fault/resilience statistics, and a workload
fingerprint — so later sessions on *similar* workloads can warm-start
instead of exploring from scratch, and a recommendation service can
answer "what configuration worked for workloads like mine?" without
running anything.

Storage is plain stdlib ``sqlite3``: one table of session records with
the observation history as a versioned JSON document (the
:mod:`repro.core.serialize` format), plus indexed descriptor columns
for the queries the transfer pipeline actually issues.  A single
connection guarded by a lock (``check_same_thread=False``) keeps the
store safe under the threaded recommendation service; file-backed
databases additionally enable WAL mode so concurrent readers never
block a writer.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.measurement import TuningHistory
from repro.core.parameters import ConfigurationSpace
from repro.core.serialize import (
    FORMAT_VERSION,
    history_from_jsonable,
    to_jsonable,
)
from repro.core.system import SystemUnderTune
from repro.core.tuner import TuningResult
from repro.core.workload import Workload
from repro.kb.fingerprint import (
    WorkloadFingerprint,
    fingerprint_from_history,
    probe_fingerprint,
)

__all__ = ["SessionRecord", "KnowledgeBase", "json_safe", "dumps_strict"]


def json_safe(value: Any) -> Any:
    """Recursively apply the store's inf-safe float encoding.

    Non-finite floats have no RFC 8259 representation; the knowledge
    base encodes them as the strings ``"inf"`` / ``"-inf"`` / ``"nan"``
    (the same convention :meth:`SessionRecord.describe` and the session
    payloads use).  Everything else passes through unchanged.
    """
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, Mapping):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def dumps_strict(payload: Any) -> str:
    """Serialize to *strict* RFC 8259 JSON.

    ``allow_nan=False`` guarantees the wire format never contains the
    non-standard ``Infinity``/``NaN`` literals: any non-finite float is
    first rewritten by :func:`json_safe`, and one slipping past that
    raises instead of silently corrupting the payload.
    """
    return json.dumps(json_safe(payload), allow_nan=False)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kb_sessions (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    created_seq     INTEGER NOT NULL,
    system_kind     TEXT NOT NULL,
    system_name     TEXT NOT NULL,
    workload_name   TEXT NOT NULL,
    tuner_name      TEXT NOT NULL,
    seed            INTEGER,
    n_runs          INTEGER NOT NULL,
    best_runtime_s  REAL,                -- NULL encodes +inf (never measured)
    best_config     TEXT NOT NULL,       -- JSON {knob: value}
    space_names     TEXT NOT NULL,       -- JSON [knob, ...] for compatibility checks
    metric_names    TEXT NOT NULL,       -- JSON [metric, ...]
    fingerprint     TEXT,                -- JSON WorkloadFingerprint, NULL if unknown
    history         TEXT NOT NULL,       -- JSON serialized TuningHistory
    extras          TEXT NOT NULL,       -- JSON tuner extras (resilience stats, ...)
    format_version  INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_kb_sessions_system
    ON kb_sessions (system_kind, workload_name);
"""


def _encode_best_runtime(value: float) -> Optional[float]:
    return None if math.isinf(value) else float(value)


@dataclass(frozen=True)
class SessionRecord:
    """One stored tuning session, histories left as JSON until needed.

    ``history`` payloads can be large; :meth:`KnowledgeBase.history`
    deserializes them lazily against a caller-supplied space.
    """

    session_id: int
    system_kind: str
    system_name: str
    workload_name: str
    tuner_name: str
    seed: Optional[int]
    n_runs: int
    best_runtime_s: float
    best_config: Dict[str, Any]
    space_names: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    fingerprint: Optional[WorkloadFingerprint]
    extras: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (service responses, CLI listings)."""
        return {
            "session_id": self.session_id,
            "system_kind": self.system_kind,
            "system_name": self.system_name,
            "workload": self.workload_name,
            "tuner": self.tuner_name,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "best_runtime_s": (
                "inf" if math.isinf(self.best_runtime_s) else self.best_runtime_s
            ),
            "best_config": dict(self.best_config),
        }


def _record_from_row(row: sqlite3.Row) -> SessionRecord:
    fp_payload = row["fingerprint"]
    return SessionRecord(
        session_id=row["id"],
        system_kind=row["system_kind"],
        system_name=row["system_name"],
        workload_name=row["workload_name"],
        tuner_name=row["tuner_name"],
        seed=row["seed"],
        n_runs=row["n_runs"],
        best_runtime_s=(
            math.inf if row["best_runtime_s"] is None else row["best_runtime_s"]
        ),
        best_config=json.loads(row["best_config"]),
        space_names=tuple(json.loads(row["space_names"])),
        metric_names=tuple(json.loads(row["metric_names"])),
        fingerprint=(
            WorkloadFingerprint.from_jsonable(json.loads(fp_payload))
            if fp_payload
            else None
        ),
        extras=json.loads(row["extras"]),
    )


class KnowledgeBase:
    """Thread-safe persistent store of tuning sessions.

    Args:
        path: SQLite database path, or ``":memory:"`` for an ephemeral
            store (tests, single-process pipelines).

    All public methods may be called concurrently from multiple
    threads; SQLite access is serialized on an internal lock, which is
    sufficient at knowledge-base scale (thousands of sessions, not
    millions of rows).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if self.path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "KnowledgeBase":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- writing -----------------------------------------------------------
    def ingest_result(
        self,
        system: SystemUnderTune,
        workload: Workload,
        result: TuningResult,
        seed: Optional[int] = None,
        fingerprint: Optional[WorkloadFingerprint] = None,
    ) -> int:
        """Persist a completed tuning session; returns its id.

        The workload fingerprint is recovered from the session's own
        default-config observation when not supplied, falling back to a
        fresh probe run (deterministic simulators make that equivalent).
        """
        payload = self.session_payload(
            system, workload, result, seed=seed, fingerprint=fingerprint
        )
        return self.ingest_payload(payload)

    def session_payload(
        self,
        system: SystemUnderTune,
        workload: Workload,
        result: TuningResult,
        seed: Optional[int] = None,
        fingerprint: Optional[WorkloadFingerprint] = None,
    ) -> Dict[str, Any]:
        """Build the JSON document for one session — the same payload
        the service's ``/ingest`` endpoint accepts over the wire.

        A missing fingerprint is recovered from the session history's
        default-config observation, else from a fresh probe run, so
        payloads shipped to ``/ingest`` stay matchable by similarity
        search."""
        if fingerprint is None:
            fingerprint = fingerprint_from_history(result.history)
        if fingerprint is None:
            fingerprint = probe_fingerprint(system, workload)
        serialized = to_jsonable(result)
        return {
            "version": FORMAT_VERSION,
            "kind": "kb_session",
            "system_kind": system.kind,
            "system_name": system.name,
            "workload": workload.name,
            "tuner": result.tuner_name,
            "seed": seed,
            "n_runs": result.n_real_runs,
            "best_runtime_s": serialized["best_runtime_s"],
            "best_config": serialized["best_config"],
            "space_names": list(system.config_space.names()),
            "metric_names": list(system.metric_names),
            "fingerprint": fingerprint.to_jsonable() if fingerprint else None,
            "history": serialized["history"],
            "extras": serialized["extras"],
        }

    def ingest_history(
        self,
        system: SystemUnderTune,
        workload: Workload,
        history: TuningHistory,
        tuner_name: str = "offline-sampler",
        seed: Optional[int] = None,
        extras: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Persist raw observations that never went through a tuner —
        e.g., OtterTune repository sampling — as a session document."""
        fingerprint = fingerprint_from_history(history)
        if fingerprint is None:
            fingerprint = probe_fingerprint(system, workload)
        best = history.best()
        best_config = best.config if best else system.default_configuration()
        payload = {
            "version": FORMAT_VERSION,
            "kind": "kb_session",
            "system_kind": system.kind,
            "system_name": system.name,
            "workload": workload.name,
            "tuner": tuner_name,
            "seed": seed,
            "n_runs": len(history.real_observations()),
            "best_runtime_s": "inf" if best is None else best.runtime_s,
            "best_config": dict(best_config.to_dict()),
            "space_names": list(system.config_space.names()),
            "metric_names": list(system.metric_names),
            "fingerprint": fingerprint.to_jsonable(),
            "history": to_jsonable(history),
            "extras": dict(extras or {}),
        }
        return self.ingest_payload(payload)

    def ingest_payload(self, payload: Mapping[str, Any]) -> int:
        """Insert a ``kb_session`` document (local call or ``/ingest``).

        On any failure the open transaction is rolled back before the
        error propagates, so a bad payload never leaves a pending row
        that a *later* caller's commit would silently make durable.
        """
        with self._lock:
            try:
                session_id = self._insert_payload(payload)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            return session_id

    def ingest_many(
        self, payloads: Sequence[Mapping[str, Any]]
    ) -> List[Any]:
        """Group-commit several ``kb_session`` documents at once.

        All valid payloads in the batch are inserted and committed in
        **one** transaction — the write-behind ingest queue's group
        commit, which amortizes the fsync across the batch.  The return
        list is positional: a session id for each stored payload, or
        the exception a malformed payload raised — validation errors
        *and* sqlite binding/operational errors (e.g. a non-scalar
        ``seed``), so one bad payload never poisons its batchmates.
        If the commit itself fails, the transaction is rolled back
        before the error propagates: the batch is all-or-nothing, and
        its pending rows can never be leaked into (and durably
        committed by) a later batch's transaction.
        """
        outcomes: List[Any] = []
        with self._lock:
            try:
                for payload in payloads:
                    try:
                        outcomes.append(self._insert_payload(payload))
                    except (
                        KeyError,
                        ValueError,
                        TypeError,
                        OverflowError,
                        sqlite3.Error,
                    ) as exc:
                        outcomes.append(exc)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return outcomes

    def _insert_payload(self, payload: Mapping[str, Any]) -> int:
        """Validate + insert one document; caller holds the lock and
        commits."""
        if not isinstance(payload, Mapping):
            raise TypeError("payload must be a JSON object")
        if payload.get("kind") != "kb_session":
            raise ValueError("payload is not a kb_session document")
        best_runtime = payload["best_runtime_s"]
        best_runtime = math.inf if best_runtime == "inf" else float(best_runtime)
        cursor = self._conn.execute(
            """
            INSERT INTO kb_sessions (
                created_seq, system_kind, system_name, workload_name,
                tuner_name, seed, n_runs, best_runtime_s, best_config,
                space_names, metric_names, fingerprint, history, extras,
                format_version
            ) VALUES (
                (SELECT COALESCE(MAX(created_seq), 0) + 1 FROM kb_sessions),
                ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?
            )
            """,
            (
                payload["system_kind"],
                payload["system_name"],
                payload["workload"],
                payload["tuner"],
                payload.get("seed"),
                int(payload["n_runs"]),
                _encode_best_runtime(best_runtime),
                json.dumps(payload["best_config"]),
                json.dumps(list(payload["space_names"])),
                json.dumps(list(payload["metric_names"])),
                (
                    json.dumps(payload["fingerprint"])
                    if payload.get("fingerprint")
                    else None
                ),
                json.dumps(payload["history"]),
                json.dumps(payload.get("extras", {})),
                int(payload.get("version", FORMAT_VERSION)),
            ),
        )
        return int(cursor.lastrowid)

    # -- reading -----------------------------------------------------------
    def sessions(
        self,
        system_kind: Optional[str] = None,
        workload_name: Optional[str] = None,
        space_names: Optional[Sequence[str]] = None,
        after_id: Optional[int] = None,
    ) -> List[SessionRecord]:
        """Stored sessions, newest first, optionally filtered.

        ``space_names`` restricts to sessions recorded against exactly
        that knob catalog — transfer across incompatible spaces is
        meaningless, so every consumer filters on it.  ``after_id``
        returns only sessions with a larger id: ids only grow, so these
        are the sessions stored since that id was the newest (the
        service's incremental index reads just those).
        """
        query = (
            "SELECT id, system_kind, system_name, workload_name, tuner_name,"
            " seed, n_runs, best_runtime_s, best_config, space_names,"
            " metric_names, fingerprint, extras FROM kb_sessions"
        )
        clauses, params = [], []
        if system_kind is not None:
            clauses.append("system_kind = ?")
            params.append(system_kind)
        if workload_name is not None:
            clauses.append("workload_name = ?")
            params.append(workload_name)
        if after_id is not None:
            clauses.append("id > ?")
            params.append(int(after_id))
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        records = [_record_from_row(row) for row in rows]
        if space_names is not None:
            wanted = tuple(space_names)
            records = [r for r in records if r.space_names == wanted]
        return records

    def has_session(
        self,
        system_kind: str,
        workload_name: str,
        tuner_name: str,
        seed: Optional[int],
    ) -> bool:
        """Whether a session with this exact identity is already stored.

        Crash-safe ingest loops (the fleet controller) derive a
        deterministic ``(tuner_name, seed)`` identity per episode and
        skip the insert when a resume replays an epoch that was already
        persisted — making re-ingestion idempotent.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM kb_sessions WHERE system_kind = ?"
                " AND workload_name = ? AND tuner_name = ?"
                " AND seed IS ? LIMIT 1",
                (system_kind, workload_name, tuner_name, seed),
            ).fetchone()
        return row is not None

    def history(self, session_id: int, space: ConfigurationSpace) -> TuningHistory:
        """Deserialize one session's observation history against ``space``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT history FROM kb_sessions WHERE id = ?", (session_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no kb session with id {session_id}")
        return history_from_jsonable(space, json.loads(row["history"]))

    def version(self) -> Tuple[int, int]:
        """(row count, max id) — changes iff the stored data changed.

        The recommendation service keys its similarity-index cache on
        this, so reads stay cheap between ingests.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(MAX(id), 0) FROM kb_sessions"
            ).fetchone()
        return (int(row[0]), int(row[1]))

    def __len__(self) -> int:
        return self.version()[0]

    def summary(self) -> Dict[str, Any]:
        """Aggregate shape of the store (CLI/status endpoints)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT system_kind, workload_name, COUNT(*) AS n"
                " FROM kb_sessions GROUP BY system_kind, workload_name"
                " ORDER BY system_kind, workload_name"
            ).fetchall()
        return {
            "path": self.path,
            "n_sessions": sum(row["n"] for row in rows),
            "workloads": [
                {
                    "system_kind": row["system_kind"],
                    "workload": row["workload_name"],
                    "n_sessions": row["n"],
                }
                for row in rows
            ],
        }
