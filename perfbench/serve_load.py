"""The ``serve-mix`` workload: ``python -m repro serve`` under a closed loop.

Set-up seeds a file KB with tuning sessions (three workload families,
one per system, at seed-drawn scales) in a fresh process and starts the
server over a copy of it; set-up ends when ``/healthz`` answers.  Then
``nproc`` keep-alive clients in this process each send their next
request as soon as the previous one is answered, drawing from a fixed
mix: 70% similarity ``/recommend``, 10% ``mode=surrogate``
``/recommend`` and 20% ``/ingest`` of a seeded session.  Ingests grow the
KB under the reads for the whole run.

Every ingest re-posts one of the seeded sessions, so the similarity
answer for a workload cannot change while the KB grows: each workload
must get one recommended configuration throughout, which the run checks
and then scores on the simulator (``tuned_speedup``).  After SIGINT the
server must have committed exactly the acknowledged ingests.

The traced run also replays the same request sequence in-process
against ``RecommendationService`` over a fresh copy of the seeded KB,
untraced and traced, which separates service time from HTTP transport.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from http.client import HTTPConnection
from typing import Any, Dict, List, Optional, Tuple

import benchutil
from layers import install, layer_metrics
from spans import SpanRecorder

__all__ = ["run_serve_workload", "setup_probe"]

#: Cumulative request mix.
MIX = (("recommend", 0.70), ("surrogate", 0.80), ("ingest", 1.00))
#: (system kind, workload generator, scale range); three scales each.
FAMILIES = (
    ("dbms", "htap_mixed", 0.5, 2.0),
    ("spark", "spark_sort", 4.0, 16.0),
    ("hadoop", "terasort", 4.0, 16.0),
)
SCALES_PER_FAMILY = 3
SEED_BUDGET = {"full": 60, "tiny": 12}
#: ``serve --retrain-debounce`` for the benchmark's server and replay.  With
#: the 30 s default, a family's first retrain after the warm-up lands
#: inside or outside the 15 s window depending on host speed, and one
#: retrain under ingest takes seconds; an hour keeps every run on the
#: same side of it.  Training cost is measured by the traced replay.
SERVE_RETRAIN_DEBOUNCE_S = 3600.0
_HEADERS = {"Content-Type": "application/json"}


# -- seeded inputs ---------------------------------------------------------------
def seeded_workloads(seed: int) -> List[Tuple[str, Any]]:
    """(system kind, workload) pairs the KB is seeded with."""
    from repro import workloads as catalog

    rng = random.Random(zlib.crc32(f"serve-mix/{seed}".encode()))
    pairs = []
    for kind, generator, low, high in FAMILIES:
        # distinct scales, so every workload name is stored exactly once
        tenths = rng.sample(range(round(low * 10), round(high * 10) + 1),
                            SCALES_PER_FAMILY)
        for tenth in tenths:
            pairs.append((kind, getattr(catalog, generator)(tenth / 10)))
    return pairs


def setup_probe(workload: str, seed: int, size: str, out_dir: str) -> None:
    """Seed ``out_dir/seed.sqlite`` and write the ingest payload pool.

    Runs in a fresh process as part of the timed set-up.
    """
    import numpy as np

    from repro.core.registry import make_system, make_tuner
    from repro.core.tuner import Budget
    from repro.kb import KnowledgeBase

    os.makedirs(out_dir, exist_ok=True)
    payloads = []
    with KnowledgeBase(os.path.join(out_dir, "seed.sqlite")) as kb:
        for index, (kind, workload_obj) in enumerate(seeded_workloads(seed)):
            system = make_system(kind)
            tuner_seed = zlib.crc32(f"{seed}/{index}".encode())
            result = make_tuner("random-search").tune(
                system, workload_obj, Budget(max_runs=SEED_BUDGET[size]),
                rng=np.random.default_rng(tuner_seed),
            )
            payload = kb.session_payload(system, workload_obj, result,
                                         seed=tuner_seed)
            kb.ingest_payload(payload)
            payloads.append(payload)
    with open(os.path.join(out_dir, "payloads.json"), "w") as handle:
        json.dump(payloads, handle)


# -- the server process --------------------------------------------------------------
class Server:
    """``python -m repro serve`` over ``kb_path`` on a free local port.

    The server runs with ``faulthandler`` on and its standard error in
    ``err_path``: if it does not exit after SIGINT, SIGABRT makes it dump
    every thread's stack there, and the failure report quotes it.
    """

    def __init__(self, kb_path: str, err_path: str):
        env = dict(os.environ, PYTHONPATH=benchutil.SRC, PYTHONUNBUFFERED="1")
        self.err_path = err_path
        with open(err_path, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-X", "faulthandler", "-m", "repro", "serve",
                 "--kb", kb_path, "--port", "0",
                 "--retrain-debounce", str(SERVE_RETRAIN_DEBOUNCE_S)],
                cwd=benchutil.ROOT, env=env, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )
        try:
            banner = self.proc.stdout.readline()
            address = banner.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy()
        except (IndexError, ValueError, RuntimeError):
            self.kill()
            raise RuntimeError(f"server did not start: {banner!r}")

    def _wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> Tuple[int, Any]:
        conn = HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self, timeout_s: float = 60.0) -> Tuple[int, str]:
        """SIGINT (the server flushes its ingest queue), then wait.

        Returns the exit code, and the server's thread stacks when it
        had to be aborted (exit code -1).
        """
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            self.kill()
            with open(self.err_path) as err:
                return -1, err.read()[-4000:]
        self.proc.stdout.close()
        return code, ""

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _start(seed: int, size: str, folder: str) -> Tuple[float, "Server"]:
    """One timed set-up: seed the KB in a fresh process, start serving."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, benchutil.RUN_PY, "--workload", "serve-mix",
         "--seed", str(seed), "--seconds", "0", "--size", size,
         "--setup-probe", folder],
        check=True, cwd=benchutil.ROOT, stdout=subprocess.DEVNULL,
        timeout=120,
    )
    shutil.copyfile(os.path.join(folder, "seed.sqlite"),
                    os.path.join(folder, "kb.sqlite"))
    server = Server(os.path.join(folder, "kb.sqlite"),
                    os.path.join(folder, "server.err"))
    return time.perf_counter() - start, server


# -- client load ---------------------------------------------------------------------
class Request:
    __slots__ = ("kind", "body", "sent", "latency", "status", "answer")

    def __init__(self, kind: str, body: bytes):
        self.kind = kind
        self.body = body
        self.sent = 0.0
        self.latency = 0.0
        self.status = 0
        self.answer: Optional[str] = None


def _next_request(rng: random.Random, names: List[str],
                  payloads: List[bytes]) -> Request:
    draw = rng.random()
    kind = next(k for k, ceiling in MIX if draw <= ceiling)
    if kind == "ingest":
        return Request(kind, rng.choice(payloads))
    body: Dict[str, Any] = {"workload": rng.choice(names),
                            "k": rng.choice([1, 2, 3])}
    if kind == "surrogate":
        body["mode"] = "surrogate"
    return Request(kind, json.dumps(body).encode())


def _client(server: Server, rng: random.Random, names: List[str],
            payloads: List[bytes], deadline: float,
            out: List[Request]) -> None:
    conn = HTTPConnection(server.host, server.port, timeout=60)
    try:
        while time.perf_counter() < deadline:
            request = _next_request(rng, names, payloads)
            path = "/ingest" if request.kind == "ingest" else "/recommend"
            request.sent = time.perf_counter()
            try:
                conn.request("POST", path, body=request.body,
                             headers=_HEADERS)
                response = conn.getresponse()
                data = response.read()
                request.status = response.status
            except OSError:
                conn.close()
                conn = HTTPConnection(server.host, server.port, timeout=60)
                request.status = -1
                data = b""
            request.latency = time.perf_counter() - request.sent
            if request.kind == "recommend" and request.status == 200:
                recommended = json.loads(data).get("recommended")
                request.answer = json.dumps(
                    recommended and recommended["config"], sort_keys=True
                )
            out.append(request)
    finally:
        conn.close()


def drive(server: Server, seed: int, seconds: float, names: List[str],
          payloads: List[bytes]) -> Tuple[List[Request], float]:
    """The closed loop: ``nproc`` clients until ``seconds`` pass."""
    logs: List[List[Request]] = [[] for _ in range(benchutil.nproc())]
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=_client, args=(
            server, random.Random(zlib.crc32(f"{seed}/client{i}".encode())),
            names, payloads, deadline, log,
        ), daemon=True)
        for i, log in enumerate(logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish")
    requests = sorted((r for log in logs for r in log), key=lambda r: r.sent)
    return requests, wall


def _endpoint_report(requests: List[Request]) -> Dict[str, Any]:
    report: Dict[str, Any] = {}
    for kind, _ in MIX:
        mine = [r for r in requests if r.kind == kind]
        statuses: Dict[str, int] = {}
        for r in mine:
            statuses[str(r.status)] = statuses.get(str(r.status), 0) + 1
        report[kind] = {
            "attempted": len(mine),
            "succeeded": statuses.get("200", 0),
            "failed": len(mine) - statuses.get("200", 0),
            "by_status": statuses,
            "latency": benchutil.latency_summary(
                [r.latency for r in mine if r.status == 200]
            ),
        }
    return report


def _p50_ms(requests: List[Request], kind: str) -> float:
    return benchutil.percentile(
        [r.latency for r in requests if r.kind == kind and r.status == 200],
        50,
    ) * 1000.0


def _tuned_speedup(seed: int, requests: List[Request],
                   failures: List[str]) -> float:
    """Geometric mean of default over recommended-config runtime."""
    from repro.core.registry import make_system

    answers: Dict[str, set] = {}
    for r in requests:
        if r.kind == "recommend" and r.status == 200:
            name = json.loads(r.body)["workload"]
            answers.setdefault(name, set()).add(r.answer)
    ratios = []
    for kind, workload in seeded_workloads(seed):
        seen = answers.get(workload.name)
        if not seen:
            continue
        if len(seen) != 1 or None in seen or "null" in seen:
            failures.append(
                f"{workload.name}: {len(seen)} different recommendations"
            )
            continue
        system = make_system(kind)
        config = system.config_space.configuration(json.loads(seen.pop()))
        default = system.run(workload, system.default_configuration())
        ratios.append(default.runtime_s / system.run(workload, config).runtime_s)
    if not ratios:
        failures.append("no similarity recommendation was answered")
        return float("nan")
    return benchutil.geomean(ratios)


def _warm_surrogates(server: Server, pool: List[Dict[str, Any]]) -> float:
    """Train each family's surrogate before the measured window.

    A family trains on its first surrogate request and then serves for
    the whole retrain-debounce window, longer than any run; without the
    warm-up, the few cold trainings would set ``ops_per_s``.
    """
    from repro.surrogate.dataset import family_of

    first: Dict[str, str] = {}
    for payload in pool:
        first.setdefault(family_of(payload["workload"]), payload["workload"])
    start = time.perf_counter()
    conn = HTTPConnection(server.host, server.port, timeout=120)
    try:
        for name in first.values():
            body = json.dumps({"workload": name, "mode": "surrogate", "k": 1})
            conn.request("POST", "/recommend", body=body, headers=_HEADERS)
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"surrogate warm-up got {response.status}")
    finally:
        conn.close()
    return time.perf_counter() - start


def _check_exit(stopped: Tuple[int, str], failures: List[str]) -> None:
    code, stacks = stopped
    if code != 0:
        failures.append(f"server exited with {code} after SIGINT"
                        + (f"; its threads:\n{stacks}" if stacks else ""))


def _kb_growth(folder: str, before: int) -> int:
    from repro.kb import KnowledgeBase

    with KnowledgeBase(os.path.join(folder, "kb.sqlite")) as kb:
        return len(kb) - before


# -- in-process replay -------------------------------------------------------------
def replay(folder: str, requests: List[Request],
           recorder: Optional[SpanRecorder] = None
           ) -> Tuple[float, List[float]]:
    """The HTTP run's request sequence against the service in-process.

    Returns the replay wall time and the similarity-recommend latencies.
    """
    from repro.kb import KnowledgeBase
    from repro.kb.service import RecommendationService
    from repro.kb.serving import ServingConfig

    path = os.path.join(folder, "replay.sqlite")
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    shutil.copyfile(os.path.join(folder, "seed.sqlite"), path)
    latencies: List[float] = []
    with KnowledgeBase(path) as kb:
        service = RecommendationService(kb, config=ServingConfig(
            surrogate_retrain_debounce_s=SERVE_RETRAIN_DEBOUNCE_S))
        bodies = [(r.kind, json.loads(r.body)) for r in requests]
        if recorder is not None:
            install(recorder)
        try:
            start = time.perf_counter()
            for kind, body in bodies:
                began = time.perf_counter()
                if kind == "ingest":
                    service.ingest(body)
                    # the server warms its index after each commit, off
                    # the request path
                    service.refresh_index()
                else:
                    service.recommend(body)
                if kind == "recommend":
                    latencies.append(time.perf_counter() - began)
            wall = time.perf_counter() - start
        finally:
            if recorder is not None:
                recorder.restore()
    return wall, latencies


# -- the workload ----------------------------------------------------------------------
def run_serve_workload(seed: int, seconds: float, trace: bool,
                       size: str = "full",
                       spans_path: Optional[str] = None) -> Dict[str, Any]:
    scratch = benchutil.work_dir("serve-mix")
    servers: List[Server] = []
    gauge = benchutil.SpeedGauge()
    failures: List[str] = []
    try:
        setups = []
        repeats = 1 if trace else benchutil.SETUP_REPEATS
        for i in range(repeats):
            (elapsed, server), speed = gauge.around(
                lambda: _start(seed, size, f"{scratch}/s{i}")
            )
            setups.append((elapsed, speed))
            if i + 1 < repeats:
                _check_exit(server.stop(), failures)
        servers.append(server)
        folder = f"{scratch}/s{len(setups) - 1}"
        with open(os.path.join(folder, "payloads.json")) as handle:
            pool = json.load(handle)
        payloads = [json.dumps(p).encode() for p in pool]
        names = sorted({p["workload"] for p in pool})
        warm_s = _warm_surrogates(server, pool)
        _, health = server.get("/healthz")
        before = health["kb"]["n_sessions"]

        requests, wall = drive(server, seed, seconds, names, payloads)
        _, health = server.get("/healthz")
        peak_rss = benchutil.process_peak_rss_mb(server.proc.pid)
        stopping = time.perf_counter()
        _check_exit(server.stop(), failures)
        shutdown_s = time.perf_counter() - stopping
        servers.clear()

        bad = [r for r in requests if r.status != 200]
        if bad:
            failures.append(f"{len(bad)} responses were not 200: "
                            f"{sorted({r.status for r in bad})}")
        acked = sum(1 for r in requests
                    if r.kind == "ingest" and r.status == 200)
        growth = _kb_growth(folder, before)
        if growth != acked:
            failures.append(f"acked {acked} ingests but the KB grew by "
                            f"{growth}")
        speedup = _tuned_speedup(seed, requests, failures)
        report = {
            "endpoints": _endpoint_report(requests),
            "serve_rps": len(requests) / wall,
            "acked_ingests": acked,
            "kb_growth": growth,
            "shutdown_s": shutdown_s,
            "setup_samples_s": [t for t, _ in setups],
            "speed_factor": gauge.mean_factor(),
            "surrogate_warmup_s": warm_s,
            "serving": {"executor": health["executor"],
                        "ingest": health["ingest"]},
            "failures": failures[:10],
        }
        if trace:
            metrics = _traced_metrics(folder, requests, health, spans_path,
                                      report)
        else:
            metrics = {
                # set-up is CPU-bound; the HTTP figures below are bound by
                # the server's timers at HEAD and stay as measured
                "setup_s": (statistics.median([t / f for t, f in setups]),
                            "s"),
                "ops_per_s": (len(requests) / wall, "1/s"),
                "tuned_speedup": (speedup, "x"),
                "latency_ms": (_p50_ms(requests, "recommend"), "ms"),
                "commit_ms": (_p50_ms(requests, "ingest"), "ms"),
                "peak_rss_mb": (peak_rss, "MB"),
            }
        return {"correct": not failures, "attempted": len(requests),
                "failed": len(bad), "metrics": metrics, "report": report}
    finally:
        for server in servers:
            server.kill()
        benchutil.remove_work_dir(scratch)


def _traced_metrics(folder: str, requests: List[Request],
                    health: Dict[str, Any], spans_path: Optional[str],
                    report: Dict[str, Any]) -> Dict[str, float]:
    untraced_s, _ = replay(folder, requests)
    recorder = SpanRecorder()
    traced_s, latencies = replay(folder, requests, recorder)
    times = recorder.times(traced_s)
    metrics = layer_metrics(times, recorder.counts)
    service_p50 = benchutil.percentile(latencies, 50) * 1000.0
    executor = health["executor"]
    ingest = health["ingest"]
    metrics.update({
        "kb.service.recommend_p50_ms": service_p50,
        "http.transport_p50_ms": _p50_ms(requests, "recommend") - service_p50,
        "kb.serving.avg_service_ms": executor["avg_service_ms"] or 0.0,
        "kb.serving.coalesced": executor["coalesced"],
        "kb.serving.ingest_batches": ingest["batches"],
        "kb.serving.ingest_max_batch": ingest["max_batch"],
        "kb.serving.commit_lag_ms": ingest["last_commit_lag_ms"],
        "trace.overhead": traced_s / untraced_s - 1.0,
    })
    if spans_path:
        recorder.dump(spans_path)
    report.update(replay_untraced_s=untraced_s, replay_traced_s=traced_s,
                  spans=len(recorder.spans), layer_self_s=times.by_layer(),
                  wrappers_left=recorder.installed)
    return metrics
