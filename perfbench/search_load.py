"""The two tuning-session workloads: ``model-search`` and ``population-search``.

Both run a fixed plan of sessions, one per (tuner, system) pair, the way
``python -m repro tune --save`` does: each session tunes through the
harness-style ``InstrumentedSystem`` (measurement noise, a shared
evaluation cache, vectorized batches) and its history is committed to a
file knowledge base.  The seed picks each session's workload scale and
its tuner and noise seeds; the program sees only those inputs.

A *pass* runs the whole plan once with a fresh evaluation cache, so
every pass does the same work.  The untraced run repeats passes until
``--seconds`` have been measured; each session's history digest must
repeat exactly, and each committed session must read back from the KB
with the same digest.
"""

from __future__ import annotations

import statistics
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import benchutil
from layers import install, layer_metrics
from spans import SpanRecorder

__all__ = ["SessionLoad", "run_search_workload", "TUNERS"]

TUNERS = {
    "model-search": ("bayesopt", "ituned", "nn-tuner", "ensemble"),
    "population-search": ("cem", "genetic", "random-search"),
}
SYSTEMS = ("dbms", "spark", "hadoop")

#: Real-run budget per session, by size.  ``full`` sizes a pass at a few
#: seconds on one core; ``tiny`` is for the benchmark's own tests.
BUDGETS = {
    "full": {"model-search": 20, "population-search": 1000},
    "tiny": {"model-search": 6, "population-search": 48},
}

#: Workload families per system: (generator name, scale range).  Session
#: slot ``t`` of a system uses family ``t mod len``, so every seed runs
#: the same family mix and only the scales (within 20% of the catalog
#: size) move.
FAMILIES = {
    "dbms": (("htap_mixed", 0.8, 1.2), ("olap_analytics", 0.8, 1.2),
             ("oltp_orders", 0.8, 1.2)),
    "spark": (("spark_sort", 6.4, 9.6), ("spark_sql_join", 4.8, 7.2),
              ("spark_kmeans", 3.2, 4.8)),
    "hadoop": (("terasort", 6.4, 9.6), ("wordcount", 6.4, 9.6),
               ("join", 6.4, 9.6)),
}


@dataclass(frozen=True)
class SessionSpec:
    tuner: str
    system: str
    family: str
    scale: float
    tuner_seed: int
    noise_seed: int
    budget: int


def make_plan(workload: str, seed: int, size: str) -> List[SessionSpec]:
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    budget = BUDGETS[size][workload]
    plan = []
    for t, tuner in enumerate(TUNERS[workload]):
        for system in SYSTEMS:
            family, low, high = FAMILIES[system][t % len(FAMILIES[system])]
            plan.append(SessionSpec(
                tuner=tuner, system=system, family=family,
                scale=round(float(rng.uniform(low, high)), 2),
                tuner_seed=int(rng.integers(1 << 31)),
                noise_seed=int(rng.integers(1 << 31)),
                budget=budget,
            ))
    return plan


@dataclass
class SessionRun:
    spec: SessionSpec
    result: Any
    session_id: int
    latency_s: float  # tune + commit
    commit_s: float
    speed: float = 1.0  # host speed factor around the session


class SessionLoad:
    """Set-up (systems, workloads, file KB) plus pass execution."""

    def __init__(self, workload: str, seed: int, size: str, kb_path: str):
        benchutil.use_repo_sources()
        from repro import workloads as catalog
        from repro.bench.harness import HARNESS_NOISE
        from repro.core.registry import make_system
        from repro.kb import KnowledgeBase

        self.noise = HARNESS_NOISE
        self.plan = make_plan(workload, seed, size)
        self.systems = {name: make_system(name) for name in SYSTEMS}
        self.workloads = [
            getattr(catalog, spec.family)(spec.scale) for spec in self.plan
        ]
        self.kb = KnowledgeBase(kb_path)

    def close(self) -> None:
        self.kb.close()

    def run_session(self, index: int, cache: Any) -> SessionRun:
        from repro.core.registry import make_tuner
        from repro.core.system import InstrumentedSystem
        from repro.core.tuner import Budget

        spec, workload = self.plan[index], self.workloads[index]
        system = self.systems[spec.system]
        start = time.perf_counter()
        wrapped = InstrumentedSystem(
            system, noise=self.noise,
            rng=np.random.default_rng(spec.noise_seed), eval_cache=cache,
        )
        result = make_tuner(spec.tuner).tune(
            wrapped, workload, Budget(max_runs=spec.budget),
            rng=np.random.default_rng(spec.tuner_seed),
        )
        committed = time.perf_counter()
        session_id = self.kb.ingest_result(
            system, workload, result, seed=spec.tuner_seed
        )
        end = time.perf_counter()
        return SessionRun(spec, result, session_id, end - start,
                          end - committed)

    def default_runtime(self, index: int) -> float:
        system = self.systems[self.plan[index].system]
        return system.run(
            self.workloads[index], system.default_configuration()
        ).runtime_s

    def readback_digest(self, run: SessionRun) -> str:
        space = self.systems[run.spec.system].config_space
        return self.kb.history(run.session_id, space).digest()


class PassLog:
    """What the checks and metrics need from the sessions of all passes."""

    def __init__(self, load: SessionLoad, gauge: benchutil.SpeedGauge):
        self.load = load
        self.gauge = gauge
        self.reference: Dict[int, str] = {}
        self.speedups: Dict[int, float] = {}
        # (latency, commit) per session: as measured, and per plan slot at
        # reference speed
        self.raw: List[Tuple[float, float]] = []
        self.scaled: Dict[int, List[Tuple[float, float]]] = {}
        self.wall_s = 0.0
        self.runs = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0

    def _fail(self, index: int, message: str) -> None:
        spec = self.load.plan[index]
        self.failures.append(
            f"session {index} ({spec.tuner} on {spec.system}): {message}"
        )

    def record(self, index: int, run: SessionRun, digest: str) -> None:
        """Account one finished session (outside any timed region)."""
        failures_before = len(self.failures)
        self.raw.append((run.latency_s, run.commit_s))
        self.scaled.setdefault(index, []).append(
            (run.latency_s / run.speed, run.commit_s / run.speed))
        self.wall_s += run.latency_s
        self.runs += run.result.n_real_runs
        reference = self.reference.setdefault(index, digest)
        if digest != reference:
            self._fail(index, "history digest differs from the first pass")
        if self.load.readback_digest(run) != digest:
            self._fail(index, "KB read-back digest differs from the session")
        speedup = self.load.default_runtime(index) / run.result.best_runtime_s
        if self.speedups.setdefault(index, speedup) != speedup:
            self._fail(index, "tuned speedup differs from the first pass")
        if len(self.failures) > failures_before:
            self.failed += 1

    def run_pass(self, recorder: Optional[SpanRecorder] = None
                 ) -> Tuple[float, float]:
        """One pass over the plan; returns its session seconds, as
        measured and at reference speed.

        With a recorder, wrappers are installed for the sessions only and
        the bookkeeping (digests, KB read-back) runs after they are
        removed, so the trace holds nothing but program work.
        """
        from repro.exec.cache import EvaluationCache

        cache = EvaluationCache()
        done: List[Tuple[int, SessionRun]] = []
        wall = scaled = 0.0
        if recorder is not None:
            install(recorder)
        try:
            for index in range(len(self.load.plan)):
                self.attempted += 1
                try:
                    run, speed = self.gauge.around(
                        lambda: self.load.run_session(index, cache)
                    )
                    run.speed = speed
                except Exception:  # noqa: BLE001 — report, keep measuring
                    self.failed += 1
                    self._fail(index, "raised\n" + traceback.format_exc())
                    continue
                wall += run.latency_s
                scaled += run.latency_s / run.speed
                if recorder is None:
                    self.record(index, run, run.result.history.digest())
                else:
                    done.append((index, run))
        finally:
            if recorder is not None:
                recorder.restore()
        for index, run in done:
            self.record(index, run, run.result.history.digest())
        return wall, scaled


def _typical_ms(log: PassLog, column: int) -> float:
    """Geometric mean over the plan's sessions of each one's median over
    passes, at reference speed.

    The plan mixes session types whose latencies differ by 2x; a plain
    median of all sessions would jump from one type to another between
    runs, while this counts every session of the plan once.
    """
    return benchutil.geomean([
        statistics.median(times[column] for times in per_pass)
        for per_pass in log.scaled.values()
    ]) * 1e3


def _summary(log: PassLog) -> Dict[str, Any]:
    return {
        "sessions": {"attempted": log.attempted,
                     "succeeded": log.attempted - log.failed,
                     "failed": log.failed},
        "runs": log.runs,
        "session_latency": benchutil.latency_summary(
            [latency for latency, _ in log.raw]),
        "commit_latency": benchutil.latency_summary(
            [commit for _, commit in log.raw]),
        "failures": log.failures[:10],
    }


def run_search_workload(workload: str, seed: int, seconds: float,
                        trace: bool, size: str = "full",
                        spans_path: Optional[str] = None) -> Dict[str, Any]:
    """One benchmark run; returns the result object and a report."""
    scratch = benchutil.work_dir(workload)
    gauge = benchutil.SpeedGauge()
    try:
        setups = [
            gauge.around(lambda: benchutil.timed_setup_probe(
                workload, seed, size, f"{scratch}/probe{i}"
            ))
            for i in range(0 if trace else benchutil.SETUP_REPEATS)
        ]
        load = SessionLoad(workload, seed, size, f"{scratch}/kb.sqlite")
        try:
            log = PassLog(load, gauge)
            if trace:
                return _traced(log, spans_path)
            return _untraced(log, seconds, setups)
        finally:
            load.close()
    finally:
        benchutil.remove_work_dir(scratch)


def _untraced(log: PassLog, seconds: float,
              setups: List[Tuple[float, float]]) -> Dict[str, Any]:
    passes = 0
    while passes < 2 or log.wall_s < seconds:
        log.run_pass()
        passes += 1
    scaled_wall = sum(latency for per_pass in log.scaled.values()
                      for latency, _ in per_pass)
    raw = {
        "setup_s": statistics.median([t for t, _ in setups]),
        "runs_per_s": log.runs / log.wall_s,
        "session_p50_ms": benchutil.percentile(
            [latency for latency, _ in log.raw], 50) * 1e3,
        "commit_p50_ms": benchutil.percentile(
            [commit for _, commit in log.raw], 50) * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median([t / f for t, f in setups]), "s"),
        "ops_per_s": (log.runs / scaled_wall, "1/s"),
        "tuned_speedup": (benchutil.geomean(list(log.speedups.values())), "x"),
        "latency_ms": (_typical_ms(log, 0), "ms"),
        "commit_ms": (_typical_ms(log, 1), "ms"),
        "peak_rss_mb": (benchutil.self_peak_rss_mb(), "MB"),
    }
    report = _summary(log)
    report.update(passes=passes, setup_samples_s=[t for t, _ in setups],
                  speed_factor=log.gauge.mean_factor(), raw=raw)
    return {"correct": not log.failures, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics,
            "report": report}


def _traced(log: PassLog, spans_path: Optional[str]) -> Dict[str, Any]:
    log.run_pass()  # warm-up; its digests are the reference
    _, untraced_s = log.run_pass()
    recorder = SpanRecorder()
    traced_wall_s, traced_s = log.run_pass(recorder)
    times = recorder.times(traced_wall_s)
    metrics = layer_metrics(times, recorder.counts)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    if spans_path:
        recorder.dump(spans_path)
    report = _summary(log)
    report.update(
        untraced_pass_s=untraced_s, traced_pass_s=traced_s,
        spans=len(recorder.spans),
        layer_self_s=times.by_layer(),
        wrappers_left=recorder.installed,
    )
    if recorder.installed:
        log.failures.append("wrappers were not all restored")
    return {"correct": not log.failures, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics,
            "report": report}


def setup_probe(workload: str, seed: int, size: str, out_dir: str) -> None:
    """The set-up a fresh process does before its first session."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    SessionLoad(workload, seed, size, f"{out_dir}/kb.sqlite").close()
