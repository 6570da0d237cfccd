"""Which program functions belong to which layer, and the per-layer metrics.

Layer names follow the package layout of ``src/repro``.  Every wrapped
function is a public entry point of its layer; the recorder times each
call as a span and :class:`spans.LayerTimes` turns the spans into self
time per layer and operation.  ``Parameter.validate`` is only counted,
never timed: it runs about a million times per model-based pass, and a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Dict, Iterator

from spans import LayerTimes, SpanRecorder

__all__ = ["install", "layer_metrics", "PER_LAYER_UNITS"]

#: Every per-layer metric the traced run reports, with its unit.  A layer
#: a workload does not exercise reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "tuners.ask_s": "s",
    "tuners.ask_calls": "count",
    "tuners.tell_s": "s",
    "mlkit.fit_s": "s",
    "mlkit.fit_calls": "count",
    "mlkit.predict_s": "s",
    "core.parameters.sample_s": "s",
    "core.parameters.encode_s": "s",
    "core.parameters.decode_s": "s",
    "core.parameters.configs_built": "count",
    "core.parameters.validate_calls": "count",
    "core.session.self_s": "s",
    "core.session.evaluations": "count",
    "systems.eval_s": "s",
    "systems.scalar_runs": "count",
    "systems.vectorized_batches": "count",
    "systems.mean_batch": "count",
    "exec.cache.key_s": "s",
    "exec.cache.lookups": "count",
    "exec.cache.hit_ratio": "ratio",
    "kb.store.ingest_s": "s",
    "kb.store.rows_per_s": "1/s",
    "kb.service.recommend_p50_ms": "ms",
    "http.transport_p50_ms": "ms",
    "kb.serving.avg_service_ms": "ms",
    "kb.serving.coalesced": "count",
    "kb.serving.ingest_batches": "count",
    "kb.serving.ingest_max_batch": "count",
    "kb.serving.commit_lag_ms": "ms",
    "surrogate.train_s": "s",
    "surrogate.trains": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

_MLKIT_MODULES = (
    "acquisition", "cluster", "ensemble", "factor", "gp", "linear",
    "neural", "sampling", "scaler", "tree",
)
_MLKIT_OPS = {
    "fit": "fit", "fit_transform": "fit",
    "predict": "predict", "predict_std": "predict",
    "predict_scalar": "predict",
}


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _add(key: str):
    def on_return(counts, args, kwargs, result):
        counts[key] += 1
    return on_return


def _count_batch(counts, args, kwargs, result):
    counts["core.session.evaluations"] += len(result)


def _count_vectorized(counts, args, kwargs, result):
    counts["systems.vectorized_batches"] += 1
    counts["systems.vectorized_configs"] += len(result)


def _count_lookup(counts, args, kwargs, result):
    counts["exec.cache.lookups"] += 1
    if result is not None:
        counts["exec.cache.hits"] += 1


def _history_rows(payload) -> int:
    return len(payload["history"]["observations"])


def _count_ingest_one(counts, args, kwargs, result):
    counts["kb.store.rows"] += _history_rows(args[1])


def _count_ingest_many(counts, args, kwargs, result):
    for payload, outcome in zip(args[1], result):
        if isinstance(outcome, int):
            counts["kb.store.rows"] += _history_rows(payload)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point; ``rec.restore()`` undoes it all."""
    import repro.tuners  # noqa: F401 — registers every strategy class
    from repro.core.driver import SearchTuner
    from repro.core.parameters import (
        Configuration, ConfigurationSpace, Parameter,
    )
    from repro.core.session import TuningSession
    from repro.core.system import SystemUnderTune
    from repro.exec.cache import EvaluationCache
    from repro.kb.service import RecommendationService
    from repro.kb.store import KnowledgeBase
    from repro.surrogate import trainer

    for cls in _subclasses(SearchTuner):
        for name in ("ask", "tell"):
            rec.wrap_method(cls, name, "tuners", name)
        for name in ("setup", "finish", "recommend", "wants_prior_seeds"):
            rec.wrap_method(cls, name, "tuners", "other")

    for short in _MLKIT_MODULES:
        module = importlib.import_module(f"repro.mlkit.{short}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for name, op in _MLKIT_OPS.items():
                    rec.wrap_method(obj, name, "mlkit", op)
            elif inspect.isfunction(obj) and not obj.__name__.startswith("_"):
                if short in ("acquisition", "sampling"):
                    rec.wrap_function(obj, "mlkit", "other")

    layer = "core.parameters"
    for name in ("sample_configuration", "sample_configurations"):
        rec.wrap_method(ConfigurationSpace, name, layer, "sample")
    rec.wrap_method(ConfigurationSpace, "to_array", layer, "encode")
    rec.wrap_method(Configuration, "to_array", layer, "encode")
    for name in ("from_array", "from_array_feasible", "configuration",
                 "partial", "default_configuration"):
        rec.wrap_method(ConfigurationSpace, name, layer, "decode")
    rec.wrap_method(Configuration, "replace", layer, "decode")
    rec.wrap_method(Configuration, "__init__", layer, "decode",
                    _add("core.parameters.configs_built"))
    for cls in _subclasses(Parameter):
        rec.count_method(cls, "validate", "core.parameters.validate_calls")

    layer = "core.session"
    rec.wrap_method(TuningSession, "evaluate", layer, "evaluate",
                    _add("core.session.evaluations"))
    rec.wrap_method(TuningSession, "evaluate_batch", layer, "evaluate",
                    _count_batch)
    for name in ("__init__", "predict", "record_external",
                 "evaluate_workload"):
        rec.wrap_method(TuningSession, name, layer, "other")

    for cls in _subclasses(SystemUnderTune):
        simulator = cls.__module__.startswith("repro.systems.")
        rec.wrap_method(cls, "run", "systems", "run",
                        _add("systems.scalar_runs") if simulator else None)
        rec.wrap_method(cls, "run_batch", "systems", "run")
        rec.wrap_method(cls, "run_batch_vectorized", "systems", "run",
                        _count_vectorized if simulator else None)

    rec.wrap_method(EvaluationCache, "key_for", "exec.cache", "key")
    rec.wrap_method(EvaluationCache, "lookup", "exec.cache", "lookup",
                    _count_lookup)
    for name in ("run", "store", "peek"):
        rec.wrap_method(EvaluationCache, name, "exec.cache", "other")

    for name in ("ingest_result", "session_payload", "ingest_history"):
        rec.wrap_method(KnowledgeBase, name, "kb.store", "ingest")
    rec.wrap_method(KnowledgeBase, "ingest_payload", "kb.store", "ingest",
                    _count_ingest_one)
    rec.wrap_method(KnowledgeBase, "ingest_many", "kb.store", "ingest",
                    _count_ingest_many)
    for name in ("history", "sessions", "version", "summary"):
        rec.wrap_method(KnowledgeBase, name, "kb.store", "read")

    rec.wrap_method(RecommendationService, "recommend", "kb.service",
                    "recommend")
    rec.wrap_method(RecommendationService, "ingest", "kb.service", "ingest")
    rec.wrap_function(trainer.train_surrogate, "surrogate", "train")


def layer_metrics(times: LayerTimes, counts) -> Dict[str, float]:
    """The per-layer metrics that spans and counters can give.

    Serving metrics (``kb.service.*``, ``http.*``, ``kb.serving.*``) and
    ``trace.overhead`` need more than one run's spans; the workload that
    measures them fills them in, every other workload reports 0.
    """
    ingest_s = times.op_s("kb.store", "ingest")
    batches = counts["systems.vectorized_batches"]
    lookups = counts["exec.cache.lookups"]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({
        "tuners.ask_s": times.op_s("tuners", "ask"),
        "tuners.ask_calls": times.op_calls("tuners", "ask"),
        "tuners.tell_s": times.op_s("tuners", "tell"),
        "mlkit.fit_s": times.op_s("mlkit", "fit"),
        "mlkit.fit_calls": times.op_calls("mlkit", "fit"),
        "mlkit.predict_s": times.op_s("mlkit", "predict"),
        "core.parameters.sample_s": times.op_s("core.parameters", "sample"),
        "core.parameters.encode_s": times.op_s("core.parameters", "encode"),
        "core.parameters.decode_s": times.op_s("core.parameters", "decode"),
        "core.parameters.configs_built":
            counts["core.parameters.configs_built"],
        "core.parameters.validate_calls":
            counts["core.parameters.validate_calls"],
        "core.session.self_s": times.layer_s("core.session"),
        "core.session.evaluations": counts["core.session.evaluations"],
        "systems.eval_s": times.layer_s("systems"),
        "systems.scalar_runs": counts["systems.scalar_runs"],
        "systems.vectorized_batches": batches,
        "systems.mean_batch": (
            counts["systems.vectorized_configs"] / batches if batches else 0.0
        ),
        "exec.cache.key_s": times.op_s("exec.cache", "key"),
        "exec.cache.lookups": lookups,
        "exec.cache.hit_ratio": (
            counts["exec.cache.hits"] / lookups if lookups else 0.0
        ),
        "kb.store.ingest_s": ingest_s,
        "kb.store.rows_per_s": (
            counts["kb.store.rows"] / ingest_s if ingest_s > 0 else 0.0
        ),
        # whole training calls: the model fits they drive are mlkit's
        # self time, which would leave the surrogate layer near zero
        "surrogate.train_s": times.total_s[("surrogate", "train")],
        "surrogate.trains": times.op_calls("surrogate", "train"),
        "trace.coverage": times.coverage,
    })
    return metrics
