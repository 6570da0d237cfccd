"""The system-under-tune interface and instrumentation wrappers.

Every simulator (DBMS, Hadoop, Spark) implements
:class:`SystemUnderTune`: it owns a knob catalog (a
:class:`~repro.core.parameters.ConfigurationSpace`) and can execute a
workload under a configuration, returning a
:class:`~repro.core.measurement.Measurement`.

:class:`InstrumentedSystem` wraps any system to count real runs, cache
repeat measurements, and inject measurement noise — the layer tuning
sessions talk to.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.workload import Workload
from repro.exceptions import WorkloadError
from repro.exec.cache import Unfingerprintable

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.cache import EvaluationCache
    from repro.exec.runner import ParallelRunner

__all__ = ["SystemUnderTune", "InstrumentedSystem", "SubspaceSystem"]


class SystemUnderTune(ABC):
    """A configurable system whose performance we tune.

    Attributes:
        name: report label, e.g., ``"dbms-sim"``.
        kind: workload family accepted, e.g., ``"dbms"``.
    """

    name: str = "system"
    kind: str = ""

    @property
    @abstractmethod
    def config_space(self) -> ConfigurationSpace:
        """The system's knob catalog."""

    @abstractmethod
    def run(self, workload: Workload, config: Configuration) -> Measurement:
        """Execute ``workload`` under ``config`` and measure it.

        Implementations must be deterministic: noise is injected by
        :class:`InstrumentedSystem`, not by simulators, so that model
        components (what-if engines) can reuse simulators noiselessly.
        """

    @property
    def metric_names(self) -> List[str]:
        """Stable, ordered names of the metrics run() reports."""
        return []

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Execute several independent configurations of one workload.

        The base implementation is a serial loop; wrappers that can
        execute concurrently (:class:`InstrumentedSystem` with a
        runner) override it.  Results are always in ``configs`` order.
        """
        return [self.run(workload, config) for config in configs]

    def supports_vectorized(self) -> bool:
        """Whether this system offers a ``run_batch_vectorized`` fast path.

        The capability protocol is structural: a system that defines
        ``run_batch_vectorized(workload, configs) -> List[Measurement]``
        (promising bit-identical results to a serial ``run()`` loop)
        advertises it here.  Wrappers forward their inner system's
        answer; wrappers that perturb execution (chaos injection) simply
        don't define the method and stay on the scalar path.
        """
        return callable(getattr(self, "run_batch_vectorized", None))

    def execution_context(self) -> Tuple[str, ...]:
        """Extra facts that change what a ``run()`` measures.

        Wrappers that alter measurements without changing the inner
        system's state — e.g., a fidelity view scaling the cost surface
        — surface that here so evaluation-cache keys can never collide
        across contexts.  The base system has none.
        """
        return ()

    def default_configuration(self) -> Configuration:
        return self.config_space.default_configuration()

    def check_workload(self, workload: Workload) -> None:
        if self.kind and workload.system_kind != self.kind:
            raise WorkloadError(
                f"{self.name} runs {self.kind!r} workloads, got "
                f"{workload.system_kind!r} ({workload.name})"
            )


class InstrumentedSystem(SystemUnderTune):
    """Counting/caching/noise wrapper around a real simulator.

    Args:
        inner: the wrapped system.
        noise: relative standard deviation of multiplicative measurement
            noise (0 disables).  Real clusters show run-to-run variance;
            tuners that assume noiseless observations (pure grid search)
            degrade accordingly, which Table 1 experiments rely on.
        cache: return cached measurements for repeated (workload,
            config) pairs without charging a run.  Off by default: real
            experiment-driven tuning repeats runs to average out noise.
        rng: noise source; required when ``noise > 0``.
        eval_cache: cross-session memoization of the *inner*
            (deterministic, noise-free) measurement.  Unlike ``cache``,
            a hit still counts as a run and still draws noise, so
            results are byte-identical to a cold execution — only
            wall-clock changes.
        runner: when set, :meth:`run_batch` computes inner measurements
            for a batch concurrently (noise is applied sequentially in
            batch order afterwards, preserving determinism).
        vectorize: prefer the inner system's ``run_batch_vectorized``
            fast path for batches when it offers one.  ``None`` (the
            default) consults the ``REPRO_VECTORIZE`` environment
            variable (on unless set to ``"0"``).  Vectorized inner
            results are bit-identical to serial ones, so this only
            changes wall-clock, never measurements.
    """

    def __init__(
        self,
        inner: SystemUnderTune,
        noise: float = 0.0,
        cache: bool = False,
        rng: Optional[np.random.Generator] = None,
        eval_cache: Optional["EvaluationCache"] = None,
        runner: Optional["ParallelRunner"] = None,
        vectorize: Optional[bool] = None,
    ):
        if noise < 0:
            raise ValueError("noise must be >= 0")
        if noise > 0 and rng is None:
            rng = np.random.default_rng(0)
        self.inner = inner
        self.noise = noise
        self.cache_enabled = cache
        self.rng = rng
        self.eval_cache = eval_cache
        self.runner = runner
        if vectorize is None:
            vectorize = os.environ.get("REPRO_VECTORIZE", "1") != "0"
        self.vectorize = bool(vectorize)
        self.name = inner.name
        self.kind = inner.kind
        self.run_count = 0
        self.failure_count = 0
        self.total_measured_s = 0.0
        self._cache: Dict[Tuple[str, Configuration], Measurement] = {}
        self._prefetched: Dict[Tuple[str, Configuration], Measurement] = {}

    @property
    def config_space(self) -> ConfigurationSpace:
        return self.inner.config_space

    @property
    def metric_names(self) -> List[str]:
        return self.inner.metric_names

    def execution_context(self) -> Tuple[str, ...]:
        return self.inner.execution_context()

    def _inner_run(self, workload: Workload, config: Configuration) -> Measurement:
        """The deterministic inner measurement, via caches when possible."""
        prefetched = self._prefetched.pop((workload.name, config), None)
        if prefetched is not None:
            return prefetched
        if self.eval_cache is not None:
            return self.eval_cache.run(self.inner, workload, config)
        return self.inner.run(workload, config)

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        key = (workload.name, config)
        if self.cache_enabled and key in self._cache:
            return self._cache[key]
        measurement = self._inner_run(workload, config)
        if self.noise > 0 and measurement.ok:
            factor = float(
                np.exp(self.rng.normal(loc=0.0, scale=self.noise))
            )
            measurement = Measurement(
                runtime_s=measurement.runtime_s * factor,
                metrics=measurement.metrics,
                failed=False,
                cost_units=measurement.cost_units,
            )
        self.run_count += 1
        if measurement.failed:
            self.failure_count += 1
        elif not math.isinf(measurement.runtime_s):
            self.total_measured_s += measurement.runtime_s
        if self.cache_enabled:
            self._cache[key] = measurement
        return measurement

    def supports_vectorized(self) -> bool:
        return self.vectorize and self.inner.supports_vectorized()

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Batch execution: bulk inner runs, deterministic results.

        The deterministic inner measurements of configurations not yet
        cached are computed in bulk — preferably by the inner system's
        vectorized kernel (one numpy computation for the whole batch),
        otherwise concurrently through the runner (simulators never see
        noise, so completion order cannot matter).  The noise/counting
        pipeline then replays sequentially in ``configs`` order, drawing
        from the RNG exactly as a serial loop would, so noisy results,
        counters, and cache hit/miss accounting are identical across the
        serial, parallel, and vectorized paths.
        """
        configs = list(configs)
        use_vec = len(configs) > 1 and self.supports_vectorized()
        if use_vec or (
            self.runner is not None
            and self.runner.effective_jobs > 1
            and len(configs) > 1
        ):
            pending: List[Configuration] = []
            keys: List[Tuple[str, ...]] = []  # each pending's eval-cache key
            seen = set()
            for config in configs:
                key = (workload.name, config)
                if key in seen or key in self._prefetched:
                    continue
                if self.cache_enabled and key in self._cache:
                    continue
                if self.eval_cache is not None:
                    # Probe through lookup(), not a bare membership
                    # check: the batch *will* consume these values, so
                    # hit/miss stats and LRU recency must advance
                    # exactly as the serial loop's reads would.
                    try:
                        cache_key = self.eval_cache.key_for(
                            self.inner, workload, config
                        )
                    except Unfingerprintable:
                        # Uncacheable system or workload: run() executes
                        # each configuration itself, uncached.
                        pending = []
                        break
                    cached = self.eval_cache.lookup(cache_key)
                    if cached is not None:
                        self._prefetched[key] = cached
                        continue
                    keys.append(cache_key)
                seen.add(key)
                pending.append(config)
            if pending:
                if use_vec:
                    measurements = self.inner.run_batch_vectorized(
                        workload, pending
                    )
                else:
                    measurements = self.runner.starmap(
                        _inner_run_task,
                        [(self.inner, workload, c) for c in pending],
                    )
                for config, measurement in zip(pending, measurements):
                    # Hand the value to run() via _prefetched (its miss
                    # was already counted by the probe) and store it
                    # under the probe's key for future batches' real hits.
                    self._prefetched[(workload.name, config)] = measurement
                for cache_key, measurement in zip(keys, measurements):
                    self.eval_cache.store(cache_key, measurement)
        return [self.run(workload, config) for config in configs]

    def reset_counters(self) -> None:
        self.run_count = 0
        self.failure_count = 0
        self.total_measured_s = 0.0
        self._cache.clear()
        self._prefetched.clear()


def _inner_run_task(
    system: SystemUnderTune, workload: Workload, config: Configuration
) -> Measurement:
    """Top-level (hence picklable) worker task for batched inner runs."""
    return system.run(workload, config)


class SubspaceSystem(SystemUnderTune):
    """Expose only a subset of a system's knobs to tuners.

    Tuners see the reduced space (e.g., the navigated top-k knobs);
    every run expands the partial configuration with the inner system's
    defaults.  This is how "ranking the effects of parameters" feeds
    back into tuning: the search contracts to the knobs that matter.
    """

    def __init__(self, inner: SystemUnderTune, knob_names, space=None):
        """Args:
            inner: the full system.
            knob_names: knobs to expose (ignored when ``space`` given).
            space: an explicit reduced space — e.g., a *screening* space
                with conservative, DBA-chosen bounds.  Every value it
                produces must be valid for the inner catalog.
        """
        self.inner = inner
        self.kind = inner.kind
        if space is not None:
            self._space = space
        else:
            names = [n for n in knob_names if n in inner.config_space]
            if not names:
                raise ValueError("subspace must keep at least one knob")
            self._space = inner.config_space.subspace(
                names, name=f"{inner.config_space.name}.sub"
            )
        self.name = f"{inner.name}[{len(self._space)} knobs]"
        self._full_defaults = inner.default_configuration().to_dict()

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    @property
    def metric_names(self) -> List[str]:
        return self.inner.metric_names

    def execution_context(self) -> Tuple[str, ...]:
        return self.inner.execution_context()

    def expand(self, config: Configuration) -> Configuration:
        values = dict(self._full_defaults)
        values.update(config.to_dict())
        return self.inner.config_space.configuration(values)

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        return self.inner.run(workload, self.expand(config))

    def supports_vectorized(self) -> bool:
        return self.inner.supports_vectorized()

    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        self.check_workload(workload)
        return self.inner.run_batch_vectorized(
            workload, [self.expand(c) for c in configs]
        )
