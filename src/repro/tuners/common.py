"""Shared helpers for tuner implementations."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.measurement import Measurement, TuningHistory
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.pool import CandidatePool, jitter_pool
from repro.core.session import TuningSession

__all__ = [
    "FAILURE_PENALTY_FACTOR",
    "failure_response",
    "penalized_runtime",
    "history_to_training_data",
    "candidate_pool",
    "evaluate_prior_seeds",
    "ResponseReplay",
]

#: Failed runs enter surrogate models at this multiple of the worst
#: successful runtime, steering search away from the failure region
#: without destroying the model's scale.
FAILURE_PENALTY_FACTOR = 3.0


def _finite_successes(history: TuningHistory) -> List[float]:
    return [
        o.runtime_s for o in history.successful()
        if math.isfinite(o.runtime_s)
    ]


def failure_response(history: TuningHistory, policy: str = "penalize") -> Optional[float]:
    """The training-data value standing in for one failed run.

    ``penalize`` maps failures to a large finite penalty (the
    historical behaviour), ``impute`` to the median successful runtime
    (failures carry no slowness signal, only infeasibility), and
    ``discard`` to ``None`` — the caller drops the row entirely.
    """
    if policy == "discard":
        return None
    successes = _finite_successes(history)
    if policy == "impute":
        return float(np.median(successes)) if successes else 100.0
    worst = max(successes, default=100.0)
    return worst * FAILURE_PENALTY_FACTOR


def penalized_runtime(measurement: Measurement, history: TuningHistory) -> float:
    """Runtime for model fitting: failures map to a large finite penalty.

    Hung runs (successful, infinite runtime) are treated as failures —
    an unbounded observation would destroy any surrogate's scale.
    """
    if measurement.ok and math.isfinite(measurement.runtime_s):
        return measurement.runtime_s
    return failure_response(history, "penalize")


def history_to_training_data(
    session: TuningSession,
    include_prior: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """All real observations as (X, y), failures handled per policy.

    The session's :attr:`~repro.core.session.TuningSession
    .failure_policy` (``penalize`` / ``discard`` / ``impute``) decides
    how failed or hung runs enter the training set — tuners opt in by
    being constructed with a ``failure_policy`` or tuned under an
    explicit :class:`~repro.exec.resilience.ExecutionPolicy`.

    With ``include_prior`` (warm-started tuners), the session's
    transfer-prior pseudo-observations are stacked *before* the real
    rows — runtimes already scaled to this workload's probe anchor by
    :func:`repro.kb.warmstart.warm_start_prior`.  Real observations of
    the same configuration naturally dominate the surrogate as they
    accumulate.

    Returns empty arrays when nothing usable was observed yet.
    """
    policy = getattr(session, "failure_policy", "penalize")
    rows: List[Tuple[Configuration, float]] = []
    for o in session.history.real_observations():
        if not o.full_fidelity:
            # Low-fidelity screens measure a scaled approximation;
            # mixing their runtimes (or failure penalties derived from
            # them) into full-scale training data would corrupt every
            # surrogate's response surface.
            continue
        if o.ok and math.isfinite(o.runtime_s):
            rows.append((o.config, o.runtime_s))
            continue
        response = failure_response(session.history, policy)
        if response is not None:
            rows.append((o.config, response))
    prior_X, prior_y = (
        session.prior_training_data() if include_prior
        else (np.zeros((0, session.space.dimension)), np.zeros(0))
    )
    if not rows:
        return prior_X, prior_y
    X = np.stack([config.to_array() for config, _ in rows])
    y = np.array([runtime for _, runtime in rows])
    if len(prior_y):
        X = np.vstack([prior_X, X])
        y = np.concatenate([prior_y, y])
    return X, y


def evaluate_prior_seeds(
    session: TuningSession, k: int = 3, reserve: int = 1
) -> int:
    """Evaluate the transfer prior's top configurations, if any.

    The universal warm-start opening move: instead of burning the whole
    init budget on random/space-filling samples, spend up to ``k`` runs
    on configurations that won similar past sessions.  Keeps at least
    ``reserve`` runs of budget untouched for the search proper.

    Returns the number of seed runs actually executed (0 when the
    session has no prior — cold-start behaviour is unchanged).
    """
    if session.prior is None:
        return 0
    evaluated = 0
    for i, config in enumerate(session.prior_best_configs(k=k)):
        if session.remaining_runs <= reserve:
            break
        if session.evaluate_if_budget(config, tag=f"prior-{i}") is None:
            break
        evaluated += 1
    return evaluated


class ResponseReplay:
    """Incremental failure-policy scoring for ask/tell strategies.

    :func:`failure_response` computes a failure's stand-in value from
    the successes observed *so far* — which means batch results must be
    scored one at a time, in execution order, to reproduce what a
    serial loop would have seen.  Strategies feed every told
    observation through :meth:`account` and use the returned response
    as the training/selection value.

    Args:
        policy: one of ``penalize`` / ``discard`` / ``impute``.
    """

    def __init__(self, policy: str = "penalize"):
        self.policy = policy
        self._successes: List[float] = []

    def account(self, observation) -> Optional[float]:
        """Score one observation; ``None`` means "drop this row".

        Successful finite runtimes are returned as-is and join the
        success pool; failures (and hung runs) are mapped per the
        policy against the successes accounted so far.
        """
        measurement = observation.measurement
        if measurement.ok and math.isfinite(measurement.runtime_s):
            self._successes.append(measurement.runtime_s)
            return measurement.runtime_s
        if self.policy == "discard":
            return None
        if self.policy == "impute":
            return (
                float(np.median(self._successes))
                if self._successes
                else 100.0
            )
        return max(self._successes, default=100.0) * FAILURE_PENALTY_FACTOR


def candidate_pool(
    space: ConfigurationSpace,
    rng: np.random.Generator,
    n_random: int = 256,
    anchors: Optional[List[Configuration]] = None,
    jitter: float = 0.08,
) -> CandidatePool:
    """Random candidates plus local perturbations of anchor configs.

    The mix lets acquisition optimizers both explore globally and refine
    around incumbents; infeasible decodes are repaired toward feasible
    neighbors.  Acquisition functions score the pool's unit matrix
    ``X``; indexing the pool builds the proposed configuration.
    """
    pool = space.sample_pool(n_random, rng)
    if not anchors:
        return pool
    return pool.extend(jitter_pool(space, anchors, rng, jitter, repeats=16))
