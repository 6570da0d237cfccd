"""Zero-probe recommendation by re-ranking a family's observed support.

The candidate set is deliberately conservative: the deduplicated,
crash-vetoed configurations the family's stored sessions actually
survived, plus opt-in Gaussian local refinements around the model's
favourite support rows (jitter only on the top-k important knobs —
off by default because it serves configurations no session has
actually survived).  The surrogate
re-ranks that set for the *target* fingerprint — free optimization over
the whole space is the tuners' job; measured on the benchmark matrix it
let the model's tail errors pick configurations that crashed outright.
Every candidate is snapped to a real, constraint-feasible configuration
*before* scoring, and all candidates are scored in one vectorized model
call per stage.

Confidence gating: the model's posterior std in log-ratio space is a
relative uncertainty, so a single threshold works across workloads of
any scale.  Callers fall back to the similarity path when the gate
fails; a surrogate must never be confidently wrong about an untested
region.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.parameters import Configuration, ConfigurationSpace
from repro.exceptions import ValidationError
from repro.kb.fingerprint import WorkloadFingerprint
from repro.kb.warmstart import PriorObservation
from repro.obs.metrics import global_metrics
from repro.surrogate.trainer import TrainedSurrogate

__all__ = [
    "SurrogateRecommendation",
    "rank_configs",
    "recommend_config",
    "surrogate_prior",
    "DEFAULT_CONFIDENCE",
]

#: Maximum relative posterior std for a recommendation to count as
#: confident.  Calibrated on the bench-surrogate matrix: committee
#: spread at served KB-hit picks measured ≈0.14–0.57 in log space,
#: while starved or off-support queries push past it.  (Forest ensemble
#: spread is structurally conservative — it sits near the response
#: surface's noise level even at well-covered points — so a tight
#: GP-style bar like 0.25 would reject almost every healthy serve.)
DEFAULT_CONFIDENCE = 0.6


@dataclass(frozen=True)
class SurrogateRecommendation:
    """One zero-probe recommendation with its provenance."""

    values: Dict[str, Any]
    predicted_ratio: float
    predicted_runtime_s: Optional[float]
    relative_std: Optional[float]
    confident: bool
    model_kind: str
    family: str
    n_candidates: int
    top_knobs: Tuple[str, ...]

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (service responses, CLI output)."""
        return {
            "values": dict(self.values),
            "predicted_ratio": round(self.predicted_ratio, 6),
            "predicted_runtime_s": (
                None
                if self.predicted_runtime_s is None
                else round(self.predicted_runtime_s, 6)
            ),
            "relative_std": (
                None
                if self.relative_std is None
                else round(self.relative_std, 6)
            ),
            "confident": self.confident,
            "model_kind": self.model_kind,
            "family": self.family,
            "n_candidates": self.n_candidates,
            "top_knobs": list(self.top_knobs),
        }


def _seed_for(trained: TrainedSurrogate, seed: int) -> int:
    """Deterministic per-(system, family, kb-version) search seed."""
    key = f"{trained.system_kind}|{trained.family}|{trained.kb_version}|{seed}"
    return zlib.crc32(key.encode())


def _snap(
    space: ConfigurationSpace,
    unit_rows: np.ndarray,
    seen: set,
) -> List[Configuration]:
    """Decode unit vectors to feasible configs, deduplicated via ``seen``."""
    configs: List[Configuration] = []
    for row in unit_rows:
        try:
            config = space.from_array(np.clip(row, 0.0, 1.0))
        except ValidationError:  # infeasible row (ConstraintViolation too)
            continue
        key = config.to_array().tobytes()
        if key in seen:
            continue
        seen.add(key)
        configs.append(config)
    return configs


@dataclass(frozen=True)
class _SnappedSupport:
    """A surrogate's observed support snapped against one space object.

    The request-independent half of :func:`rank_configs`, memoized on
    the :class:`TrainedSurrogate` (``support_memo``) for the space
    object and the constraint list it was built from.
    """

    space: ConfigurationSpace
    constraints: Tuple[Any, ...]
    configs: Tuple[Configuration, ...]
    X: np.ndarray  # read-only, one unit row per config
    seen: frozenset  # ``to_array().tobytes()`` of every config


def _snapped_support(
    trained: TrainedSurrogate, space: ConfigurationSpace
) -> _SnappedSupport:
    """The trained surrogate's support snapped to ``space``, decoded once.

    A retrain builds a new :class:`TrainedSurrogate` and so starts with
    no memo; the memo is never serialized.  Two threads that miss at
    once both build it and store equal results, so no lock is needed.
    """
    memo = trained.support_memo
    constraints = tuple(space.constraints())
    if (
        memo is not None
        and memo.space is space
        and memo.constraints == constraints
    ):
        global_metrics().inc("surrogate.support_memo.hit")
        return memo
    global_metrics().inc("surrogate.support_memo.miss")
    seen: set = set()
    configs = _snap(
        space, np.asarray(trained.support_units, dtype=float), seen
    )
    X = (
        np.stack([c.to_array() for c in configs])
        if configs
        else np.empty((0, len(space)))
    )
    X.setflags(write=False)
    memo = _SnappedSupport(
        space=space,
        constraints=constraints,
        configs=tuple(configs),
        X=X,
        seen=frozenset(seen),
    )
    trained.support_memo = memo
    return memo


def rank_configs(
    trained: TrainedSurrogate,
    space: ConfigurationSpace,
    fingerprint: WorkloadFingerprint,
    n_seeds: int = 8,
    n_local: int = 0,
    local_scale: float = 0.07,
    seed: int = 0,
) -> List[Tuple[Configuration, float, Optional[float]]]:
    """Candidate configurations ordered by predicted log runtime ratio.

    Stage 1 scores the stored observed support; with ``n_local > 0``, a
    stage 2 adds Gaussian refinements (on the pruned knobs only) around
    the ``n_seeds`` best predicted support rows.  Refinement is opt-in:
    jittered candidates leave the measured support, and on the
    benchmark matrix that let confident tail errors cross feasibility
    cliffs and serve crashing configurations.  Returns (config,
    predicted log ratio, relative std) triples, best-predicted first.
    Empty when the space's knob catalog no longer matches the
    surrogate's, or the support is empty.  The snapped support comes
    from :func:`_snapped_support`, so only scoring runs per request.
    """
    if tuple(space.names()) != trained.knob_names:
        return []
    if not trained.support_units:
        return []
    support = _snapped_support(trained, space)
    if not support.configs:
        return []
    rng = np.random.default_rng(_seed_for(trained, seed))
    names = list(trained.knob_names)
    pruned = [names.index(k) for k in trained.top_knobs]
    X1 = support.X
    mu, sd = trained.predict(X1, fingerprint)

    # Stage 2: local Gaussian refinement around the best predicted rows.
    order = np.argsort(mu, kind="stable")[: max(n_seeds, 0)]
    refined: List[Configuration] = []
    if len(order) and n_local > 0 and pruned:
        blocks = []
        for i in order:
            jitter = rng.normal(0.0, local_scale, size=(n_local, len(pruned)))
            block = np.tile(X1[i], (n_local, 1))
            block[:, pruned] = np.clip(block[:, pruned] + jitter, 0.0, 1.0)
            blocks.append(block)
        refined = _snap(space, np.vstack(blocks), set(support.seen))

    configs = support.configs
    if refined:
        # without refined rows the stage-1 scores are the answer
        configs += tuple(refined)
        X = np.vstack([X1, np.stack([c.to_array() for c in refined])])
        mu, sd = trained.predict(X, fingerprint)
    ranked = np.argsort(mu, kind="stable")
    return [
        (
            configs[i],
            float(mu[i]),
            None if sd is None else float(sd[i]),
        )
        for i in ranked
    ]


def recommend_config(
    trained: TrainedSurrogate,
    space: ConfigurationSpace,
    fingerprint: WorkloadFingerprint,
    confidence_threshold: float = DEFAULT_CONFIDENCE,
    **search_kwargs: Any,
) -> Optional[SurrogateRecommendation]:
    """Best surrogate recommendation for a fingerprinted workload.

    Returns ``None`` when no feasible candidate could be scored.  The
    ``confident`` flag reflects the gate: models without an uncertainty
    estimate (MLP) gate on their holdout RMSE instead.
    """
    ranked = rank_configs(trained, space, fingerprint, **search_kwargs)
    if not ranked:
        return None
    config, mu, sd = ranked[0]
    if sd is not None:
        confident = sd <= confidence_threshold
    else:
        holdout = trained.holdout_rmse.get(trained.model_kind)
        confident = holdout is not None and holdout <= confidence_threshold
    anchor = fingerprint.probe_runtime_s
    predicted_runtime = (
        math.exp(mu) * anchor
        if math.isfinite(anchor) and anchor > 0
        else None
    )
    return SurrogateRecommendation(
        values=dict(config.to_dict()),
        predicted_ratio=math.exp(mu),
        predicted_runtime_s=predicted_runtime,
        relative_std=sd,
        confident=confident,
        model_kind=trained.model_kind,
        family=trained.family,
        n_candidates=len(ranked),
        top_knobs=trained.top_knobs,
    )


def surrogate_prior(
    trained: TrainedSurrogate,
    space: ConfigurationSpace,
    fingerprint: WorkloadFingerprint,
    k: int = 3,
    **search_kwargs: Any,
) -> List[PriorObservation]:
    """Top-k surrogate picks as transfer-prior pseudo-observations.

    The fleet controller stacks these onto the similarity prior so a
    re-tune's opening batch includes the surrogate's best guesses —
    predictions enter as prior rows (never charged to the budget, never
    recorded as real history), so the episode stays honest.
    """
    anchor = fingerprint.probe_runtime_s
    if not (math.isfinite(anchor) and anchor > 0):
        return []
    rows: List[PriorObservation] = []
    for config, mu, _ in rank_configs(
        trained, space, fingerprint, **search_kwargs
    )[: max(k, 0)]:
        rows.append(
            PriorObservation(
                values=dict(config.to_dict()),
                runtime_s=math.exp(mu) * anchor,
                source_workload=f"surrogate:{trained.family}",
                source_session=-1,
            )
        )
    return rows
