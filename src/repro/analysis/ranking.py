"""Parameter-importance analysis.

Three estimators with different cost/fidelity tradeoffs, plus the
rank-quality metrics used to score them against the simulators' ground
truth (experiment E9):

* :func:`sweep_importance` — the expensive oracle: one-at-a-time sweeps
  of every knob measuring the max/min runtime ratio it can cause.
* :func:`lasso_importance` — OtterTune's estimator over sampled data.
* :func:`forest_importance` — impurity-based importance from a random
  forest over sampled data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from repro.core.parameters import ConfigurationSpace
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.exceptions import ValidationError
from repro.mlkit.linear import lasso_rank_features
from repro.mlkit.sampling import latin_hypercube
from repro.mlkit.tree import RandomForest

__all__ = [
    "sweep_importance",
    "lasso_importance",
    "forest_importance",
    "rank_correlation",
    "top_k_overlap",
]


def sweep_importance(
    system: SystemUnderTune,
    workload: Workload,
    levels: int = 5,
    knobs: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """One-at-a-time sweep: for each knob, vary it across ``levels``
    while holding everything else at defaults; the importance score is
    ``max/min`` successful runtime over the sweep (1.0 = inert).

    Infeasible or failing settings are skipped (their *existence* is a
    different kind of importance, reported by the misconfiguration
    experiment instead).
    """
    space = system.config_space
    scores: Dict[str, float] = {}
    for name in knobs or space.names():
        param = space[name]
        runtimes: List[float] = []
        for value in param.grid(levels):
            try:
                config = space.partial({name: value})
            except ValidationError:
                continue
            measurement = system.run(workload, config)
            if measurement.ok:
                runtimes.append(measurement.runtime_s)
        scores[name] = max(runtimes) / min(runtimes) if len(runtimes) >= 2 else 1.0
    return scores


def _sampled_data(
    system: SystemUnderTune,
    workload: Workload,
    n_samples: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    space = system.config_space
    X_rows, y_rows = [], []
    for row in latin_hypercube(n_samples, space.dimension, rng):
        config = space.from_array_feasible(row, rng)
        measurement = system.run(workload, config)
        X_rows.append(config.to_array())
        y_rows.append(measurement.runtime_s if measurement.ok else np.nan)
    X = np.array(X_rows)
    y = np.array(y_rows)
    ok = np.isfinite(y)
    worst = y[ok].max() if ok.any() else 1.0
    y = np.where(ok, y, worst * 3.0)
    return X, y


def lasso_importance(
    system: SystemUnderTune,
    workload: Workload,
    n_samples: int = 60,
    rng: Optional[np.random.Generator] = None,
) -> List[str]:
    """Knob names ordered by lasso-path entry (OtterTune's criterion)."""
    rng = rng or np.random.default_rng(0)
    X, y = _sampled_data(system, workload, n_samples, rng)
    order = lasso_rank_features(X, np.log1p(y))
    names = system.config_space.names()
    return [names[j] for j in order]


def forest_importance(
    system: SystemUnderTune,
    workload: Workload,
    n_samples: int = 60,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, float]:
    """Impurity-based importances from a forest over sampled runs."""
    rng = rng or np.random.default_rng(0)
    X, y = _sampled_data(system, workload, n_samples, rng)
    forest = RandomForest(n_trees=40, max_depth=8, seed=int(rng.integers(1 << 30)))
    forest.fit(X, np.log1p(y))
    names = system.config_space.names()
    return dict(zip(names, forest.feature_importances_))


def rank_correlation(
    ranking: Sequence[str], truth_scores: Dict[str, float]
) -> float:
    """Spearman correlation between a produced ranking and ground-truth
    importance scores (higher score = should rank earlier)."""
    common = [name for name in ranking if name in truth_scores]
    if len(common) < 3:
        return 0.0
    produced_rank = {name: i for i, name in enumerate(common)}
    truth_order = sorted(common, key=lambda n: -truth_scores[n])
    truth_rank = {name: i for i, name in enumerate(truth_order)}
    a = [produced_rank[n] for n in common]
    b = [truth_rank[n] for n in common]
    rho, _ = stats.spearmanr(a, b)
    return float(rho) if np.isfinite(rho) else 0.0


def top_k_overlap(
    ranking: Sequence[str], truth_scores: Dict[str, float], k: int = 5
) -> float:
    """Fraction of the true top-k knobs recovered in the produced top-k."""
    truth_top = set(sorted(truth_scores, key=lambda n: -truth_scores[n])[:k])
    produced_top = set(list(ranking)[:k])
    return len(truth_top & produced_top) / max(k, 1)
