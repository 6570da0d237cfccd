"""Committee-of-surrogates tuner.

The tutorial's ML-category weakness row notes it is "hard to choose the
proper model"; the standard mitigation is not to choose: an ensemble of
heterogeneous surrogates (GP, random forest, MLP) votes on candidates,
and the committee's *disagreement* substitutes for a principled
uncertainty — exploration targets configs the models disagree about.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.registry import register_tuner
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.sampling import latin_hypercube
from repro.mlkit.tree import RandomForest
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["EnsembleTuner"]


@register_tuner("ensemble")
class EnsembleTuner(SearchTuner):
    """GP + forest + MLP committee with disagreement-driven exploration."""

    name = "ensemble"
    category = "machine-learning"

    def __init__(
        self,
        n_init: int = 6,
        explore_weight: float = 1.0,
        n_candidates: int = 300,
        mlp_epochs: int = 200,
    ):
        self.n_init = n_init
        self.explore_weight = explore_weight
        self.n_candidates = n_candidates
        self.mlp_epochs = mlp_epochs

    def _committee_predict(
        self, X: np.ndarray, y: np.ndarray, Xc: np.ndarray, seed: int
    ):
        """Mean prediction and committee disagreement on candidates."""
        logy = np.log1p(y)
        predictions = []
        gp = GaussianProcess(optimize=True).fit(X, logy)
        predictions.append(gp.predict(Xc)[0])
        forest = RandomForest(n_trees=20, max_depth=7, seed=seed).fit(X, logy)
        predictions.append(forest.predict(Xc))
        if len(y) >= 8:
            mlp = MLPRegressor(hidden=(24, 24), epochs=self.mlp_epochs, seed=seed)
            mlp.fit(X, logy)
            predictions.append(mlp.predict(Xc))
        stack = np.stack(predictions)
        return stack.mean(axis=0), stack.std(axis=0)

    def setup(self, state: SearchState) -> None:
        self._init_asked = False
        self._step = 0

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        if not self._init_asked:
            self._init_asked = True
            n_init = min(self.n_init, max(state.remaining_runs - 2, 1))
            return [
                Candidate(space.from_array_feasible(row, rng), tag=f"init-{i}")
                for i, row in enumerate(latin_hypercube(n_init, space.dimension, rng))
            ]
        X, y = history_to_training_data(state)
        if len(y) < 4:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]
        incumbent = state.best_config()
        candidates = candidate_pool(
            space, rng, n_random=self.n_candidates,
            anchors=[incumbent] if incumbent else None,
        )
        if not candidates:
            return []
        Xc = candidates.X
        mean, disagreement = self._committee_predict(
            X, y, Xc, seed=int(rng.integers(1 << 30))
        )
        anneal = self.explore_weight / np.sqrt(1.0 + self._step)
        score = -mean + anneal * disagreement
        chosen = int(np.argmax(score))
        step = self._step
        self._step += 1
        return [
            Candidate(
                candidates[chosen],
                tag=f"ens-{step}",
                predicted_runtime_s=float(np.expm1(mean[chosen])),
                predict_tag="committee",
            )
        ]
