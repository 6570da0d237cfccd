"""Neural-network tuner (Rodd & Kulkarni, IJCSIS 2010).

A small MLP learns the configuration → runtime surface from the
session's observations; each step recommends the candidate with the
lowest predicted runtime, with ε-greedy random exploration to keep the
training set diverse (neural surrogates give no principled uncertainty,
so exploration must be injected — a weakness Table 1 charges the whole
category with: "hard to choose the proper model").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.registry import register_tuner
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.sampling import latin_hypercube
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["NeuralNetTuner"]


@register_tuner("nn-tuner")
class NeuralNetTuner(SearchTuner):
    """MLP surrogate with ε-greedy argmin recommendation."""

    name = "nn-tuner"
    category = "machine-learning"

    def __init__(
        self,
        n_init: int = 8,
        epsilon: float = 0.15,
        hidden=(32, 32),
        epochs: int = 300,
        n_candidates: int = 300,
    ):
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError("epsilon in [0, 1]")
        self.n_init = n_init
        self.epsilon = epsilon
        self.hidden = hidden
        self.epochs = epochs
        self.n_candidates = n_candidates

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
        if rng.random() < self.epsilon:
            return [Candidate(space.sample_configuration(rng), tag="explore")]
        X, y = history_to_training_data(state)
        if len(y) < 4:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]
        # Log-scale targets stabilize training across decades.
        model = MLPRegressor(
            hidden=self.hidden, epochs=self.epochs,
            seed=int(rng.integers(1 << 30)),
        ).fit(X, np.log1p(y))
        incumbent = state.best_config()
        candidates = candidate_pool(
            space, rng, n_random=self.n_candidates,
            anchors=[incumbent] if incumbent else None,
        )
        if not candidates:
            return []
        Xc = candidates.X
        pred = model.predict(Xc)
        step = self._step
        self._step += 1
        return [
            Candidate(
                candidates[int(np.argmin(pred))],
                tag=f"nn-{step}",
                predicted_runtime_s=float(np.expm1(pred.min())),
                predict_tag="nn",
            )
        ]
