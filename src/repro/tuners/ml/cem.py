"""Cross-entropy method tuner — policy-search-style configuration
optimization.

The tutorial's closing discussion points toward learning-based control;
the field's next step after it (CDBTune/QTune) was reinforcement-style
policy search.  The cross-entropy method is the simplest member of that
family: maintain a Gaussian *policy* over unit-encoded configurations,
sample a batch, keep the elite fraction, refit the policy toward them,
and repeat.  No value function, no gradients — just distribution
shaping, which is robust at tuning's tiny sample sizes.

Each policy batch is one ask — CEM is embarrassingly parallel within a
generation, so the driver fans whole generations out.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.measurement import Observation
from repro.core.pool import gaussian_configurations
from repro.core.registry import register_tuner
from repro.tuners.common import ResponseReplay

__all__ = ["CrossEntropyTuner"]


@register_tuner("cem")
class CrossEntropyTuner(SearchTuner):
    """Gaussian policy search over the unit cube."""

    name = "cem"
    category = "machine-learning"

    def __init__(
        self,
        batch: int = 8,
        elite_frac: float = 0.3,
        init_std: float = 0.35,
        min_std: float = 0.04,
        smoothing: float = 0.5,
    ):
        if batch < 4:
            raise ValueError("batch must be >= 4")
        if not (0.0 < elite_frac < 1.0):
            raise ValueError("elite_frac in (0, 1)")
        if not (0.0 <= smoothing <= 1.0):
            raise ValueError("smoothing in [0, 1]")
        self.batch = batch
        self.elite_frac = elite_frac
        self.init_std = init_std
        self.min_std = min_std
        self.smoothing = smoothing

    def setup(self, state: SearchState) -> None:
        self._replay = ResponseReplay("penalize")
        d = state.space.dimension
        # Policy initialized at the default configuration — tuning
        # starts from what the operator runs today.
        self._mean = state.default_config().to_array().astype(float)
        self._std = np.full(d, self.init_std)
        self._n_elite = max(2, int(round(self.batch * self.elite_frac)))
        self._generation = 0
        self._started = False
        self._stop = False

    def tell(self, state: SearchState, results: List[Observation]) -> None:
        if not self._started:
            # The default evaluation anchors the incumbent but is not a
            # policy sample — it never enters the elite set.
            return
        scored = [
            (self._replay.account(o), o.config.to_array()) for o in results
        ]
        # Under multi-fidelity screening the tell only covers the
        # promoted survivors — already the batch's elite by screening
        # rank, so any non-empty set refits the policy.
        needed = 1 if self.multi_fidelity else self._n_elite
        if len(scored) < needed:
            self._stop = True
            return
        scored.sort(key=lambda item: item[0])
        elite = np.stack([x for _, x in scored[: self._n_elite]])
        new_mean = elite.mean(axis=0)
        new_std = elite.std(axis=0)
        # Smooth updates keep the policy from collapsing on a fluke.
        self._mean = self.smoothing * new_mean + (1 - self.smoothing) * self._mean
        self._std = np.maximum(
            self.smoothing * new_std + (1 - self.smoothing) * self._std,
            self.min_std,
        )
        self._generation += 1

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        if self._stop:
            return []
        self._started = True
        configs = gaussian_configurations(
            state.space, self._mean, self._std, self.batch, state.rng
        )
        return [
            Candidate(config, tag=f"cem-g{self._generation}-{i}")
            for i, config in enumerate(configs)
        ]

    def finish(self, state: SearchState) -> None:
        state.extras["cem_generations"] = self._generation
        state.extras["cem_final_std"] = float(np.mean(self._std))
