"""A small multi-layer perceptron regressor trained with Adam.

Rodd & Kulkarni (2010) tune DBMS memory knobs with a neural network
mapping observed state to recommended settings; this MLP is the
substrate for that tuner and for generic learned performance models.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelNotFitted
from repro.mlkit.scaler import StandardScaler

__all__ = ["MLPRegressor"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _layer_views(
    flat: np.ndarray, dims: Sequence[int]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer ``(a, b)`` weight and ``(b,)`` bias views into ``flat``.

    Every layer's weights (row-major) come first, then every layer's
    biases, so ``flat[:n_weights]`` covers all weights at once.
    """
    weights, biases = [], []
    at = 0
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(flat[at:at + a * b].reshape(a, b))
        at += a * b
    for b in dims[1:]:
        biases.append(flat[at:at + b])
        at += b
    return weights, biases


class MLPRegressor:
    """Fully-connected ReLU network with a linear output head.

    Inputs and targets are standardized internally.  Training is plain
    full-batch Adam — sample sizes in tuning are tiny, so batching and
    schedulers would be ceremony.

    Args:
        hidden: widths of hidden layers.
        lr: Adam learning rate.
        epochs: training epochs.
        l2: weight decay coefficient.
        seed: weight initialization seed.
    """

    def __init__(
        self,
        hidden: Sequence[int] = (32, 32),
        lr: float = 1e-2,
        epochs: int = 500,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        if any(h < 1 for h in hidden):
            raise ValueError("hidden widths must be >= 1")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not lr > 0:
            raise ValueError("lr must be > 0")
        if not l2 >= 0:
            raise ValueError("l2 must be >= 0")
        self.hidden = tuple(hidden)
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self._weights: Optional[List[np.ndarray]] = None
        self._biases: Optional[List[np.ndarray]] = None
        self._x_scaler: Optional[StandardScaler] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self.loss_curve_: List[float] = []

    def _init_params(self, dims: Sequence[int]) -> np.ndarray:
        """Draw the initial weights; return the flat parameter vector.

        ``_weights`` and ``_biases`` become per-layer views into the
        returned vector (see :func:`_layer_views`), so one update of the
        vector updates every layer.
        """
        rng = np.random.default_rng(self.seed)
        theta = np.zeros(sum(a * b + b for a, b in zip(dims[:-1], dims[1:])))
        self._weights, self._biases = _layer_views(theta, dims)
        for W in self._weights:
            W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
        return theta

    def _forward(self, X: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        acts = [X]
        h = X
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ W + b
            h = z if i == len(self._weights) - 1 else _relu(z)
            acts.append(h)
        return h, acts

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y lengths differ")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        self._x_scaler = StandardScaler().fit(X)
        Z = self._x_scaler.transform(X)
        self._y_mean = float(y.mean())
        std = float(y.std())
        self._y_std = std if std > 1e-12 else 1.0
        t = ((y - self._y_mean) / self._y_std)[:, None]

        dims = [Z.shape[1], *self.hidden, 1]
        theta = self._init_params(dims)
        # Gradients land in views of one flat vector laid out like
        # ``theta``, so Adam runs as a handful of whole-vector ops.  Each
        # element sees the per-layer update's arithmetic in its order.
        g = np.empty_like(theta)
        gw, gb = _layer_views(g, dims)
        n_weights = sum(W.size for W in self._weights)
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        step_buf, scale_buf = np.empty_like(theta), np.empty_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        n = Z.shape[0]
        errs = np.empty((self.epochs, n))
        weights = self._weights
        for step in range(1, self.epochs + 1):
            pred, acts = self._forward(Z)
            err = pred - t
            errs[step - 1] = err[:, 0]
            delta = 2.0 * err / n
            for i in reversed(range(len(weights))):
                np.matmul(acts[i].T, delta, out=gw[i])
                delta.sum(axis=0, out=gb[i])
                if i > 0:
                    delta = (delta @ weights[i].T) * (acts[i] > 0)
            # Weight gradients: acts.T @ delta + l2 * W.
            np.multiply(self.l2, theta[:n_weights], out=step_buf[:n_weights])
            g[:n_weights] += step_buf[:n_weights]
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            m *= beta1
            np.multiply(1 - beta1, g, out=step_buf)
            m += step_buf
            v *= beta2
            np.square(g, out=step_buf)
            step_buf *= 1 - beta2
            v += step_buf
            # theta -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
            np.divide(m, 1 - beta1 ** step, out=step_buf)
            step_buf *= self.lr
            np.divide(v, 1 - beta2 ** step, out=scale_buf)
            np.sqrt(scale_buf, out=scale_buf)
            scale_buf += eps
            step_buf /= scale_buf
            theta -= step_buf
        self.loss_curve_ = np.mean(errs ** 2, axis=1).tolist()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._weights is None or self._x_scaler is None:
            raise ModelNotFitted("MLPRegressor not fitted")
        Z = self._x_scaler.transform(np.atleast_2d(np.asarray(X, dtype=float)))
        pred, _ = self._forward(Z)
        return pred.ravel() * self._y_std + self._y_mean

    def to_state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the trained network."""
        if self._weights is None or self._x_scaler is None:
            raise ModelNotFitted("MLPRegressor not fitted")
        return {
            "kind": "mlp",
            "hidden": list(self.hidden),
            "lr": self.lr,
            "epochs": self.epochs,
            "l2": self.l2,
            "seed": self.seed,
            "weights": [w.tolist() for w in self._weights],
            "biases": [b.tolist() for b in self._biases],
            "x_scaler": self._x_scaler.to_state(),
            "y_mean": self._y_mean,
            "y_std": self._y_std,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MLPRegressor":
        model = cls(
            hidden=state["hidden"],
            lr=state["lr"],
            epochs=state["epochs"],
            l2=state["l2"],
            seed=state["seed"],
        )
        model._weights = [np.asarray(w, dtype=float) for w in state["weights"]]
        model._biases = [np.asarray(b, dtype=float) for b in state["biases"]]
        model._x_scaler = StandardScaler.from_state(state["x_scaler"])
        model._y_mean = float(state["y_mean"])
        model._y_std = float(state["y_std"])
        return model
