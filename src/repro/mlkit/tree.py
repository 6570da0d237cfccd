"""Regression trees and random forests.

Used as an alternative response-surface model (several surveyed Hadoop
tuners — e.g., grey-box predictors — use tree ensembles) and for
impurity-based parameter-importance scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelNotFitted

__all__ = ["RegressionTree", "RandomForest"]

#: Split scans square partial sums of ``y``; below this bound no
#: square, nor that of a difference of two partial sums, overflows.
_POW_SAFE = 2.0 ** 510


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class _FlatTree:
    """Array-of-nodes form of a fitted tree for vectorized prediction.

    ``feature[i] == -1`` marks node ``i`` as a leaf; otherwise ``left``/
    ``right`` hold child node indices.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _flatten(root: _Node) -> _FlatTree:
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    value: List[float] = []

    def visit(node: _Node) -> int:
        idx = len(feature)
        feature.append(node.feature if not node.is_leaf else -1)
        threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        value.append(node.value)
        if not node.is_leaf:
            left[idx] = visit(node.left)
            right[idx] = visit(node.right)
        return idx

    visit(root)
    return _FlatTree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
    )


def _unflatten(flat: _FlatTree, idx: int = 0) -> _Node:
    if flat.feature[idx] < 0:
        return _Node(value=float(flat.value[idx]))
    return _Node(
        feature=int(flat.feature[idx]),
        threshold=float(flat.threshold[idx]),
        left=_unflatten(flat, int(flat.left[idx])),
        right=_unflatten(flat, int(flat.right[idx])),
        value=float(flat.value[idx]),
    )


class RegressionTree:
    """CART regression tree (variance reduction splits)."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._root: Optional[_Node] = None
        self._flat: Optional[_FlatTree] = None
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("invalid training data")
        self._importance = np.zeros(X.shape[1])
        self._root = self._build(X, y, depth=0)
        self._flat = _flatten(self._root)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _candidate_features(self, d: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return self.rng.choice(d, size=self.max_features, replace=False)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or float(y.var()) < 1e-14
        ):
            return node
        n, d = X.shape
        parent_sse = float(((y - y.mean()) ** 2).sum())
        feats = self._candidate_features(d)
        # One stable sort and two prefix sums for every candidate
        # feature at once; column c is what sorting feature feats[c]
        # alone would give.
        Xf = X[:, feats]
        order = np.argsort(Xf, axis=0, kind="stable")
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        columns = (
            np.take_along_axis(Xf, order, axis=0).T,
            csum.T,
            np.cumsum(ys ** 2, axis=0).T,
        )
        if np.abs(csum).max() < _POW_SAFE:
            columns = tuple(c.tolist() for c in columns)
        # else: Python float ``**`` would raise OverflowError where the
        # numpy scalar ``**`` returns inf, so scan numpy scalars.
        best_gain, best = 0.0, None
        # min_samples_leaf >= 1, so every split leaves both sides
        # non-empty.  The scan stays on scalars: scalar ``s ** 2`` is
        # libm ``pow``, array ``**`` is ``s * s``, and the two differ in
        # the last ulp often enough to change splits.
        lo, hi = self.min_samples_leaf, n - self.min_samples_leaf
        for j, xs, cs, cq in zip(feats.tolist(), *columns):
            total_sum, total_sq = cs[-1], cq[-1]
            for i in range(lo, hi + 1):
                if xs[i - 1] == xs[i]:
                    continue
                left_sse = cq[i - 1] - cs[i - 1] ** 2 / i
                right_n = n - i
                rsum = total_sum - cs[i - 1]
                rsq = total_sq - cq[i - 1]
                right_sse = rsq - rsum ** 2 / right_n
                gain = parent_sse - (left_sse + right_sse)
                if gain > best_gain + 1e-12:
                    best_gain, best = gain, (j, (xs[i - 1] + xs[i]) / 2.0)
        if best is None:
            return node
        j, threshold = best
        mask = X[:, j] <= threshold
        if mask.all() or not mask.any():
            return node
        self._importance[j] += best_gain
        node.feature = j
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized batch traversal over the flattened node arrays.

        All rows advance one tree level per iteration; rows that reach a
        leaf drop out of the frontier.  Comparisons and leaf values are
        the very same floats the scalar walk uses, so the result matches
        :meth:`predict_scalar` bit for bit.
        """
        if self._root is None:
            raise ModelNotFitted("RegressionTree not fitted")
        if self._flat is None:
            self._flat = _flatten(self._root)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        flat = self._flat
        nodes = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.nonzero(flat.feature[nodes] >= 0)[0]
        while rows.size:
            at = nodes[rows]
            go_left = X[rows, flat.feature[at]] <= flat.threshold[at]
            nodes[rows] = np.where(go_left, flat.left[at], flat.right[at])
            rows = rows[flat.feature[nodes[rows]] >= 0]
        return flat.value[nodes]

    def predict_scalar(self, X: np.ndarray) -> np.ndarray:
        """Reference per-row tree walk; pins :meth:`predict`'s output."""
        if self._root is None:
            raise ModelNotFitted("RegressionTree not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def to_state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the fitted tree."""
        if self._root is None or self._flat is None:
            raise ModelNotFitted("RegressionTree not fitted")
        return {
            "kind": "regression_tree",
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "feature": self._flat.feature.tolist(),
            "threshold": self._flat.threshold.tolist(),
            "left": self._flat.left.tolist(),
            "right": self._flat.right.tolist(),
            "value": self._flat.value.tolist(),
            "feature_importances": (
                None
                if self.feature_importances_ is None
                else self.feature_importances_.tolist()
            ),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RegressionTree":
        tree = cls(
            max_depth=state["max_depth"],
            min_samples_leaf=state["min_samples_leaf"],
        )
        tree._flat = _FlatTree(
            feature=np.asarray(state["feature"], dtype=np.intp),
            threshold=np.asarray(state["threshold"], dtype=float),
            left=np.asarray(state["left"], dtype=np.intp),
            right=np.asarray(state["right"], dtype=np.intp),
            value=np.asarray(state["value"], dtype=float),
        )
        tree._root = _unflatten(tree._flat)
        fi = state.get("feature_importances")
        tree.feature_importances_ = None if fi is None else np.asarray(fi, dtype=float)
        return tree


class RandomForest:
    """Bagged regression trees with feature subsampling."""

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._trees: List[RegressionTree] = []
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        max_features = max(1, int(np.ceil(d / 3)))
        self._trees = []
        importances = np.zeros(d)
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
            ).fit(X[idx], y[idx])
            self._trees.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise ModelNotFitted("RandomForest not fitted")
        preds = np.stack([t.predict(X) for t in self._trees])
        return preds.mean(axis=0)

    def predict_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and spread (a cheap uncertainty proxy)."""
        if not self._trees:
            raise ModelNotFitted("RandomForest not fitted")
        preds = np.stack([t.predict(X) for t in self._trees])
        return preds.mean(axis=0), preds.std(axis=0)

    def to_state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the fitted forest."""
        if not self._trees:
            raise ModelNotFitted("RandomForest not fitted")
        return {
            "kind": "random_forest",
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "seed": self.seed,
            "trees": [t.to_state() for t in self._trees],
            "feature_importances": (
                None
                if self.feature_importances_ is None
                else self.feature_importances_.tolist()
            ),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RandomForest":
        forest = cls(
            n_trees=state["n_trees"],
            max_depth=state["max_depth"],
            min_samples_leaf=state["min_samples_leaf"],
            seed=state["seed"],
        )
        forest._trees = [RegressionTree.from_state(t) for t in state["trees"]]
        fi = state.get("feature_importances")
        forest.feature_importances_ = (
            None if fi is None else np.asarray(fi, dtype=float)
        )
        return forest
