"""Exact fast paths of the model fits against the loops they replaced.

``MLPRegressor.fit`` runs Adam over one flat parameter vector,
``RegressionTree._build`` sorts all candidate features of a node at
once, and ``candidate_pool`` decodes its anchor jitter as one block.
Each promises *bitwise* what the per-layer, per-feature and per-row
loops below gave: the same weights, loss curve and predictions, the
same trees and importances, the same candidates and generator state,
and so the same session digests.  The loops live only here, as the
reference.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_tuner
from repro.bench.harness import standard_cluster
from repro.core import (
    Budget,
    ConfigurationSpace,
    InstrumentedSystem,
    NumericParameter,
    make_constraint,
)
from repro.core import pool as pool_module
from repro.core.registry import make_system
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.scaler import StandardScaler
from repro.mlkit.tree import RandomForest, RegressionTree, _Node
from repro.tuners import common as common_module
from repro.tuners.common import candidate_pool
from repro.workloads import htap_mixed, spark_sort, terasort

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- the reference loops ---------------------------------------------------

def reference_mlp_fit(model, X, y):
    """Full-batch Adam with one update per layer and per parameter kind."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    model._x_scaler = StandardScaler().fit(X)
    Z = model._x_scaler.transform(X)
    model._y_mean = float(y.mean())
    std = float(y.std())
    model._y_std = std if std > 1e-12 else 1.0
    t = ((y - model._y_mean) / model._y_std)[:, None]
    rng = np.random.default_rng(model.seed)
    dims = [Z.shape[1], *model.hidden, 1]
    model._weights, model._biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        model._weights.append(rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)))
        model._biases.append(np.zeros(b))
    m = [np.zeros_like(w) for w in model._weights]
    v = [np.zeros_like(w) for w in model._weights]
    mb = [np.zeros_like(b) for b in model._biases]
    vb = [np.zeros_like(b) for b in model._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n = Z.shape[0]
    model.loss_curve_ = []
    for step in range(1, model.epochs + 1):
        pred, acts = model._forward(Z)
        err = pred - t
        model.loss_curve_.append(float(np.mean(err ** 2)))
        grad = 2.0 * err / n
        gw = [None] * len(model._weights)
        gb = [None] * len(model._biases)
        delta = grad
        for i in reversed(range(len(model._weights))):
            gw[i] = acts[i].T @ delta + model.l2 * model._weights[i]
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ model._weights[i].T) * (acts[i] > 0)
        for i in range(len(model._weights)):
            m[i] = beta1 * m[i] + (1 - beta1) * gw[i]
            v[i] = beta2 * v[i] + (1 - beta2) * gw[i] ** 2
            mb[i] = beta1 * mb[i] + (1 - beta1) * gb[i]
            vb[i] = beta2 * vb[i] + (1 - beta2) * gb[i] ** 2
            mh = m[i] / (1 - beta1 ** step)
            vh = v[i] / (1 - beta2 ** step)
            mbh = mb[i] / (1 - beta1 ** step)
            vbh = vb[i] / (1 - beta2 ** step)
            model._weights[i] -= model.lr * mh / (np.sqrt(vh) + eps)
            model._biases[i] -= model.lr * mbh / (np.sqrt(vbh) + eps)
    return model


def reference_build(self, X, y, depth):
    """CART node split: one sort and one scan on numpy scalars per feature."""
    node = _Node(value=float(y.mean()))
    if (
        depth >= self.max_depth
        or len(y) < 2 * self.min_samples_leaf
        or float(y.var()) < 1e-14
    ):
        return node
    n, d = X.shape
    parent_sse = float(((y - y.mean()) ** 2).sum())
    best_gain, best = 0.0, None
    for j in self._candidate_features(d):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys ** 2)
        total_sum, total_sq = csum[-1], csq[-1]
        for i in range(self.min_samples_leaf, n - self.min_samples_leaf + 1):
            if i < n and xs[i - 1] == xs[i]:
                continue
            left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
            right_n = n - i
            if right_n == 0:
                continue
            rsum = total_sum - csum[i - 1]
            rsq = total_sq - csq[i - 1]
            right_sse = rsq - rsum ** 2 / right_n
            gain = parent_sse - (left_sse + right_sse)
            if gain > best_gain + 1e-12:
                threshold = (xs[i - 1] + xs[i]) / 2.0 if i < n else xs[i - 1]
                best_gain, best = gain, (j, threshold)
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


def reference_jitter(space, anchors, rng, scale, repeats=16):
    """One clipped Gaussian draw and one repairing decode per row."""
    configs = []
    for anchor in anchors:
        base = anchor.to_array()
        for _ in range(repeats):
            x = np.clip(base + rng.normal(scale=scale, size=base.shape), 0.0, 1.0)
            configs.append(space.from_array_feasible(x, rng))
    return configs


# -- helpers -----------------------------------------------------------------

def generator_state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def same_floats(a, b):
    """Bitwise equality of float arrays (NaNs with equal bits compare equal)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@contextmanager
def reference_trees():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RegressionTree, "_build", reference_build)
        yield


def tree_state(tree):
    flat = tree._flat
    return (
        flat.feature.tolist(), flat.threshold.tobytes(), flat.left.tolist(),
        flat.right.tolist(), flat.value.tobytes(),
        tree.feature_importances_.tobytes(),
    )


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    return calls


# -- MLP ---------------------------------------------------------------------

@st.composite
def mlp_cases(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 30))
    hidden = tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)))
    epochs = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed)
    X = data.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e2]))
    y = np.full(n, 3.5) if draw(st.booleans()) else data.normal(size=n) * 10.0
    kwargs = dict(
        hidden=hidden, epochs=epochs, seed=seed % 97,
        lr=draw(st.sampled_from([1e-3, 1e-2, 0.3])),
        l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
    )
    return X, y, kwargs


class TestFusedAdam:
    @settings(**_SETTINGS)
    @given(case=mlp_cases())
    def test_fit_equals_per_layer_adam(self, case):
        X, y, kwargs = case
        fast = MLPRegressor(**kwargs).fit(X, y)
        ref = reference_mlp_fit(MLPRegressor(**kwargs), X, y)
        assert len(fast._weights) == len(ref._weights)
        for a, b in zip(fast._weights + fast._biases, ref._weights + ref._biases):
            assert same_floats(a, b)
        assert fast.loss_curve_ == ref.loss_curve_
        assert all(type(loss) is float for loss in fast.loss_curve_)
        assert same_floats(fast.predict(X), ref.predict(X))

    def test_layers_are_views_of_one_vector(self):
        X = np.random.default_rng(0).normal(size=(12, 4))
        model = MLPRegressor(hidden=(5, 3), epochs=3).fit(X, X.sum(axis=1))
        base = model._weights[0].base
        assert base is not None and base.ndim == 1
        assert all(p.base is base for p in model._weights + model._biases)
        assert [w.shape for w in model._weights] == [(4, 5), (5, 3), (3, 1)]
        assert [b.shape for b in model._biases] == [(5,), (3,), (1,)]
        restored = MLPRegressor.from_state(model.to_state())
        assert same_floats(restored.predict(X), model.predict(X))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=0), "epochs"),
        (dict(epochs=-3), "epochs"),
        (dict(lr=0.0), "lr"),
        (dict(lr=-1e-3), "lr"),
        (dict(lr=float("nan")), "lr"),
        (dict(l2=-1e-6), "l2"),
        (dict(hidden=(4, 0)), "hidden"),
    ])
    def test_invalid_hyperparameters_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MLPRegressor(**kwargs)

    def test_smallest_valid_hyperparameters_fit(self):
        model = MLPRegressor(hidden=(1,), epochs=1, lr=1e-9, l2=0.0)
        model.fit(np.ones((2, 1)), np.array([1.0, 2.0]))
        assert len(model.loss_curve_) == 1


# -- forest ------------------------------------------------------------------

@st.composite
def tree_cases(draw):
    n = draw(st.integers(1, 50))
    d = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed)
    X = data.random((n, d))
    if draw(st.booleans()):  # heavy ties
        X = np.round(X * draw(st.integers(1, 3))) / 3.0
    X[:, draw(st.integers(0, d - 1))] = 0.25  # a constant column
    scale = draw(st.sampled_from([1e-7, 1e-3, 1.0, 1e3, 1e40, 1e150]))
    y = data.normal(size=n) * scale
    if draw(st.booleans()):
        y = np.round(y / scale * 2.0) * scale  # tied targets
    min_leaf = draw(st.integers(1, 3))
    max_features = draw(st.one_of(st.none(), st.integers(1, d)))
    return X, y, min_leaf, max_features, seed


class TestOneSortPerNode:
    @settings(**_SETTINGS)
    @given(case=tree_cases())
    def test_tree_equals_per_feature_build(self, case):
        X, y, min_leaf, max_features, seed = case

        def fit():
            return RegressionTree(
                max_depth=6, min_samples_leaf=min_leaf,
                max_features=max_features, rng=np.random.default_rng(seed),
            ).fit(X, y)

        fast = fit()
        with reference_trees():
            ref = fit()
        assert tree_state(fast) == tree_state(ref)
        assert same_floats(fast.predict(X), ref.predict(X))

    @settings(**_SETTINGS)
    @given(case=tree_cases())
    def test_forest_equals_per_feature_build(self, case):
        X, y, min_leaf, _, seed = case

        def fit():
            return RandomForest(
                n_trees=4, max_depth=5, min_samples_leaf=min_leaf, seed=seed
            ).fit(X, y)

        fast = fit()
        with reference_trees():
            ref = fit()
        assert [tree_state(t) for t in fast._trees] == [
            tree_state(t) for t in ref._trees
        ]
        assert same_floats(fast.feature_importances_, ref.feature_importances_)

    @pytest.mark.parametrize("d", [12, 24, 30])
    def test_ensemble_shaped_forests_equal_reference(self, d):
        # The ensemble tuner's forests: 20 trees of depth 7 on a few
        # dozen log runtimes.  Over this many nodes some split decision
        # hinges on the last ulp of a squared partial sum, so scanning
        # with ``s * s`` in place of ``s ** 2`` shows up here.
        for seed in range(17):
            data = np.random.default_rng([d, seed])
            n = 8 + seed % 13
            X = data.random((n, d))
            y = np.log1p(np.exp(data.normal(size=n) + 3.0))

            def fit():
                return RandomForest(n_trees=20, max_depth=7, seed=seed).fit(X, y)

            fast = fit()
            with reference_trees():
                ref = fit()
            assert [tree_state(t) for t in fast._trees] == [
                tree_state(t) for t in ref._trees
            ], seed

    def test_huge_targets_keep_numpy_overflow_semantics(self):
        # Partial sums near 1e160 square past the float range: numpy
        # scalars give inf where Python floats would raise.
        data = np.random.default_rng(4)
        X, y = data.random((30, 3)), data.normal(size=30) * 1e160
        with np.errstate(all="ignore"):
            fast = RegressionTree(min_samples_leaf=1).fit(X, y)
            with reference_trees():
                ref = RegressionTree(min_samples_leaf=1).fit(X, y)
        assert tree_state(fast) == tree_state(ref)


# -- anchor jitter -------------------------------------------------------------

def assert_jitter_matches(pool, configs, space):
    assert len(pool) == len(configs)
    expected = np.stack([c.to_array() for c in configs])
    assert same_floats(pool.X, expected)
    for got, want in zip(pool, configs):
        assert got == want
        assert repr(got.to_dict()) == repr(want.to_dict())
        assert got.space is space


def anchors_for(space, seed, count):
    rng = np.random.default_rng(seed)
    return [space.sample_configuration(rng) for _ in range(count)]


def compare_jitter(space, anchors, make_rng, scale=0.08):
    fast_rng, ref_rng = make_rng(), make_rng()
    pool = pool_module.jitter_pool(space, anchors, fast_rng, scale, 16)
    assert_jitter_matches(pool, reference_jitter(space, anchors, ref_rng, scale), space)
    assert generator_state(fast_rng) == generator_state(ref_rng)


class TestBlockJitter:
    @settings(**_SETTINGS)
    @given(
        system=st.sampled_from(["dbms", "spark", "hadoop"]),
        seed=st.integers(0, 2**20),
        count=st.integers(1, 3),
        scale=st.sampled_from([0.02, 0.08, 0.3]),
    )
    def test_block_equals_scalar_loop(self, system, seed, count, scale):
        space = make_system(system).config_space
        compare_jitter(
            space, anchors_for(space, seed, count),
            lambda: np.random.default_rng(seed + 1), scale,
        )

    def test_block_path_runs_on_interior_anchors(self, monkeypatch):
        calls = count_calls(monkeypatch, pool_module, "scalar_jitter")
        space = make_system("spark").config_space
        anchors = [space.default_configuration()]
        compare_jitter(space, anchors, lambda: np.random.default_rng(3), 0.02)
        assert calls == []

    def test_rejected_row_falls_back(self, monkeypatch):
        space = ConfigurationSpace([
            NumericParameter("x", 2.0, 0.0, 4.0),
            NumericParameter("y", 1.0, 0.0, 4.0),
        ])
        space.add_constraint(make_constraint("cap", ("x",), lambda v: v["x"] <= 2.0))
        calls = count_calls(monkeypatch, pool_module, "scalar_jitter")
        compare_jitter(
            space, [space.default_configuration()] * 2,
            lambda: np.random.default_rng(5),
        )
        assert calls == [1]

    def test_mt19937_falls_back(self, monkeypatch):
        calls = count_calls(monkeypatch, pool_module, "scalar_jitter")
        space = make_system("hadoop").config_space
        compare_jitter(
            space, anchors_for(space, 1, 2),
            lambda: np.random.Generator(np.random.MT19937(8)),
        )
        assert calls == [1]

    def test_space_overriding_from_array_falls_back(self, monkeypatch):
        class Shifted(ConfigurationSpace):
            def from_array(self, x):
                return super().from_array(np.asarray(x) * 0.5)

        space = Shifted([
            NumericParameter("x", 1.0, 0.0, 4.0),
            NumericParameter("y", 3, 1, 9, integer=True),
        ])
        calls = count_calls(monkeypatch, pool_module, "scalar_jitter")
        compare_jitter(
            space, [space.default_configuration()], lambda: np.random.default_rng(2)
        )
        assert calls == [1]

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.default_rng(0),
        lambda: np.random.Generator(np.random.MT19937(0)),
    ])
    def test_predicate_error_propagates(self, make_rng):
        space = ConfigurationSpace([NumericParameter("x", 1.0, 0.0, 4.0)])
        anchors = [space.default_configuration()]
        space.add_constraint(
            make_constraint("ratio", ("x",), lambda v: v["x"] / 0 < 1.0)
        )
        with pytest.raises(ZeroDivisionError):
            reference_jitter(space, anchors, make_rng(), 0.08)
        rng = make_rng()
        before = generator_state(rng)
        with pytest.raises(ZeroDivisionError):
            pool_module.jitter_pool(space, anchors, rng, 0.08, 16)
        if type(rng.bit_generator) is np.random.PCG64:
            assert generator_state(rng) == before  # the block was undone

    def test_candidate_pool_keeps_jitter_lazy(self):
        space = make_system("dbms").config_space
        anchor = space.default_configuration()
        pool = candidate_pool(space, np.random.default_rng(6), n_random=5, anchors=[anchor])
        assert len(pool) == 5 + 16
        assert pool._configs[5:] == [None] * 16
        ref_rng = np.random.default_rng(6)
        head = space.sample_pool(5, ref_rng)
        tail = reference_jitter(space, [anchor], ref_rng, 0.08)
        assert same_floats(pool.X[5:], np.stack([c.to_array() for c in tail]))
        assert list(pool) == list(head) + tail


# -- end to end: session digests against the reference loops ------------------

_WORKLOADS = {
    "dbms": lambda: htap_mixed(0.3),
    "spark": lambda: spark_sort(2.0),
    "hadoop": lambda: terasort(2.0),
}

_TUNERS = {
    "bayesopt": lambda: make_tuner("bayesopt", n_init=4, n_candidates=60),
    "ituned": lambda: make_tuner("ituned", n_init=5, batch_size=2, n_candidates=60),
    "nn-tuner": lambda: make_tuner(
        "nn-tuner", n_init=5, epochs=30, hidden=(12, 12), n_candidates=60
    ),
    "ensemble": lambda: make_tuner(
        "ensemble", n_init=5, mlp_epochs=30, n_candidates=60
    ),
}


def _session_digest(tuner_name, system_name):
    inner = make_system(system_name, cluster=standard_cluster())
    system = InstrumentedSystem(inner, noise=0.05, rng=np.random.default_rng(11))
    result = _TUNERS[tuner_name]().tune(
        system, _WORKLOADS[system_name](), Budget(max_runs=11),
        rng=np.random.default_rng(7),
    )
    return result.history.digest()


#: Model fits each tuner's session must reach, so the parity is not vacuous.
_FITS = {
    "bayesopt": (), "ituned": (),
    "nn-tuner": ("mlp",), "ensemble": ("mlp", "tree"),
}


@pytest.mark.parametrize("system_name", ["dbms", "spark", "hadoop"])
@pytest.mark.parametrize("tuner_name", sorted(_TUNERS))
def test_session_digest_equals_reference_loops(tuner_name, system_name, monkeypatch):
    with pytest.MonkeyPatch.context() as mp:
        seen = {
            "mlp": count_calls(mp, MLPRegressor, "fit"),
            "tree": count_calls(mp, RegressionTree, "_build"),
            "fallback": count_calls(mp, pool_module, "scalar_jitter"),
        }
        fast = _session_digest(tuner_name, system_name)
    assert all(seen[kind] for kind in _FITS[tuner_name])
    assert seen["fallback"] == []  # the jitter block ran

    def jitter_reference(space, anchors, rng, scale, repeats):
        return pool_module.CandidatePool.from_configurations(
            space, reference_jitter(space, anchors, rng, scale, repeats)
        )

    monkeypatch.setattr(MLPRegressor, "fit", reference_mlp_fit)
    monkeypatch.setattr(RegressionTree, "_build", reference_build)
    monkeypatch.setattr(common_module, "jitter_pool", jitter_reference)
    assert _session_digest(tuner_name, system_name) == fast
