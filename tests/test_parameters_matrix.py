"""Array-native candidate pools and batches against the scalar loops
they replace.

``ConfigurationSpace.sample_pool`` promises exactly what ``n`` calls of
``sample_configuration`` give (failed calls skipped): the same
configurations in the same order, a unit matrix bitwise equal to the
stacked ``to_array`` encodings, and the same generator state afterwards.
The population tuners' block asks (``sample_configurations``,
``decode_feasible``, ``gaussian_configurations``) promise the same of
their scalar loops.  ``PoolLayout``'s block decode/encode promises
per-element equality with ``from_unit``/``to_unit``.  The scalar loops
below are the reference.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_tuner
from repro.bench.harness import standard_cluster
from repro.core import (
    BooleanParameter,
    Budget,
    CategoricalParameter,
    ConfigurationSpace,
    InstrumentedSystem,
    NumericParameter,
    make_constraint,
)
from repro.core import pool as pool_module
from repro.core.driver import Candidate
from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.core.pool import (
    CandidatePool, decode_feasible, gaussian_configurations, lemire,
    sample_configurations,
)
from repro.core.registry import make_system
from repro.core.system import SystemUnderTune
from repro.exceptions import ConstraintViolation, ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.tuners import CrossEntropyTuner, GeneticTuner, RandomSearchTuner
from repro.tuners.common import candidate_pool
from repro.tuners.ml.ottertune import build_repository
from repro.workloads import htap_mixed, spark_sort, terasort

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def scalar_reference(space, n, rng, max_tries=256):
    """The loop ``candidate_pool`` ran before pools became matrices."""
    configs = []
    for _ in range(n):
        try:
            configs.append(space.sample_configuration(rng, max_tries))
        except ValidationError:
            continue
    return configs


def generator_state(rng):
    """The bit generator's full state, arrays (MT19937's key) as lists."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def assert_pool_matches(pool, configs, space):
    assert len(pool) == len(configs)
    assert pool.X.shape == (len(configs), space.dimension)
    if configs:
        stacked = np.stack([c.to_array() for c in configs])
        assert pool.X.tobytes() == stacked.tobytes()
    for built, expected in zip(pool, configs):
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built.to_dict()) == repr(expected.to_dict())


# -- random spaces --------------------------------------------------------


@st.composite
def numeric_parameters(draw, name="x"):
    kind = draw(st.sampled_from(["int", "real", "log", "logint"]))
    if kind in ("log", "logint"):
        low = draw(st.floats(1e-3, 1e3))
        high = low * draw(st.floats(1.5, 1e6))
        if kind == "logint":
            low, high = max(1.0, math.floor(low)), max(2.0, math.ceil(high))
        return NumericParameter(
            name, low, low, high, integer=kind == "logint", log_scale=True
        )
    if kind == "int":
        low = draw(st.integers(-1000, 1000)) + draw(st.sampled_from([0.0, 0.5]))
        high = math.ceil(low) + draw(st.integers(1, 5000)) + draw(
            st.sampled_from([0.0, 0.25])
        )
        return NumericParameter(name, math.ceil(low), low, high, integer=True)
    low = draw(st.floats(-1e6, 1e6))
    high = low + draw(st.floats(1e-3, 1e6))
    return NumericParameter(name, low, low, high)


@st.composite
def categorical_parameters(draw, name="c"):
    kind = draw(st.sampled_from(["bool", "str", "int", "mixed"]))
    if kind == "bool":
        return BooleanParameter(name, draw(st.booleans()))
    k = draw(st.integers(2, 7))
    if kind == "str":
        choices = [f"v{j}" for j in range(k)]
    elif kind == "int":
        choices = [3 * j - 4 for j in range(k)]
    else:
        # ``False == 0``: to_unit encodes False as the index of 0.
        choices = [0, False, (1, 2), "x", 2.5, None, True][:k]
    return CategoricalParameter(name, choices[0], choices)


@st.composite
def random_spaces(draw):
    space = ConfigurationSpace(name="random")
    numeric, categorical = [], []
    for i in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            p = draw(numeric_parameters(f"n{i}"))
            numeric.append(p)
        else:
            p = draw(categorical_parameters(f"c{i}"))
            categorical.append(p)
        space.add(p)
    if numeric:
        a = numeric[0]
        b = numeric[-1]
        lo, hi = a.low - 0.3 * b.high, a.high - 0.3 * b.low
        cap = lo + draw(st.floats(0.3, 1.0)) * (hi - lo)
        # Vectorizes: plain arithmetic and a comparison.
        space.add_constraint(make_constraint(
            "arith", (a.name, b.name),
            lambda v, a=a.name, b=b.name, cap=cap: v[a] - 0.3 * v[b] <= cap,
        ))
        gate = categorical[0].name if categorical else None
        first = categorical[0].choices[0] if categorical else None
        bound = a.low + draw(st.floats(0.3, 1.0)) * (a.high - a.low)

        def branchy(v, a=a.name, gate=gate, first=first, bound=bound,
                    low=a.low, high=a.high):
            # ``if``/``and`` cannot run on arrays: checked row by row.
            if gate is not None and v[gate] == first:
                return v[a] <= bound
            return v[a] >= low and v[a] <= high

        space.add_constraint(make_constraint("branchy", (a.name,), branchy))
    return space


class TestSamplePoolMatchesScalarLoop:
    @settings(**_SETTINGS)
    @given(
        space=random_spaces(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        pre_draw=st.booleans(),
        max_tries=st.sampled_from([256, 3]),
    )
    def test_configs_matrix_and_generator_state(
        self, space, seed, n, pre_draw, max_tries
    ):
        matrix_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        if pre_draw:  # leaves a 32-bit half-word buffered
            matrix_rng.integers(3)
            scalar_rng.integers(3)
        pool = space.sample_pool(n, matrix_rng, max_tries=max_tries)
        configs = scalar_reference(space, n, scalar_rng, max_tries)
        assert_pool_matches(pool, configs, space)
        assert generator_state(matrix_rng) == generator_state(scalar_rng)

    @pytest.mark.parametrize("system", ["dbms", "spark", "hadoop"])
    @pytest.mark.parametrize("pre_draw", [False, True])
    def test_simulator_spaces(self, system, pre_draw):
        space = make_system(system).config_space
        for seed in range(3):
            matrix_rng = np.random.default_rng(seed)
            scalar_rng = np.random.default_rng(seed)
            if pre_draw:
                matrix_rng.integers(3)
                scalar_rng.integers(3)
            pool = space.sample_pool(300, matrix_rng)
            configs = scalar_reference(space, 300, scalar_rng)
            assert_pool_matches(pool, configs, space)
            assert generator_state(matrix_rng) == generator_state(scalar_rng)

    def test_nearly_infeasible_space_spans_blocks(self):
        # One attempt in ~40 is feasible: the draw runs over several blocks.
        space = ConfigurationSpace([
            NumericParameter("x", 0.0, 0.0, 1.0),
            BooleanParameter("b", False),
        ])
        space.add_constraint(make_constraint("rare", ("x",), lambda v: v["x"] < 0.025))
        matrix_rng, scalar_rng = np.random.default_rng(5), np.random.default_rng(5)
        pool = space.sample_pool(200, matrix_rng, max_tries=30)
        configs = scalar_reference(space, 200, scalar_rng, max_tries=30)
        assert 0 < len(configs) < 200
        assert_pool_matches(pool, configs, space)
        assert generator_state(matrix_rng) == generator_state(scalar_rng)

    def test_pool_builds_configurations_lazily(self):
        space = make_system("dbms").config_space
        pool = space.sample_pool(50, np.random.default_rng(1))
        assert all(c is None for c in pool._configs)
        first = pool[3]
        assert pool[3] is first and pool[-47] is first
        assert sum(c is not None for c in pool._configs) == 1
        assert not pool.X.flags.writeable
        with pytest.raises(IndexError):
            pool[50]


def exact(value):
    """Type plus every bit: ``float.hex`` for floats, ``repr`` otherwise."""
    text = value.hex() if type(value) is float else repr(value)
    return type(value).__name__, text


class TestColumnDecodeEncode:
    """``PoolLayout`` decode/encode equals per-element ``from_unit``/``to_unit``."""

    _UNIT = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(0.0, 1.0),
        st.floats(-2.0, 3.0),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.5]),
    )
    _UNITS = st.lists(_UNIT, min_size=1, max_size=40)

    @staticmethod
    def _decode_one(param, u):
        space = ConfigurationSpace([param])
        layout = space.pool_layout()
        codes = layout.decode(np.array(u, dtype=float)[:, None])
        layout.validate(codes)
        X = layout.encode(codes)
        configs = layout.rows(codes).configurations(space, X)
        return [config[param.name] for config in configs], X

    @settings(**_SETTINGS)
    @given(param=numeric_parameters(), u=_UNITS)
    def test_numeric_decode_and_encode_match_per_knob(self, param, u):
        decoded, X = self._decode_one(param, u)
        expected = [param.from_unit(x) for x in u]
        assert [exact(v) for v in decoded] == [exact(v) for v in expected]
        assert [exact(v) for v in X[:, 0].tolist()] == [
            exact(param.to_unit(v)) for v in expected
        ]

    @settings(**_SETTINGS)
    @given(param=categorical_parameters(), u=_UNITS)
    def test_categorical_decode_and_encode_match_per_knob(self, param, u):
        decoded, X = self._decode_one(param, u)
        expected = [param.from_unit(x) for x in u]
        assert [exact(v) for v in decoded] == [exact(v) for v in expected]
        assert [exact(v) for v in X[:, 0].tolist()] == [
            exact(param.to_unit(v)) for v in expected
        ]

    @settings(**_SETTINGS)
    @given(space=random_spaces(), data=st.data())
    def test_block_decode_and_encode_match_per_element(self, space, data):
        n = data.draw(st.integers(1, 12))
        U = np.array(
            [[data.draw(self._UNIT) for _ in range(space.dimension)] for _ in range(n)]
        )
        layout = space.pool_layout()
        codes = layout.decode(U)
        layout.validate(codes)
        rows = layout.rows(codes)
        X = layout.encode(codes)
        configs = rows.configurations(space, X)
        params = space.parameters()
        for i, config in enumerate(configs):
            expected = {p.name: p.from_unit(float(u)) for p, u in zip(params, U[i])}
            for row in (config.to_dict(), rows(i)):
                assert list(row) == list(expected)
                assert [exact(v) for v in row.values()] == [
                    exact(v) for v in expected.values()
                ]
            assert [exact(v) for v in X[i].tolist()] == [
                exact(p.to_unit(expected[p.name])) for p in params
            ]
            # Built without the constraint check: compare the hash only.
            assert hash(config) == hash(tuple(sorted(
                (k, repr(v)) for k, v in expected.items()
            )))

    def test_integer_ties_round_half_to_even(self):
        # u = (2j + 1) / 16 lands exactly on j + 0.5: round() goes to even.
        p = NumericParameter("n", 0, 0, 8, integer=True)
        u = [(2 * j + 1) / 16 for j in range(8)]
        decoded, _ = self._decode_one(p, u)
        assert decoded == [p.from_unit(x) for x in u] == [0, 2, 2, 4, 4, 6, 6, 8]

    def test_log_knob_block_uses_libm_per_element(self):
        # numpy's SIMD log/exp may differ from math.log/math.exp in the
        # last ulp.  On a 2-core x86_64 host about 7 in 10,000 encodes of
        # this knob differ, so a block this large catches a swap.
        p = NumericParameter("size", 1.0, 1.0, 64.0, log_scale=True)
        u = np.random.default_rng(0).random(100_000).tolist()
        decoded, X = self._decode_one(p, u)
        expected = [p.from_unit(x) for x in u]
        assert [v.hex() for v in decoded] == [v.hex() for v in expected]
        assert [v.hex() for v in X[:, 0].tolist()] == [
            p.to_unit(v).hex() for v in expected
        ]

    def test_nan_decodes_like_builtin_max(self):
        # max(0.0, nan) is 0.0 where np.maximum(0.0, nan) is nan.
        p = NumericParameter("x", 1.0, 1.0, 9.0)
        decoded, _ = self._decode_one(p, [math.nan])
        assert decoded == [p.from_unit(math.nan)] == [1.0]


class TestBlockValidation:
    def _codes(self):
        space = ConfigurationSpace([
            NumericParameter("x", 1.0, 0.0, 10.0),
            NumericParameter("n", 4, 1, 64, integer=True, log_scale=True),
            CategoricalParameter("c", "lo", ["lo", "mid", "hi"]),
        ])
        layout = space.pool_layout()
        codes = layout.decode(np.full((4, 3), 0.5))
        layout.validate(codes)  # a decoded block is valid
        return layout, codes

    @pytest.mark.parametrize("corrupt", [
        lambda c: c.num.__setitem__((2, 0), 10.5),  # above high
        lambda c: c.num.__setitem__((1, 0), -1e-9),  # below low
        lambda c: c.num.__setitem__((3, 0), math.nan),  # NaN is no value
        lambda c: c.num.__setitem__((0, 1), 8.5),  # integer knob, fractional
        lambda c: c.index.__setitem__((1, 0), 3),  # no fourth choice
        lambda c: c.index.__setitem__((2, 0), -1),
    ])
    def test_invalid_value_raises(self, corrupt):
        layout, codes = self._codes()
        corrupt(codes)
        with pytest.raises(ValidationError):
            layout.validate(codes)


class TestFallbackPaths:
    def test_lemire_flags_zero_low_half_for_k3(self):
        word = np.uint64(0x9E3779B900000000)  # low 32 bits are 0
        index, rejected = lemire(np.array([word & np.uint64(0xFFFFFFFF)]), np.array([3]))
        assert rejected.tolist() == [True]
        # Power-of-two ranges never reject; neither does a typical draw.
        _, rejected = lemire(np.array([0, 12345, 2**32 - 1]), np.array([2]))
        assert not rejected.any()
        index, rejected = lemire(np.array([2**31]), np.array([3]))
        assert index.tolist() == [1] and not rejected.any()

    @pytest.mark.parametrize("row, falls_back", [(5, True), (-1, False)])
    def test_flagged_rejection_falls_back_only_inside_consumed_rows(
        self, row, falls_back, monkeypatch
    ):
        def reject_one_row(u32, k):
            index, rejected = lemire(u32, k)
            rejected[row] = True
            return index, rejected

        calls = []
        scalar = pool_module.scalar_pool
        monkeypatch.setattr(pool_module, "lemire", reject_one_row)
        monkeypatch.setattr(
            pool_module, "scalar_pool",
            lambda *args, **kw: calls.append(1) or scalar(*args, **kw),
        )
        # Spark has no constraint that binds, so 40 samples consume 40
        # attempts and the block's last attempt is drawn but not used.
        space = make_system("spark").config_space
        matrix_rng, scalar_rng = np.random.default_rng(9), np.random.default_rng(9)
        pool = space.sample_pool(40, matrix_rng)
        assert calls == ([1] if falls_back else [])
        assert_pool_matches(pool, scalar_reference(space, 40, scalar_rng), space)
        assert generator_state(matrix_rng) == generator_state(scalar_rng)

    @pytest.mark.parametrize("seed", [0, 17])
    def test_mt19937_takes_scalar_fallback(self, seed, monkeypatch):
        calls = []
        scalar = pool_module.scalar_pool
        monkeypatch.setattr(
            pool_module, "scalar_pool",
            lambda *args, **kw: calls.append(1) or scalar(*args, **kw),
        )
        space = make_system("hadoop").config_space
        matrix_rng = np.random.Generator(np.random.MT19937(seed))
        scalar_rng = np.random.Generator(np.random.MT19937(seed))
        pool = space.sample_pool(60, matrix_rng)
        assert calls == [1]
        assert_pool_matches(pool, scalar_reference(space, 60, scalar_rng), space)
        assert generator_state(matrix_rng) == generator_state(scalar_rng)


class TestCandidatePoolErrors:
    def _space(self):
        space = ConfigurationSpace([
            NumericParameter("x", 1.0, 0.0, 4.0),
            BooleanParameter("b", False),
        ])
        space.add_constraint(make_constraint(
            "ratio", ("x",), lambda v: v["x"] / 0 < 1.0
        ))
        return space

    def test_predicate_error_propagates(self):
        with pytest.raises(ZeroDivisionError):
            candidate_pool(self._space(), np.random.default_rng(0), n_random=16)

    def test_predicate_error_propagates_on_scalar_fallback(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ZeroDivisionError):
            candidate_pool(self._space(), rng, n_random=16)

    def test_predicate_raising_constraint_violation_rejects_row(self):
        # is_feasible treats a ConstraintViolation from the predicate
        # itself as "infeasible"; the row-by-row check must agree.
        def veto(v):
            if v["x"] > 2.0:
                raise ConstraintViolation("veto", "x above 2")
            return True

        space = ConfigurationSpace([NumericParameter("x", 1.0, 0.0, 4.0)])
        space.add_constraint(make_constraint("veto", ("x",), veto))
        matrix_rng, scalar_rng = np.random.default_rng(2), np.random.default_rng(2)
        pool = space.sample_pool(30, matrix_rng)
        assert_pool_matches(pool, scalar_reference(space, 30, scalar_rng), space)
        assert generator_state(matrix_rng) == generator_state(scalar_rng)

    def test_exhausted_samples_are_skipped(self):
        space = ConfigurationSpace([NumericParameter("x", 5, 0, 10)])
        space.add_constraint(make_constraint("never", ["x"], lambda v: False))
        rng = np.random.default_rng(0)
        assert len(candidate_pool(space, rng, n_random=4)) == 0


# -- end to end: session digests with matrix vs scalar pools ----------------

_WORKLOADS = {
    "dbms": lambda: htap_mixed(0.3),
    "spark": lambda: spark_sort(2.0),
    "hadoop": lambda: terasort(2.0),
}

_TUNERS = {
    "bayesopt": lambda system, workload: make_tuner("bayesopt", n_init=4, n_candidates=80),
    "ituned": lambda system, workload: make_tuner(
        "ituned", n_init=5, batch_size=2, n_candidates=80
    ),
    "nn-tuner": lambda system, workload: make_tuner(
        "nn-tuner", n_init=5, epochs=20, hidden=(8, 8), n_candidates=80
    ),
    "ensemble": lambda system, workload: make_tuner(
        "ensemble", n_init=5, mlp_epochs=20, n_candidates=80
    ),
    "adaptive-sampling": lambda system, workload: make_tuner(
        "adaptive-sampling", n_bootstrap=5, n_candidates=80
    ),
    "ottertune": lambda system, workload: make_tuner(
        "ottertune",
        repository=build_repository(
            system, [workload], n_samples=10,
            rng=np.random.default_rng(3),
        ),
        n_init=4,
        n_candidates=80,
    ),
}


def _session_digest(tuner_name, system_name):
    inner = make_system(system_name, cluster=standard_cluster())
    system = InstrumentedSystem(
        inner, noise=0.05, rng=np.random.default_rng(11)
    )
    workload = _WORKLOADS[system_name]()
    tuner = _TUNERS[tuner_name](inner, workload)
    result = tuner.tune(
        system, workload, Budget(max_runs=9),
        rng=np.random.default_rng(7),
    )
    return result.history.digest()


@pytest.mark.parametrize("system_name", ["dbms", "spark", "hadoop"])
@pytest.mark.parametrize("tuner_name", sorted(_TUNERS))
def test_session_digest_matrix_equals_scalar_pool(tuner_name, system_name, monkeypatch):
    fallbacks = []
    scalar = pool_module.scalar_pool
    monkeypatch.setattr(
        pool_module, "scalar_pool",
        lambda *args, **kw: fallbacks.append(1) or scalar(*args, **kw),
    )
    matrix = _session_digest(tuner_name, system_name)
    assert fallbacks == []  # the matrix path really ran

    def reference_pool(space, n, rng, max_tries=256):
        return CandidatePool.from_configurations(
            space, scalar_reference(space, n, rng, max_tries)
        )

    monkeypatch.setattr(ConfigurationSpace, "sample_pool", reference_pool)
    assert _session_digest(tuner_name, system_name) == matrix


# -- population batches: block asks against their scalar loops --------------


def assert_configs_match(block, scalar):
    assert len(block) == len(scalar)
    for built, expected in zip(block, scalar):
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built.to_dict()) == repr(expected.to_dict())
        assert built.to_array().tobytes() == expected.to_array().tobytes()
        # The memo equals a fresh encode.
        assert built.to_array().tobytes() == built.space.to_array(built).tobytes()


def assert_same_outcome(block_call, scalar_call, make_rng):
    """Same configurations, or the same error, and the same rng state."""
    block_rng, scalar_rng = make_rng(), make_rng()
    try:
        scalar = scalar_call(scalar_rng)
    except ConstraintViolation:
        # A repair gave up on a random space whose default is infeasible.
        with pytest.raises(ConstraintViolation):
            block_call(block_rng)
    else:
        assert_configs_match(block_call(block_rng), scalar)
    assert generator_state(block_rng) == generator_state(scalar_rng)


def _fresh_metrics(monkeypatch):
    """A fresh process-wide metrics registry for this test."""
    registry = MetricsRegistry()
    monkeypatch.setattr("repro.obs.metrics._GLOBAL", registry)
    return registry


def _repair_space(row_by_row=False):
    space = ConfigurationSpace([
        NumericParameter("x", 1.0, 0.0, 10.0),
        NumericParameter("n", 4, 1, 64, integer=True, log_scale=True),
        BooleanParameter("b", False),
        CategoricalParameter("c", "lo", ["lo", "mid", "hi"]),
    ])
    if row_by_row:
        def cap(v):
            # ``if`` cannot run on arrays: checked row by row.
            if v["b"]:
                return v["x"] + v["n"] <= 40
            return v["x"] + v["n"] <= 45
    else:
        def cap(v):
            return v["x"] + v["n"] <= 40
    space.add_constraint(make_constraint("cap", ("x", "n", "b"), cap))
    return space


class TestDecodeFeasible:
    """``decode_feasible`` is ``[space.from_array_feasible(x, rng) for x in X]``."""

    @staticmethod
    def _compare(space, X, seed=4, make_rng=np.random.default_rng):
        assert_same_outcome(
            lambda rng: decode_feasible(space, X, rng),
            lambda rng: [space.from_array_feasible(x, rng) for x in X],
            lambda: make_rng(seed),
        )

    @pytest.mark.parametrize("row_by_row", [False, True])
    @pytest.mark.parametrize("infeasible", [[], [0], [4], [7], [2, 5], [0, 1, 7]])
    def test_infeasible_rows_anywhere(self, infeasible, row_by_row, monkeypatch):
        registry = _fresh_metrics(monkeypatch)
        space = _repair_space(row_by_row)
        X = np.random.default_rng(1).random((8, 4)) * 0.5
        X[infeasible, :2] = 1.0  # x = 10, n = 64: over the cap
        self._compare(space, X)
        outcome = "scalar_fallback.infeasible_row" if infeasible else "block"
        assert registry.value(f"core.pool.{outcome}") == 1

    @settings(**_SETTINGS)
    @given(space=random_spaces(), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 12))
    def test_random_spaces(self, space, seed, n):
        X = np.random.default_rng(seed).random((n, space.dimension))
        self._compare(space, X, seed)

    def test_other_bit_generators_decode_as_a_block(self):
        # The block path draws nothing, so the generator does not matter.
        space = _repair_space()
        X = np.random.default_rng(2).random((6, 4))
        X[3, :2] = 1.0
        self._compare(space, X, make_rng=lambda s: np.random.Generator(np.random.MT19937(s)))

    def test_predicate_error_propagates_after_earlier_repairs(self):
        # Row 1 needs a repair (drawing from rng); row 3 makes the
        # predicate raise.  Both loops raise there, with rng in the
        # same state.
        def picky(v):
            if v["x"] > 9.9 and not v["b"]:
                raise ZeroDivisionError("row 3")
            return v["x"] <= 8.0

        space = ConfigurationSpace([
            NumericParameter("x", 1.0, 0.0, 10.0), BooleanParameter("b", False),
        ])
        space.add_constraint(make_constraint("picky", ("x", "b"), picky))
        X = np.array([[0.1, 0.0], [0.9, 1.0], [0.2, 0.0], [1.0, 0.0], [0.3, 0.0]])
        block_rng, scalar_rng = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ZeroDivisionError):
            decode_feasible(space, X, block_rng)
        with pytest.raises(ZeroDivisionError):
            [space.from_array_feasible(x, scalar_rng) for x in X]
        assert generator_state(block_rng) == generator_state(scalar_rng)


def scalar_gaussian_reference(space, mean, std, n, rng):
    """CEM's per-row loop before batches were decoded as blocks."""
    return [
        space.from_array_feasible(np.clip(rng.normal(mean, std), 0.0, 1.0), rng)
        for _ in range(n)
    ]


class TestGaussianConfigurations:
    @settings(**_SETTINGS)
    @given(space=random_spaces(), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 10), spread=st.floats(0.01, 1.0), mt=st.booleans())
    def test_matches_scalar_loop(self, space, seed, n, spread, mt):
        make = (
            (lambda: np.random.Generator(np.random.MT19937(seed))) if mt
            else (lambda: np.random.default_rng(seed))
        )
        d = space.dimension
        mean = np.random.default_rng(seed + 1).random(d)
        std = np.full(d, spread)
        assert_same_outcome(
            lambda rng: gaussian_configurations(space, mean, std, n, rng),
            lambda rng: scalar_gaussian_reference(space, mean, std, n, rng),
            make,
        )

    def test_normal_block_is_the_per_row_stream(self):
        mean, std = np.linspace(0.1, 0.9, 7), np.linspace(0.05, 0.5, 7)
        block_rng, row_rng = np.random.default_rng(3), np.random.default_rng(3)
        block = block_rng.normal(mean, std, size=(9, 7))
        rows = np.stack([row_rng.normal(mean, std) for _ in range(9)])
        assert block.tobytes() == rows.tobytes()
        assert generator_state(block_rng) == generator_state(row_rng)

    def test_forced_infeasible_row_counts_a_fallback(self, monkeypatch):
        registry = _fresh_metrics(monkeypatch)
        space = _repair_space()
        # Mean at the corner x = 10, n = 64: most draws break the cap.
        mean, std = np.array([1.0, 1.0, 0.5, 0.5]), np.full(4, 0.05)
        block_rng, scalar_rng = np.random.default_rng(6), np.random.default_rng(6)
        block = gaussian_configurations(space, mean, std, 8, block_rng)
        assert_configs_match(block, scalar_gaussian_reference(space, mean, std, 8, scalar_rng))
        assert generator_state(block_rng) == generator_state(scalar_rng)
        assert registry.value("core.pool.scalar_fallback.infeasible_row") == 1
        assert registry.value("core.pool.block") == 0

    def test_cem_session_counts_infeasible_rows(self, monkeypatch):
        # The default sits at x = 1; the policy's first batches often
        # draw x above 3 and need a repair.
        space = ConfigurationSpace(
            [NumericParameter("x", 1.0, 0.0, 10.0), BooleanParameter("b", False)],
            [make_constraint("low-x", ("x",), lambda v: v["x"] <= 3.0)],
        )

        def digest():
            result = make_tuner("cem").tune(
                _ToySystem(space), htap_mixed(0.3), Budget(max_runs=33),
                rng=np.random.default_rng(0),
            )
            return result.history.digest()

        registry = _fresh_metrics(monkeypatch)
        block = digest()
        assert registry.value("core.pool.scalar_fallback.infeasible_row") >= 1
        assert registry.value("core.pool.block") >= 1
        monkeypatch.setattr(CrossEntropyTuner, "ask", _scalar_cem_ask)
        assert digest() == block


def scalar_sample_reference(space, n, rng):
    return [space.sample_configuration(rng) for _ in range(n)]


class TestSampleConfigurations:
    @settings(**_SETTINGS)
    @given(space=random_spaces(), seed=st.integers(0, 2**32 - 1),
           n=st.integers(0, 12), pre_draw=st.booleans())
    def test_matches_scalar_loop(self, space, seed, n, pre_draw):
        block_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if pre_draw:
            block_rng.integers(3)
            scalar_rng.integers(3)
        try:
            scalar = scalar_sample_reference(space, n, scalar_rng)
        except ValidationError:
            with pytest.raises(ValidationError):
                space.sample_configurations(n, block_rng)
        else:
            assert_configs_match(space.sample_configurations(n, block_rng), scalar)
        assert generator_state(block_rng) == generator_state(scalar_rng)

    def test_short_pool_raises_where_the_scalar_loop_does(self, monkeypatch):
        registry = _fresh_metrics(monkeypatch)
        space = ConfigurationSpace([
            NumericParameter("x", 5.0, 0.0, 10.0), BooleanParameter("b", False),
        ])
        space.add_constraint(make_constraint("never", ("x",), lambda v: v["x"] == 5.0))
        block_rng, scalar_rng = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(ValidationError):
            sample_configurations(space, 4, block_rng)
        with pytest.raises(ValidationError):
            scalar_sample_reference(space, 4, scalar_rng)
        assert generator_state(block_rng) == generator_state(scalar_rng)
        assert registry.value("core.pool.scalar_fallback.short_pool") == 1


class TestEncodedRowMemo:
    def test_to_array_returns_a_fresh_copy(self):
        space = make_system("spark").config_space
        for config in (
            space.sample_pool(4, np.random.default_rng(0))[2],
            space.sample_configurations(3, np.random.default_rng(0))[1],
            decode_feasible(space, np.full((2, space.dimension), 0.3),
                            np.random.default_rng(0))[0],
        ):
            first = config.to_array()
            expected = space.to_array(config)
            assert first.tobytes() == expected.tobytes()
            first[:] = 7.0
            assert config.to_array().tobytes() == expected.tobytes()
            assert config.to_array() is not config.to_array()

    def test_checked_row_equals_validated_configuration(self):
        space = make_system("hadoop").config_space
        config = space.sample_pool(1, np.random.default_rng(5))[0]
        rebuilt = Configuration(space, config.to_dict())
        assert config == rebuilt and hash(config) == hash(rebuilt)
        assert repr(config.to_dict()) == repr(rebuilt.to_dict())
        replaced = config.replace()
        assert replaced.to_array().tobytes() == config.to_array().tobytes()


# -- end to end: population sessions with block vs scalar asks ---------------


def _scalar_cem_ask(self, state):
    if self._stop:
        return []
    self._started = True
    space, rng = state.space, state.rng
    candidates = []
    for i in range(self.batch):
        x = np.clip(rng.normal(self._mean, self._std), 0.0, 1.0)
        candidates.append(
            Candidate(
                space.from_array_feasible(x, rng),
                tag=f"cem-g{self._generation}-{i}",
            )
        )
    return candidates


def _scalar_genetic_ask(self, state):
    space, rng = state.space, state.rng
    if self._generation == 0:
        if self._gen0_asked:
            return []
        self._gen0_asked = True
        return [
            Candidate(space.sample_configuration(rng), tag=f"gen0-{i}")
            for i in range(self.population - 1)
        ]
    d = space.dimension
    scored = sorted(self._scored, key=lambda item: item[0])
    self._pending_elite = list(scored[: self.elite])
    next_pop = [x for _, x in scored[: self.elite]]
    while len(next_pop) < self.population:
        mother = self._select(rng, scored)
        father = self._select(rng, scored)
        mask = rng.random(d) < 0.5
        child = np.where(mask, mother, father)
        mutate = rng.random(d) < self.mutation_rate
        child = np.where(
            mutate,
            np.clip(child + rng.normal(scale=self.mutation_scale, size=d), 0, 1),
            child,
        )
        next_pop.append(child)
    return [
        Candidate(
            space.from_array_feasible(x, rng),
            tag=f"gen{self._generation}-{i}",
        )
        for i, x in enumerate(next_pop[self.elite:])
    ]


def _scalar_random_ask(self, state):
    n = min(self.chunk, state.remaining_runs)
    return [
        Candidate(state.space.sample_configuration(state.rng), tag="random")
        for _ in range(max(n, 1))
    ]


_SCALAR_ASKS = {
    "cem": (CrossEntropyTuner, _scalar_cem_ask),
    "genetic": (GeneticTuner, _scalar_genetic_ask),
    "random-search": (RandomSearchTuner, _scalar_random_ask),
}

_MF = dict(
    multi_fidelity=True, fidelity_rungs=2, fidelity_min=0.25,
    fidelity_eta=2.0, fidelity_min_batch=4,
)


def _population_digest(tuner_name, system_name, multi_fidelity):
    inner = make_system(system_name, cluster=standard_cluster())
    system = InstrumentedSystem(inner, noise=0.05, rng=np.random.default_rng(11))
    tuner = make_tuner(tuner_name, **(_MF if multi_fidelity else {}))
    result = tuner.tune(
        system, _WORKLOADS[system_name](), Budget(max_runs=40),
        rng=np.random.default_rng(7),
    )
    return result.history.digest()


@pytest.mark.parametrize("multi_fidelity", [False, True])
@pytest.mark.parametrize("system_name", ["dbms", "spark", "hadoop"])
@pytest.mark.parametrize("tuner_name", sorted(_SCALAR_ASKS))
def test_population_session_digest_block_equals_scalar_asks(
    tuner_name, system_name, multi_fidelity, monkeypatch
):
    registry = _fresh_metrics(monkeypatch)
    block = _population_digest(tuner_name, system_name, multi_fidelity)
    assert registry.value("core.pool.block") > 0  # the block path really ran
    cls, scalar_ask = _SCALAR_ASKS[tuner_name]
    monkeypatch.setattr(cls, "ask", scalar_ask)
    assert _population_digest(tuner_name, system_name, multi_fidelity) == block


class _ToySystem(SystemUnderTune):
    """Runtime 1 + x over a given space (DBMS workloads accepted)."""

    name = "toy"
    kind = "dbms"

    def __init__(self, space):
        self._space = space

    @property
    def config_space(self):
        return self._space

    def run(self, workload, config):
        return Measurement(runtime_s=1.0 + config["x"])


@pytest.mark.parametrize("tuner_name", ["random-search", "genetic"])
def test_unsatisfiable_constraints_raise_validation_error(tuner_name, monkeypatch):
    # The default is the only feasible point: sampling runs out of tries.
    space = ConfigurationSpace(
        [NumericParameter("x", 5.0, 0.0, 10.0), BooleanParameter("b", False)],
        [make_constraint("only-default", ("x",), lambda v: v["x"] == 5.0)],
    )

    def tune():
        return make_tuner(tuner_name).tune(
            _ToySystem(space), htap_mixed(0.3), Budget(max_runs=6),
            rng=np.random.default_rng(0),
        )

    with pytest.raises(ValidationError, match="could not sample"):
        tune()
    cls, scalar_ask = _SCALAR_ASKS[tuner_name]
    monkeypatch.setattr(cls, "ask", scalar_ask)
    with pytest.raises(ValidationError, match="could not sample"):
        tune()
