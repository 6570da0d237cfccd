"""Array-native candidate pools against the scalar loops they replace.

``ConfigurationSpace.sample_pool`` promises exactly what ``n`` calls of
``sample_configuration`` give (failed calls skipped): the same
configurations in the same order, a unit matrix bitwise equal to the
stacked ``to_array`` encodings, and the same generator state afterwards.
The column-wise decode/encode methods promise per-element equality with
``from_unit``/``to_unit``.  The scalar loops below are the reference.
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
from repro.core.pool import CandidatePool, lemire
from repro.core.registry import make_system
from repro.exceptions import ConstraintViolation, ValidationError
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
    if draw(st.booleans()):
        return BooleanParameter(name, draw(st.booleans()))
    k = draw(st.integers(2, 7))
    if draw(st.booleans()):
        choices = [f"v{j}" for j in range(k)]
    else:
        choices = [3 * j - 4 for j in range(k)]
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


class TestColumnDecodeEncode:
    _UNITS = st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(0.0, 1.0),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.5]),
        ),
        min_size=1,
        max_size=40,
    )

    @settings(**_SETTINGS)
    @given(param=numeric_parameters(), u=_UNITS)
    def test_numeric_decode_and_encode_match_per_knob(self, param, u):
        decoded = param.from_unit_array(np.array(u)).tolist()
        expected = [param.from_unit(x) for x in u]
        # repr pins type, sign of zero and every bit of a float.
        assert [repr(v) for v in decoded] == [repr(v) for v in expected]
        encoded = param.to_unit_array(np.array(expected, dtype=float)).tolist()
        assert [repr(v) for v in encoded] == [repr(param.to_unit(v)) for v in expected]

    @settings(**_SETTINGS)
    @given(param=categorical_parameters(), u=_UNITS)
    def test_categorical_decode_and_encode_match_per_knob(self, param, u):
        index = param.index_from_unit_array(np.array(u))
        assert [param.choices[i] for i in index] == [param.from_unit(x) for x in u]
        encoded = param.unit_from_index_array(index).tolist()
        expected = [param.to_unit(param.choices[i]) for i in index]
        assert [repr(v) for v in encoded] == [repr(v) for v in expected]

    def test_nan_decodes_like_builtin_max(self):
        # max(0.0, nan) is 0.0 where np.maximum(0.0, nan) is nan.
        p = NumericParameter("x", 1.0, 1.0, 9.0)
        assert p.from_unit_array(np.array([math.nan])).tolist() == [p.from_unit(math.nan)] == [1.0]


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
