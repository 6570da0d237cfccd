"""Tolerated failures on the tuner and evaluation paths are narrow.

Each site below skips one kind of expected failure — an unreadable
stored history, a system the evaluation cache cannot key, an
infeasible sweep point or grid corner — and nothing else: an
unexpected exception (here a monkeypatched plain ``TypeError``, or a
constraint that divides by zero) propagates instead of silently
switching a feature off.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import sweep_importance
from repro.core import (
    Budget, ConfigurationSpace, InstrumentedSystem, NumericParameter,
    make_constraint,
)
from repro.exec.cache import EvaluationCache, Unfingerprintable
from repro.kb import KnowledgeBase
from repro.systems.dbms import DbmsSimulator, olap_analytics, oltp_orders
from repro.tuners import GridSearchTuner, OtterTuneRepository, RandomSearchTuner
from repro.tuners.ml.ottertune import _sample_workloads


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.fixture(scope="module")
def system():
    return DbmsSimulator()


@pytest.fixture()
def kb(system):
    result = RandomSearchTuner().tune(
        system, olap_analytics(), Budget(max_runs=8), np.random.default_rng(0)
    )
    with KnowledgeBase(":memory:") as store:
        store.ingest_result(system, olap_analytics(), result, seed=0)
        store.ingest_result(system, oltp_orders(), result, seed=1)
        yield store


class TestRepositoryFromKb:
    @pytest.mark.parametrize("stored", [
        "{not json",  # JSONDecodeError
        '{"kind": "measurement"}',  # not a history (ValueError)
        '{"kind": "history"}',  # no observations (KeyError)
        None,  # values the space rejects (ValidationError), set below
    ])
    def test_unreadable_history_is_skipped(self, kb, system, stored):
        victim = kb.sessions(workload_name=oltp_orders().name)[0].session_id
        if stored is None:
            row = kb._conn.execute(
                "SELECT history FROM kb_sessions WHERE id = ?", (victim,)
            ).fetchone()
            name = system.config_space.names()[0]
            stored = row["history"].replace(f'"{name}": ', f'"{name}": "x", "_": ', 1)
        kb._conn.execute(
            "UPDATE kb_sessions SET history = ? WHERE id = ?", (stored, victim)
        )
        repo = OtterTuneRepository.from_kb(kb, system, min_samples=1)
        assert [w.name for w in repo.workloads] == [olap_analytics().name]

    def test_unexpected_error_propagates(self, kb, system, monkeypatch):
        monkeypatch.setattr(KnowledgeBase, "history", _raise(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            OtterTuneRepository.from_kb(kb, system, min_samples=1)


class _InlineRunner:
    """Claims two workers so repository sampling warms the cache first."""

    effective_jobs = 2

    def starmap(self, fn, items):
        return [fn(*args) for args in items]


def _sample(system):
    space = system.config_space
    (_, configs, measurements), = _sample_workloads(
        system, [olap_analytics()], space, 6, np.random.default_rng(2),
        _InlineRunner(), EvaluationCache(),
    )
    return configs, measurements


class TestRepositoryCacheWarm:
    def test_unfingerprintable_system_runs_uncached(self, system, monkeypatch):
        configs, expected = _sample(system)
        monkeypatch.setattr(
            EvaluationCache, "key_for", _raise(Unfingerprintable("live state"))
        )
        again, measured = _sample(system)
        assert again == configs
        assert [m.runtime_s for m in measured] == [m.runtime_s for m in expected]

    def test_unexpected_error_propagates(self, system, monkeypatch):
        monkeypatch.setattr(EvaluationCache, "key_for", _raise(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            _sample(system)


class TestSweepImportance:
    def test_unexpected_error_propagates(self, system, monkeypatch):
        monkeypatch.setattr(ConfigurationSpace, "partial", _raise(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            sweep_importance(system, olap_analytics(), levels=3)

    def test_infeasible_sweep_point_is_skipped(self, system, monkeypatch):
        space = system.config_space
        name = space.names()[0]
        original = ConfigurationSpace.partial
        grid = space[name].grid(3)

        def reject_last(self, overrides):
            if overrides.get(name) == grid[-1]:
                from repro.exceptions import ConstraintViolation

                raise ConstraintViolation("test", "rejected sweep point")
            return original(self, overrides)

        monkeypatch.setattr(ConfigurationSpace, "partial", reject_last)
        scores = sweep_importance(system, olap_analytics(), levels=3, knobs=[name])
        assert set(scores) == {name}


class TestRunBatchCacheProbe:
    """``InstrumentedSystem.run_batch`` keys each configuration once."""

    @staticmethod
    def _batch():
        # A fresh simulator: the cache marks systems it cannot key.
        system = DbmsSimulator()
        wrapped = InstrumentedSystem(system, eval_cache=EvaluationCache(), vectorize=True)
        configs = system.config_space.sample_configurations(4, np.random.default_rng(1))
        return wrapped.run_batch(olap_analytics(), configs)

    def test_unfingerprintable_system_runs_uncached(self, monkeypatch):
        expected = self._batch()
        monkeypatch.setattr(
            EvaluationCache, "key_for", _raise(Unfingerprintable("live state"))
        )
        assert [m.runtime_s for m in self._batch()] == [m.runtime_s for m in expected]

    def test_unexpected_error_propagates(self, monkeypatch):
        # Only the batch probe's first key fails; a swallowed error would
        # let the per-configuration runs key (and succeed) on their own.
        key_for = EvaluationCache.key_for
        calls = []

        def fail_first(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise TypeError("bug")  # a plain TypeError, not Unfingerprintable
            return key_for(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationCache, "key_for", fail_first)
        with pytest.raises(TypeError, match="bug") as info:
            self._batch()
        assert type(info.value) is TypeError

    def test_one_key_per_configuration(self, monkeypatch):
        key_for = EvaluationCache.key_for
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return key_for(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationCache, "key_for", counting)
        assert len(self._batch()) == 4
        assert len(calls) == 4


class TestGridSearch:
    @staticmethod
    def _ask(predicate):
        space = ConfigurationSpace([
            NumericParameter("x", 5.0, 0.0, 10.0),
            NumericParameter("y", 5.0, 0.0, 10.0),
        ])
        space.add_constraint(make_constraint("rule", ("x", "y"), predicate))
        state = SimpleNamespace(space=space)
        tuner = GridSearchTuner(levels=3, n_knobs=2)
        tuner.setup(state)
        return tuner.ask(state)

    def test_infeasible_grid_corner_is_skipped(self):
        candidates = self._ask(lambda v: v["x"] + v["y"] < 15.0)
        # The 3 x 3 grid over {0, 5, 10} minus (10, 10), (10, 5), (5, 10).
        assert len(candidates) == 6

    def test_predicate_error_propagates(self):
        with pytest.raises(ZeroDivisionError):
            self._ask(lambda v: 1.0 / (10.0 - v["x"]) > 0.0)
