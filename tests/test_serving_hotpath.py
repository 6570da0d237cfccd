"""Serving hot path: parity of the per-request fast paths.

The service keeps three request-independent results between requests:
each stored fingerprint's metric vector (``rank_similar``), the
fingerprint index (appended to, not rebuilt, when the KB only grew),
and a surrogate's support snapped to the space (``rank_configs``).
Each test here checks one of them against a from-scratch reference
kept in this file: the same answers, in the same order, bit for bit.
"""

import dataclasses
import math
import sqlite3
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Budget
from repro.core.parameters import Constraint, ConfigurationSpace
from repro.kb import KnowledgeBase
from repro.kb.fingerprint import WorkloadFingerprint, rank_similar
from repro.kb.service import RecommendationService
from repro.kb.serving import IngestWriter, ServingConfig
from repro.mlkit.scaler import StandardScaler
from repro.obs.metrics import global_metrics
from repro.surrogate import build_matrices, rank_configs, train_surrogate
from repro.surrogate import recommend as recommend_module
from repro.systems.dbms import DbmsSimulator, olap_analytics, oltp_orders
from repro.systems.hadoop import HadoopSimulator, wordcount
from repro.tuners import RandomSearchTuner

from tests.test_surrogate import _populate


# -- rank_similar --------------------------------------------------------------
def _rank_similar_reference(target, candidates, runtime_weight=1.0):
    """The per-row loop: one vector and one ``np.mean`` per candidate."""
    if not candidates:
        return []
    names = sorted(target.metrics)
    rows = [fp.vector(names) for _, fp in candidates]
    matrix = np.vstack(rows + [target.vector(names)]) if names else np.zeros(
        (len(rows) + 1, 0)
    )
    if names:
        matrix = StandardScaler().fit_transform(matrix)
    target_row = matrix[-1]
    dim = max(len(names), 1)
    scored = []
    for (key, fp), row in zip(candidates, matrix[:-1]):
        metric_d2 = float(np.mean((row - target_row) ** 2)) if names else 0.0
        if (
            math.isfinite(target.probe_runtime_s)
            and math.isfinite(fp.probe_runtime_s)
            and target.probe_runtime_s > 0
            and fp.probe_runtime_s > 0
        ):
            ratio = math.log(fp.probe_runtime_s / target.probe_runtime_s)
        else:
            ratio = 4.0
        distance = math.sqrt(metric_d2 + runtime_weight * ratio * ratio / dim)
        scored.append((key, distance))
    scored.sort(key=lambda kv: kv[1])
    return scored


_METRICS = ("cpu", "io_wait", "lock_wait", "mem", "net")
_values = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_runtimes = st.one_of(
    st.floats(min_value=1e-3, max_value=1e4),
    st.sampled_from([math.inf, 0.0, -1.0, -math.inf]),
)


@st.composite
def _fingerprints(draw, constant):
    # ``constant`` pins one column to a single value across every
    # fingerprint drawn from it: a zero-variance column
    names = draw(st.lists(st.sampled_from(_METRICS), unique=True))
    metrics = {name: draw(_values) for name in names}
    if draw(st.booleans()):
        metrics["const"] = constant
    return WorkloadFingerprint(metrics=metrics,
                               probe_runtime_s=draw(_runtimes))


def _assert_same_ranking(got, want):
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [d.hex() for _, d in got] == [d.hex() for _, d in want]


class TestRankSimilarParity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), constant=_values,
           weight=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def test_matches_per_row_loop(self, data, constant, weight):
        target = data.draw(_fingerprints(constant), label="target")
        stored = data.draw(
            st.lists(_fingerprints(constant), max_size=12), label="stored"
        )
        candidates = list(enumerate(stored))
        want = _rank_similar_reference(target, candidates, weight)
        # twice: the second call reads every stored vector from its cache
        _assert_same_ranking(rank_similar(target, candidates, weight), want)
        _assert_same_ranking(rank_similar(target, candidates, weight), want)

    def test_empty_metric_set_and_no_candidates(self):
        target = WorkloadFingerprint(metrics={}, probe_runtime_s=2.0)
        stored = [WorkloadFingerprint({"cpu": 1.0}, r)
                  for r in (1.0, 4.0, math.inf, 0.0)]
        candidates = list(enumerate(stored))
        _assert_same_ranking(rank_similar(target, candidates),
                             _rank_similar_reference(target, candidates))
        assert rank_similar(target, []) == []

    def test_vector_cache_is_bounded_and_read_only(self):
        fp = WorkloadFingerprint({"cpu": 1.0, "mem": 2.0}, 1.0)
        for i in range(20):
            names = ("cpu", f"m{i}")
            vec = fp.cached_vector(names)
            assert vec.tolist() == fp.vector(names).tolist()
            assert not vec.flags.writeable
        assert len(fp.__dict__["_vectors"]) <= 4
        assert fp == WorkloadFingerprint({"cpu": 1.0, "mem": 2.0}, 1.0)


# -- rank_configs support memo -------------------------------------------------
def _rank_configs_reference(trained, space, fingerprint, n_seeds=8,
                            n_local=0, local_scale=0.07, seed=0):
    """Uncached: snap the whole support and predict twice per call."""
    if tuple(space.names()) != trained.knob_names:
        return []
    if not trained.support_units:
        return []
    rng = np.random.default_rng(recommend_module._seed_for(trained, seed))
    names = list(trained.knob_names)
    pruned = [names.index(k) for k in trained.top_knobs]
    seen = set()
    support = recommend_module._snap(
        space, np.asarray(trained.support_units, dtype=float), seen
    )
    if not support:
        return []
    X1 = np.stack([c.to_array() for c in support])
    mu1, _ = trained.predict(X1, fingerprint)
    order = np.argsort(mu1, kind="stable")[: max(n_seeds, 0)]
    refined = []
    if len(order) and n_local > 0 and pruned:
        blocks = []
        for i in order:
            jitter = rng.normal(0.0, local_scale, size=(n_local, len(pruned)))
            block = np.tile(X1[i], (n_local, 1))
            block[:, pruned] = np.clip(block[:, pruned] + jitter, 0.0, 1.0)
            blocks.append(block)
        refined = recommend_module._snap(space, np.vstack(blocks), seen)
    configs = support + refined
    X = np.stack([c.to_array() for c in configs])
    mu, sd = trained.predict(X, fingerprint)
    return [
        (configs[i], float(mu[i]), None if sd is None else float(sd[i]))
        for i in np.argsort(mu, kind="stable")
    ]


def _comparable(ranked):
    return [
        (config.to_dict(), mu.hex(), None if sd is None else sd.hex())
        for config, mu, sd in ranked
    ]


@pytest.fixture(scope="module")
def hadoop():
    system = HadoopSimulator()
    kb = KnowledgeBase(":memory:")
    _populate(kb, system, [wordcount(input_gb=6), wordcount(input_gb=12)])
    fingerprints = [r.fingerprint for r in kb.sessions()]
    yield kb, system, fingerprints
    kb.close()


def _train(kb, system):
    matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
    return train_surrogate(matrix, kb.version())


@pytest.fixture(scope="module")
def model(hadoop):
    kb, system, _ = hadoop
    return _train(kb, system)


def _fresh(model):
    """The same fitted model in a new object, as the registry's
    ``load`` gives: it starts without a memo."""
    return dataclasses.replace(model)


def _memo_counts():
    metrics = global_metrics()
    return (metrics.value("surrogate.support_memo.hit"),
            metrics.value("surrogate.support_memo.miss"))


class TestSupportMemo:
    @pytest.mark.parametrize("n_local", [0, 6])
    def test_memoized_equals_uncached(self, hadoop, model, n_local):
        kb, system, fingerprints = hadoop
        trained = _fresh(model)
        space = system.config_space
        for fingerprint in fingerprints * 2:  # second round: all memo hits
            want = _rank_configs_reference(trained, space, fingerprint,
                                           n_local=n_local)
            got = rank_configs(trained, space, fingerprint, n_local=n_local)
            assert want and _comparable(got) == _comparable(want)
        assert trained.support_memo is not None
        assert "support_memo" not in trained.to_jsonable()

    def test_stage_one_scores_are_reused_without_refinement(
        self, hadoop, model, monkeypatch
    ):
        kb, system, fingerprints = hadoop
        trained = _fresh(model)
        calls = []
        predict = trained.predict
        monkeypatch.setattr(trained, "predict",
                            lambda *a: calls.append(1) or predict(*a))
        rank_configs(trained, system.config_space, fingerprints[0])
        assert len(calls) == 1

    def test_retrain_and_other_space_never_reuse_a_memo(self, hadoop, model):
        kb, system, fingerprints = hadoop
        space = system.config_space
        first = _fresh(model)
        rank_configs(first, space, fingerprints[0])
        hits, misses = _memo_counts()
        rank_configs(first, space, fingerprints[0])
        assert _memo_counts() == (hits + 1, misses)

        retrained = _train(kb, system)
        assert retrained.support_memo is None
        rank_configs(retrained, space, fingerprints[0])
        assert _memo_counts() == (hits + 1, misses + 1)
        assert retrained.support_memo is not first.support_memo

        other = HadoopSimulator().config_space  # equal knobs, new object
        assert other is not space
        ranked = rank_configs(first, other, fingerprints[0])
        assert _memo_counts() == (hits + 1, misses + 2)
        assert all(config.space is other for config, _, _ in ranked)
        assert _comparable(ranked) == _comparable(
            _rank_configs_reference(first, other, fingerprints[0]))

    def test_added_constraint_invalidates_the_memo(self, hadoop, model):
        kb, system, fingerprints = hadoop
        trained = _fresh(model)
        space = ConfigurationSpace(system.config_space.parameters())
        full = rank_configs(trained, space, fingerprints[0])
        space.add_constraint(Constraint("none", lambda values: False))
        assert rank_configs(trained, space, fingerprints[0]) == []
        assert full

    def test_concurrent_first_builds_agree(self, hadoop, model,
                                          monkeypatch):
        kb, system, fingerprints = hadoop
        trained = _fresh(model)
        space = system.config_space
        barrier = threading.Barrier(2, timeout=10)
        snap = recommend_module._snap

        def racing_snap(*args):
            barrier.wait()  # both threads are inside the memo build
            return snap(*args)

        monkeypatch.setattr(recommend_module, "_snap", racing_snap)
        results = [None, None]

        def call(slot):
            results[slot] = rank_configs(trained, space, fingerprints[0])

        threads = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        monkeypatch.setattr(recommend_module, "_snap", snap)
        want = _comparable(
            _rank_configs_reference(trained, space, fingerprints[0]))
        assert _comparable(results[0]) == _comparable(results[1]) == want

    def test_predicate_bug_raises_instead_of_shrinking_support(
        self, hadoop, model
    ):
        kb, system, fingerprints = hadoop
        trained = _fresh(model)
        space = ConfigurationSpace(
            system.config_space.parameters(),
            [Constraint("buggy", lambda values: 1 / 0 > 0)],
        )
        with pytest.raises(ZeroDivisionError):
            rank_configs(trained, space, fingerprints[0])


# -- incremental fingerprint index ---------------------------------------------
@pytest.fixture(scope="module")
def payloads():
    system = DbmsSimulator()
    out = []
    with KnowledgeBase(":memory:") as scratch:
        for seed in range(8):
            workload = (olap_analytics, oltp_orders)[seed % 2]()
            result = RandomSearchTuner().tune(
                system, workload, Budget(max_runs=4),
                np.random.default_rng(seed),
            )
            out.append(scratch.session_payload(
                system, workload, result, seed=seed
            ))
    return out


def _index_ids(service):
    return [
        (record.session_id, fp)
        for record, fp in service._fingerprint_index()
    ]


def _full_ids(kb):
    return [
        (record.session_id, record.fingerprint)
        for record in kb.sessions()
        if record.fingerprint is not None
    ]


def _index_counts():
    metrics = global_metrics()
    return (metrics.value("kb.index.incremental"),
            metrics.value("kb.index.rebuild"))


class TestIncrementalIndex:
    def test_appends_from_every_writer_match_a_full_rebuild(
        self, tmp_path, payloads
    ):
        path = str(tmp_path / "kb.sqlite")
        with KnowledgeBase(path) as kb, KnowledgeBase(path) as other:
            kb.ingest_payload(payloads[0])
            service = RecommendationService(kb)
            assert _index_ids(service) == _full_ids(kb)
            incremental, rebuilds = _index_counts()

            service.ingest(payloads[1])
            assert _index_ids(service) == _full_ids(kb)

            writer = IngestWriter(kb, ServingConfig(),
                                  on_commit=service.refresh_index)
            try:
                acks = [writer.submit(p) for p in payloads[2:5]]
                for ack in acks:
                    ack.wait(10)
            finally:
                writer.close()
            assert _index_ids(service) == _full_ids(kb)

            other.ingest_payload(payloads[5])  # a second handle's write
            no_fingerprint = dict(payloads[6], fingerprint=None)
            other.ingest_payload(no_fingerprint)
            service.ingest(payloads[7])
            assert _index_ids(service) == _full_ids(kb)
            assert len(_full_ids(kb)) == 7 == len(kb) - 1

            new_incremental, new_rebuilds = _index_counts()
            assert new_rebuilds == rebuilds
            assert new_incremental > incremental

    def test_non_append_change_rebuilds(self, tmp_path, payloads):
        path = str(tmp_path / "kb.sqlite")
        with KnowledgeBase(path) as kb:
            for payload in payloads[:3]:
                kb.ingest_payload(payload)
            service = RecommendationService(kb)
            before = _index_ids(service)
            # delete an old session and append one: the count is
            # unchanged while the max id grew
            raw = sqlite3.connect(path)
            try:
                raw.execute("DELETE FROM kb_sessions WHERE id = ?",
                            (before[-1][0],))
                raw.commit()
            finally:
                raw.close()
            kb.ingest_payload(payloads[3])
            incremental, rebuilds = _index_counts()
            assert _index_ids(service) == _full_ids(kb)
            assert before[-1][0] not in {i for i, _ in _index_ids(service)}
            assert _index_counts() == (incremental, rebuilds + 1)


class TestConcurrentReaders:
    def test_index_and_vector_caches_under_thread_churn(
        self, tmp_path, payloads
    ):
        """More threads than cores and a tiny switch interval: readers
        rank against the index (sharing every stored fingerprint's
        vector cache, with name tuples that keep evicting it) while a
        writer appends; every answer must equal the per-row loop, and
        the final index a full rebuild."""
        path = str(tmp_path / "kb.sqlite")
        names = [("cpu",), ("cpu", "mem"), ("io_wait",), ("mem", "net"),
                 ("cpu", "net"), ("lock_wait",)]
        errors = []
        with KnowledgeBase(path) as kb:
            kb.ingest_payload(payloads[0])
            service = RecommendationService(kb)
            stop = threading.Event()

            def reader(slot):
                i = slot
                while not stop.is_set():
                    metrics = {n: float(i % 7) for n in names[i % len(names)]}
                    target = WorkloadFingerprint(metrics, 1.0 + i % 3)
                    candidates = service._fingerprint_index()
                    got = rank_similar(target, candidates)
                    want = _rank_similar_reference(target, candidates)
                    if [(k.session_id, d.hex()) for k, d in got] != [
                        (k.session_id, d.hex()) for k, d in want
                    ]:
                        errors.append(slot)
                    i += 1

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=reader, args=(slot,))
                       for slot in range(8)]
            try:
                for thread in threads:
                    thread.start()
                for payload in payloads[1:]:
                    service.ingest(payload)
                    service.refresh_index()
                    time.sleep(0.05)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert _index_ids(service) == _full_ids(kb)
