"""Tests of the repository benchmark itself (tiny sizes, a few seconds each).

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import benchutil  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER_UNITS, install  # noqa: E402
from search_load import PassLog, SessionLoad  # noqa: E402
from spans import LayerTimes, SpanRecorder  # noqa: E402

benchutil.use_repo_sources()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _check_result(outcome, trace):
    line = run.result_line(outcome, trace)
    assert line["correct"], outcome["report"].get("failures")
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    return line


@pytest.mark.parametrize("workload", ["model-search", "population-search"])
def test_tiny_search_workload_passes_its_checks(workload):
    outcome = run.run_workload(workload, 3, 0.1, False, "tiny")
    _check_result(outcome, trace=False)
    assert outcome["report"]["passes"] >= 2


def test_tiny_serve_mix_passes_its_checks():
    outcome = run.run_workload("serve-mix", 3, 1.0, False, "tiny")
    _check_result(outcome, trace=False)
    report = outcome["report"]
    assert report["acked_ingests"] == report["kb_growth"]


def test_traced_pass_keeps_session_digests():
    scratch = benchutil.work_dir("test-digests")
    load = SessionLoad("model-search", 5, "tiny",
                       os.path.join(scratch, "kb.sqlite"))
    try:
        log = PassLog(load, benchutil.SpeedGauge())
        log.run_pass()
        reference = dict(log.reference)
        from repro.core.parameters import ConfigurationSpace

        original = ConfigurationSpace.__dict__["sample_configuration"]
        recorder = SpanRecorder()
        log.run_pass(recorder)
        assert log.failures == []
        assert log.reference == reference
        assert recorder.spans, "the traced pass recorded nothing"
        assert recorder.installed == 0
        assert ConfigurationSpace.__dict__["sample_configuration"] is original
    finally:
        load.close()
        benchutil.remove_work_dir(scratch)


def test_population_search_does_no_model_fit():
    outcome = run.run_workload("population-search", 4, 0.1, True, "tiny")
    line = _check_result(outcome, trace=True)
    metrics = line["metrics"]
    assert metrics["mlkit.fit_calls"]["value"] == 0
    assert metrics["systems.vectorized_batches"]["value"] > 0
    assert outcome["report"]["wrappers_left"] == 0


def test_benchmark_json_lists_every_per_layer_metric():
    assert [m["name"] for m in _benchmark_json()["per_layer"]] == list(
        PER_LAYER_UNITS
    )


def test_self_time_subtracts_children_and_charges_same_layer_nesting():
    spans = [
        ["tuners", "ask", 0.0, 10.0, -1],
        ["core.parameters", "sample", 1.0, 7.0, 0],
        ["core.parameters", "decode", 2.0, 5.0, 1],  # built while sampling
        ["mlkit", "fit", 7.0, 9.0, 0],
        ["kb.store", "ingest", 10.0, 11.0, -1],
    ]
    times = LayerTimes(spans, wall_s=12.0)
    assert times.op_s("tuners", "ask") == pytest.approx(2.0)
    assert times.op_s("core.parameters", "sample") == pytest.approx(6.0)
    assert times.op_s("core.parameters", "decode") == 0.0
    assert times.op_calls("core.parameters", "sample", "decode") == 1
    assert times.layer_s("mlkit") == pytest.approx(2.0)
    assert times.total_s[("core.parameters", "sample")] == pytest.approx(6.0)
    assert times.total_s[("tuners", "ask")] == pytest.approx(10.0)
    assert times.coverage == pytest.approx(11.0 / 12.0)


def test_install_restores_every_wrapper():
    from repro.core.session import TuningSession
    from repro.surrogate import registry

    before = (TuningSession.__dict__["evaluate"], registry.train_surrogate)
    recorder = SpanRecorder()
    try:
        install(recorder)
        assert recorder.installed > 50
        assert TuningSession.__dict__["evaluate"] is not before[0]
    finally:
        recorder.restore()
    assert recorder.installed == 0
    assert (TuningSession.__dict__["evaluate"],
            registry.train_surrogate) == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
