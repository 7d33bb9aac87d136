"""Tests of the benchmark itself: metric names, tracing, output checks.

Run from the repository root with ``src`` on the path::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        workloads.E2E_NAMES)
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(
        workloads.LAYER_NAMES)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_restore_the_original_functions():
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert len(patched) >= 15
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr


def test_traced_batch_counts_each_result_once():
    from repro.experiments.common import SweepRunner
    from repro.sim.config import DefenseConfig, SystemConfig

    points = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
    ]
    runner = SweepRunner(
        system=SystemConfig(n_cores=2, banks_per_channel=8),
        n_requests=60, seed=0,
    )
    tracer = Tracer()
    tracer.install()
    try:
        results = runner.run_many(points)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.wall_spans()])
    assert metrics["batch.lanes"] == 2
    assert metrics["batch.leaders"] == 1 and metrics["batch.replayed"] == 1
    assert metrics["sim.run_calls"] == 1
    for field in tracing.MODEL_FIELDS:
        assert metrics["model." + field] == sum(
            getattr(result, field) for result in results)


def test_self_time_subtracts_covered_child_time():
    parent = [0, None, "p", None, 0.0, 10.0, {}]
    children = [[1, 0, "c", None, 1.0, 3.0, {}],
                [2, 0, "c", None, 2.0, 4.0, {}]]
    assert tracing.self_time(parent, children) == pytest.approx(7.0)


def test_corrupted_payload_counts_as_failed():
    from repro.distrib.worker import build_simulator
    from repro.results.store import content_key
    from repro.serve.server import recipe_from_request

    body = {"scenario": "benign_mcf", "n_requests": 40, "seed": 3}
    key = content_key(recipe_from_request(body))
    payload = build_simulator(recipe_from_request(body)).run().to_json()
    good = workloads.Served("miss", body, key, "accepted", 0.01, payload)
    corrupted = dict(payload, elapsed_cycles=payload["elapsed_cycles"] + 1)
    bad = workloads.Served("miss", body, key, "accepted", 0.01, corrupted)
    assert workloads.check_served([good], degraded=False) == []
    assert len(workloads.check_served([good, bad], degraded=False)) == 1
    assert len(workloads.check_served([good], degraded=True)) == 1

    sweep = workloads.SweepPass(
        setup_s=0.0, makespan_s=0.0, blobs={key: "corrupted"}, error=None,
        degraded=False, peak_rss_mb=0.0, window=(0.0, 0.0), worker_spans=[],
    )
    assert len(workloads.check_sweep(sweep, {key: "expected"})) == 1


@pytest.fixture
def small_ctx(tmp_path, monkeypatch):
    """A context whose serve and sweep workloads run in seconds."""
    monkeypatch.setattr(workloads, "SERVE_OPS", 12)
    monkeypatch.setattr(workloads, "SERVE_WARM_KEYS", 2)
    monkeypatch.setattr(workloads, "SERVE_SIM_REQUESTS", 60)
    monkeypatch.setattr(workloads, "SWEEP_SEEDS", 1)
    monkeypatch.setattr(workloads, "SWEEP_SIM_REQUESTS", 100)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return workloads.Context(root=ROOT, work=tmp_path, seed=5, env=env)


@pytest.mark.parametrize("name", ["serve_mix", "dist_sweep"])
def test_batch_metrics_read_zero_off_the_batch_path(small_ctx, name):
    outcome = workloads.WORKLOADS[name](small_ctx, True)
    assert outcome.failed == 0, outcome.failures
    assert set(outcome.metrics) == set(workloads.LAYER_NAMES)
    assert all(outcome.metrics[m] == 0 for m in workloads.LAYER_NAMES
               if m.startswith("batch."))
    assert outcome.metrics["queue.claim_calls"] > 0
    assert outcome.metrics["sim.run_calls"] > 0
    assert outcome.metrics["model.elapsed_cycles"] > 0
    assert outcome.metrics["failed_share"] == 0


def test_model_counts_repeat_across_traced_runs(small_ctx):
    first = workloads.dist_sweep(small_ctx, True).metrics
    second = workloads.dist_sweep(small_ctx, True).metrics
    for field in tracing.MODEL_FIELDS:
        assert first["model." + field] == second["model." + field]
