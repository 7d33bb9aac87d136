"""Batch engine tier pinned bit-identical against the fast-engine oracle.

Extends the PR 2–3 reference-vs-fast equivalence matrix one tier up:
:func:`repro.sim.batch.simulate_batch` must return exactly the
:class:`SimResult` the fast engine produces for every lane — whether the
lane was the recorded leader, a replayed follower, or a divergence
fallback.  Also pins the RFM-count substitution of replayed followers,
the ``run_many`` batch routing's blob identity, and that no simulator,
worker or daemon process imports a third-party package.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.common import SweepRunner
from repro.sim import simulate_workload
import repro.sim.batch as batch
from repro.sim.batch import (
    BatchStats,
    _Recorder,
    _replay_follower,
    _timing_signature,
    simulate_batch,
)
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.compiled import compiled_rate_mode_traces

from test_engine_equivalence import DEFENSES, _defense_id, _fuzzed_specs

REQUESTS = 150
SMALL = SystemConfig(n_cores=2, banks_per_channel=8)


def result_blob(result) -> bytes:
    """Canonical serialized form — what the result store would persist."""
    return json.dumps(result.to_json(), sort_keys=True).encode()


def assert_batch_matches_fast(points, system, n_requests, seed,
                              stats=None):
    """One batched run vs one fast-engine run per point, bit-identical."""
    batched = simulate_batch(
        points, system=system, n_requests_per_core=n_requests, seed=seed,
        stats=stats,
    )
    for point, result in zip(points, batched):
        workload, defense, tmro_ns = (
            point.sweep_point() if hasattr(point, "sweep_point") else point
        )
        oracle = simulate_workload(
            workload, defense, system=system,
            n_requests_per_core=n_requests, tmro_ns=tmro_ns, seed=seed,
        )
        assert result_blob(result) == result_blob(oracle), (
            f"batch diverged from fast engine on {point!r}"
        )


class TestBatchVsFastMatrix:
    """The full workload × defense equivalence matrix, batched at once."""

    @pytest.mark.parametrize("workload", ["mcf", "copy", "add_copy"])
    def test_workload_defense_matrix(self, workload):
        stats = BatchStats()
        points = [(workload, defense, None) for defense in DEFENSES]
        assert_batch_matches_fast(points, SMALL, REQUESTS, 7, stats=stats)
        # The matrix must actually exercise the replay path, not just
        # degenerate to per-lane fast runs.
        assert stats.replayed > 0
        assert stats.leaders >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, seed):
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"),
             None),
            ("mcf", DefenseConfig(tracker="mint", scheme="impress-p",
                                  trh=1600, rfmth=20), None),
        ]
        assert_batch_matches_fast(points, SMALL, REQUESTS, seed)

    def test_multi_channel_topology(self):
        system = SystemConfig(n_cores=2, channels=2, banks_per_channel=8)
        points = [
            ("add", None, None),
            ("add", DefenseConfig(tracker="graphene", scheme="impress-p"),
             None),
            ("add", DefenseConfig(tracker="prac", scheme="no-rp", trh=150),
             None),
            ("add", DefenseConfig(tracker="mithril", scheme="no-rp",
                                  rfmth=20), None),
            ("add", DefenseConfig(tracker="mint", scheme="no-rp",
                                  rfmth=20), None),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, system, REQUESTS, 2, stats=stats)
        assert stats.replayed > 0

    def test_tmro_groups_split_from_default(self):
        # A tMRO override changes the timing signature, so these lanes
        # must not share a leader with the default-timing lanes.
        points = [
            ("copy", None, None),
            ("copy", None, 66.0),
            ("copy", DefenseConfig(tracker="graphene", scheme="no-rp"),
             66.0),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, REQUESTS, 4, stats=stats)
        assert stats.groups == 1          # the two tmro=66 lanes
        assert stats.singletons == 1      # the default-timing lane

    def test_duplicate_points_deduplicated(self):
        points = [("mcf", None, None)] * 3 + [
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None)
        ] * 2
        stats = BatchStats()
        results = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0,
            stats=stats,
        )
        assert stats.points == 5
        assert stats.leaders == 1 and stats.replayed == 1
        assert result_blob(results[0]) == result_blob(results[1])
        assert result_blob(results[3]) == result_blob(results[4])

    def test_results_are_independent_copies(self):
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
        ]
        leader, follower = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0
        )
        follower.counts.reads += 1
        follower.core_cycles[0] += 1
        assert leader.counts.reads != follower.counts.reads
        assert leader.core_cycles[0] != follower.core_cycles[0]


class TestFuzzedScenariosBatched:
    """The 8 pinned fuzzer scenarios from PR 6, each batched with a
    no-defense sibling lane on its own topology."""

    @pytest.mark.parametrize("index", range(8))
    def test_fuzzed_scenario(self, index):
        spec = _fuzzed_specs()[index]
        workload, _defense, tmro_ns = spec.sweep_point()
        points = [spec, (workload, None, tmro_ns)]
        assert_batch_matches_fast(points, spec.system, REQUESTS, 0)


class TestRunManyRouting:
    """``run_many`` batch routing is invisible: same blobs, same cache."""

    GRID = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"), None),
        ("mcf", DefenseConfig(tracker="para", scheme="no-rp", trh=200.0),
         None),
        ("add", None, None),
        ("add", DefenseConfig(tracker="mint", scheme="no-rp", rfmth=20),
         None),
        ("copy", None, 96.0),
        ("mcf", None, None),                      # duplicate
    ]

    def test_blob_identity_vs_serial(self):
        runner = SweepRunner(system=SMALL, n_requests=60, seed=3)
        blobs_batched = [
            result_blob(r) for r in runner.run_many(self.GRID)
        ]
        blobs_serial = [
            result_blob(simulate_workload(
                workload, defense, system=SMALL, n_requests_per_core=60,
                tmro_ns=tmro_ns, seed=3,
            ))
            for workload, defense, tmro_ns in self.GRID
        ]
        assert blobs_batched == blobs_serial
        # The duplicate is computed once: one miss per unique point.
        stats = runner.cache_stats()
        assert stats.misses == len(set(self.GRID)) == len(self.GRID) - 1
        assert stats.hits == 0

    def test_single_point_stays_unbatched(self):
        runner = SweepRunner(system=SMALL, n_requests=60)
        [result] = runner.run_many([("mcf", None, None)])
        assert result_blob(result) == result_blob(
            simulate_workload("mcf", system=SMALL, n_requests_per_core=60)
        )


class TestReplayInternals:
    def test_rfm_followers_replay_with_their_own_counts(self):
        # One RFM timing group: a MINT leader, and MINT (other seed,
        # other scheme) and Mithril followers replayed through their
        # own on_rfm kernels.  Blob identity pins each follower's
        # substituted rfm_mitigations against a real run.
        points = [
            ("mcf", DefenseConfig(tracker="mint", scheme="no-rp",
                                  rfmth=20), None),
            ("mcf", DefenseConfig(tracker="mint", scheme="no-rp",
                                  rfmth=20, seed=5), None),
            ("mcf", DefenseConfig(tracker="mint", scheme="impress-p",
                                  rfmth=20), None),
            ("mcf", DefenseConfig(tracker="mithril", scheme="no-rp",
                                  rfmth=20), None),
        ]
        stats = BatchStats()
        results = simulate_batch(
            points, system=SMALL, n_requests_per_core=150, seed=7,
            stats=stats,
        )
        assert stats.groups == 1 and stats.leaders == 1
        assert stats.replayed == len(points) - 1
        for (workload, defense, _tmro), result in zip(points, results):
            assert result.rfm_mitigations > 0, _defense_id(defense)
            oracle = simulate_workload(
                workload, defense, system=SMALL, n_requests_per_core=150,
                seed=7,
            )
            assert result_blob(result) == result_blob(oracle), (
                _defense_id(defense)
            )

    def test_leader_recording_does_not_change_result(self):
        compiled = compiled_rate_mode_traces(
            "mcf", SMALL.n_cores, 150, 7, SMALL.mapper()
        )
        simulator = SystemSimulator(SMALL, compiled=compiled)
        recorder = _Recorder(simulator)
        recorded = simulator.run()
        assert not recorder.fired and any(recorder.logs)
        plain = simulate_workload(
            "mcf", system=SMALL, n_requests_per_core=150, seed=7
        )
        assert result_blob(recorded) == result_blob(plain)


    def test_replay_verdicts_agree_with_full_runs(self):
        # Every non-RFM follower sharing the no-defense leader's timing
        # signature: a "valid" verdict means a real run reproduces the
        # leader's result exactly; "diverged" (PARA's probabilistic
        # mitigations) means the real run bent the timeline.
        compiled = compiled_rate_mode_traces(
            "mcf", SMALL.n_cores, 150, 7, SMALL.mapper()
        )
        simulator = SystemSimulator(SMALL, compiled=compiled)
        recorder = _Recorder(simulator)
        leader = simulator.run()
        signature = _timing_signature(None, None, SMALL.timings)
        verdicts = {}
        for defense in DEFENSES[1:]:
            if _timing_signature(defense, None, SMALL.timings) != signature:
                continue
            verdict, rfm = _replay_follower(defense, SMALL, recorder.logs)
            verdicts[_defense_id(defense)] = verdict
            assert rfm == 0, _defense_id(defense)
            oracle = simulate_workload(
                "mcf", defense, system=SMALL, n_requests_per_core=150,
                seed=7,
            )
            same = result_blob(oracle) == result_blob(leader)
            assert same == (verdict == "valid"), _defense_id(defense)
        assert verdicts["graphene-no-rp"] == "valid"
        assert verdicts["para-no-rp"] == "diverged"

    def test_diverged_follower_is_simulated_for_real(self):
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="para", scheme="no-rp", trh=100),
             None),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, 150, 7, stats=stats)
        assert stats.groups == 1 and stats.leaders == 1
        assert stats.replayed == 0 and stats.fallbacks == 1

    def test_raising_replay_falls_back_to_real_run(self, monkeypatch):
        def broken_replay(defense, system, logs):
            raise RuntimeError("replay failed")

        monkeypatch.setattr(batch, "_replay_follower", broken_replay)
        points = [
            ("mcf", None, None),
            ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
            ("mcf", DefenseConfig(tracker="dsac", scheme="no-rp", trh=300),
             None),
        ]
        stats = BatchStats()
        assert_batch_matches_fast(points, SMALL, 150, 7, stats=stats)
        assert stats.leaders == 1
        assert stats.replayed == 0 and stats.fallbacks == 2


class TestEngineSelection:
    def test_engine_values_agree(self):
        kwargs = dict(system=SMALL, n_requests_per_core=60, seed=0)
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        fast = simulate_workload("mcf", defense, engine="fast", **kwargs)
        reference = simulate_workload(
            "mcf", defense, engine="reference", **kwargs
        )
        batch = simulate_workload("mcf", defense, engine="batch", **kwargs)
        assert result_blob(fast) == result_blob(reference)
        assert result_blob(fast) == result_blob(batch)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_workload("mcf", engine="warp", system=SMALL,
                              n_requests_per_core=20)


class TestStatsAccounting:
    def test_partition_adds_up(self):
        stats = BatchStats()
        points = [("mcf", defense, None) for defense in DEFENSES]
        results = simulate_batch(
            points, system=SMALL, n_requests_per_core=60, seed=0,
            stats=stats,
        )
        assert len(results) == len(points)
        assert stats.points == len(points)
        unique = len({(w, d, t) for w, d, t in points})
        assert (
            stats.leaders + stats.replayed + stats.fallbacks
            + stats.singletons == unique
        )


def test_no_third_party_imports():
    """The simulator, worker and daemon import only the standard library."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.sim, repro.distrib.worker, repro.serve.server; "
         "print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
