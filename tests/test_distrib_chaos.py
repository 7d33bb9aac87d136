"""Chaos matrix: real worker subprocesses dying at protocol instants.

Each case spawns actual ``repro worker`` subprocesses against a shared
queue directory, injects one fault, and asserts the sweep still
completes with result blobs *byte-identical* to a serial reference run
(computed once per module).  The in-process integration claims live in
``test_distrib_sweep.py``; this file is about what happens when a
worker genuinely dies — ``os._exit`` mid-protocol, a frozen heartbeat,
a corrupted claim file — which cannot be simulated inside pytest's own
process.

Tasks are sized (~1.3s of simulation) so a 0.5s lease expires under a
frozen or killed worker *mid-task*, making the reclaim path load-
bearing rather than decorative.
"""

import pytest

from repro.distrib.chaos import run_chaos_case
from repro.distrib.coordinator import run_serial_sweep, shard_points
from repro.distrib.worker import KILL_MID_PUT_EXIT, KILL_MID_TASK_EXIT
from repro.results.store import store_for
from repro.scenarios.spec import ScenarioSpec
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.slow

#: Long enough that a 0.5s lease expires mid-simulation, short enough
#: that the whole matrix stays in tens of seconds.
CHAOS_REQUESTS = 60_000
CHAOS_STRIDE = 300_000
CHAOS_LEASE_S = 0.5


def chaos_recipes():
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    return shard_points(specs, CHAOS_REQUESTS, 0)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The serial run every chaos case compares bytes against."""
    store = store_for(tmp_path_factory.mktemp("serial"))
    run_serial_sweep(chaos_recipes(), store)
    return store


def run_case(tmp_path, serial_reference, fault):
    return run_chaos_case(
        tmp_path,
        chaos_recipes(),
        fault=fault,
        n_workers=2,
        lease_s=CHAOS_LEASE_S,
        checkpoint_stride=CHAOS_STRIDE,
        timeout_s=300.0,
        serial_store=serial_reference,
    )


def assert_byte_identical(report):
    assert report.ok, "\n".join(report.summary_lines())
    assert len(report.outcome.results) == 2
    assert not report.mismatched_keys


class TestChaosMatrix:
    def test_fault_free_fleet(self, tmp_path, serial_reference):
        report = run_case(tmp_path, serial_reference, None)
        assert_byte_identical(report)
        assert all(code == 0 for code in report.worker_exit_codes)

    def test_worker_kill_mid_task(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-task"
        )
        assert_byte_identical(report)
        # The saboteur really died at its first checkpoint...
        assert KILL_MID_TASK_EXIT in report.worker_exit_codes
        # ...and left a resumable checkpoint plus an expired lease
        # behind for the survivor.
        assert report.fault_fired

    def test_worker_kill_mid_put(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-put"
        )
        assert_byte_identical(report)
        assert KILL_MID_PUT_EXIT in report.worker_exit_codes
        # Dying between the temp write and the rename leaves an
        # orphaned *.tmp in the distributed store; gc must report it
        # (dry run) and then remove it without touching the results.
        dist_store = store_for(tmp_path / "dist")
        dry = dist_store.gc(dry_run=True, tmp_grace_s=1e9)
        assert dry.stale_tmp, "expected the torn-write *.tmp orphan"
        assert dry.reclaimable_bytes > 0
        real = dist_store.gc(tmp_grace_s=1e9)
        assert real.stale_tmp
        after = dist_store.gc(dry_run=True, tmp_grace_s=1e9)
        assert not after.stale_tmp
        for key in report.outcome.result_keys:
            assert dist_store.get(key) is not None

    def test_worker_freeze_heartbeat(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-freeze-heartbeat"
        )
        assert_byte_identical(report)
        # The frozen straggler's lease expired and was reclaimed; its
        # own late completion then deduplicated, so every worker still
        # exits cleanly.
        assert report.outcome.reclaimed >= 1
        assert all(code == 0 for code in report.worker_exit_codes)

    def test_corrupt_claim_file(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "corrupt-claim-file"
        )
        assert_byte_identical(report)
        assert report.fault_fired
        assert report.notes  # records which claim was corrupted


class TestGracefulWorkerShutdown:
    def test_sigterm_releases_claim_and_exits_zero(self, tmp_path):
        """SIGTERM = deploy rollover: release penalty-free, exit 0."""
        import signal

        from repro.distrib.chaos import spawn_repro, wait_for_claim
        from repro.distrib.queue import FileWorkQueue, _read_json
        from repro.distrib.worker import checkpoint_recipe

        recipes = chaos_recipes()[:1]
        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        store = store_for(tmp_path)
        task_id = queue.submit(recipes[0]).task_id
        proc = spawn_repro(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--results-dir", str(tmp_path), "--lease", "30",
             "--checkpoint-stride", "100000", "--idle-exit", "15"],
            tmp_path / "worker.log",
        )
        try:
            wait_for_claim(queue, [task_id], timeout_s=60.0)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
        # The claim went back to pending with the attempt uncounted
        # (not a lease expiry, not a failure) and the checkpoint is
        # durable for the next claimant to resume from.
        pending = _read_json(queue._path("pending", task_id))
        assert pending is not None, "claim was not released to pending"
        assert pending["attempts"] == 0
        assert "released_by" in pending
        assert queue.status().claimed == 0
        checkpoint = store.fetch(checkpoint_recipe(task_id))
        assert checkpoint is not None
        log = (tmp_path / "worker.log").read_text()
        assert "graceful shutdown" in log
        assert "1 released" in log
