"""Fault-case matrix: real worker and daemon subprocesses dying.

Each case spawns actual ``repro worker`` or ``repro serve``
subprocesses, injects one fault from :data:`repro.chaos.FAULTS`, and
asserts the work still completes with result blobs *byte-identical* to
a serial reference run (computed once per module).  The in-process
integration claims live in ``test_distrib_sweep.py`` and
``test_serve.py``; this file is about what happens when a process
genuinely dies — ``os._exit`` mid-protocol, a SIGKILL, a frozen
heartbeat, a corrupted claim file — which cannot be simulated inside
pytest's own process.

Tasks are sized (~1.3s of simulation) so a 0.5s lease expires under a
frozen or killed worker *mid-task*, making the reclaim path load-
bearing rather than decorative, and so a daemon is killed with its
work still in flight.
"""

import signal

import pytest

from repro.chaos import (
    FAULTS,
    first_claim,
    live_endpoint,
    poll_until,
    run_fault_case,
)
from repro.distrib.coordinator import run_serial_sweep, shard_points
from repro.distrib.worker import (
    KILL_MID_PUT_EXIT,
    KILL_MID_TASK_EXIT,
    spawn_repro,
    spawn_worker,
)
from repro.results.store import content_key, store_for
from repro.scenarios.spec import ScenarioSpec
from repro.security.faults import KNOWN_FAULTS
from repro.serve.client import ServeClient
from repro.serve.engine import KILL_MID_REQUEST_EXIT
from repro.serve.journal import RequestJournal
from repro.serve.server import read_endpoint, serve_dir
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.slow

#: Long enough that a 0.5s lease expires mid-simulation, short enough
#: that the whole matrix stays in tens of seconds.
CHAOS_REQUESTS = 60_000
CHAOS_STRIDE = 300_000
CHAOS_LEASE_S = 0.5


def chaos_recipes(n_requests=CHAOS_REQUESTS):
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    return shard_points(specs, n_requests, 0)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The serial run every fault case compares bytes against."""
    store = store_for(tmp_path_factory.mktemp("serial"))
    run_serial_sweep(chaos_recipes(), store)
    return store


def run_case(tmp_path, serial_reference, fault):
    report = run_fault_case(
        tmp_path,
        chaos_recipes(),
        fault=fault,
        n_workers=2,
        lease_s=CHAOS_LEASE_S,
        checkpoint_stride=CHAOS_STRIDE,
        timeout_s=300.0,
        serial_store=serial_reference,
    )
    assert report.ok, "\n".join(report.summary_lines())
    assert report.fault_fired
    assert not report.mismatched_keys
    if report.outcome is not None:   # worker target
        assert len(report.outcome.results) == 2
    return report


def test_fault_table_covers_every_process_fault():
    """A process-layer fault cannot ship without a target and evidence."""
    process_faults = {
        name for name in KNOWN_FAULTS
        if name.startswith(("worker-", "serve-"))
    }
    assert process_faults
    assert process_faults <= set(FAULTS)


class TestWorkerFaults:
    def test_fault_free_fleet(self, tmp_path, serial_reference):
        report = run_case(tmp_path, serial_reference, None)
        assert all(code == 0 for code in report.exit_codes)

    def test_worker_kill_mid_task(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-task"
        )
        # The saboteur really died at its first checkpoint, leaving a
        # resumable checkpoint plus an expired lease for the survivor.
        assert KILL_MID_TASK_EXIT in report.exit_codes

    def test_worker_kill_mid_put(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "worker-kill-mid-put"
        )
        assert KILL_MID_PUT_EXIT in report.exit_codes
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
        # The frozen straggler's lease expired and was reclaimed; its
        # own late completion then deduplicated, so every worker still
        # exits cleanly.
        assert report.outcome.reclaimed >= 1
        assert all(code == 0 for code in report.exit_codes)

    def test_sigkill_claim_holder(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "sigkill-claim-holder"
        )
        assert -signal.SIGKILL in report.exit_codes
        assert report.notes  # records which worker was killed

    def test_corrupt_claim_file(self, tmp_path, serial_reference):
        report = run_case(
            tmp_path, serial_reference, "corrupt-claim-file"
        )
        assert report.notes  # records which claim was corrupted

    def test_fault_that_never_fires_fails(self, tmp_path):
        """No checkpoint inside the run, so the mid-task kill never
        happens: the case must fail instead of passing vacuously."""
        report = run_fault_case(
            tmp_path,
            chaos_recipes(n_requests=2000),
            fault="worker-kill-mid-task",
            lease_s=CHAOS_LEASE_S,
            checkpoint_stride=10**12,
            timeout_s=300.0,
        )
        assert not report.mismatched_keys
        assert KILL_MID_TASK_EXIT not in report.exit_codes
        assert not report.fault_fired
        assert not report.ok


class TestDaemonFaults:
    def test_kill_mid_request_replays_byte_identical(
        self, tmp_path, serial_reference
    ):
        report = run_case(
            tmp_path, serial_reference, "serve-kill-mid-request"
        )
        assert report.exit_codes == [KILL_MID_REQUEST_EXIT, 0]
        # The kill window's signature: the request exists only in the
        # journal — exactly one entry, zero result blobs.
        assert len(report.journal_after_kill) == 1
        assert report.blobs_after_kill == 0
        # The drain left an empty journal and no endpoint file.
        assert not report.residue

    def test_sigkill_after_accept_replays_all_keys(
        self, tmp_path, serial_reference
    ):
        report = run_case(
            tmp_path, serial_reference, "sigkill-after-accept"
        )
        assert report.exit_codes == [-signal.SIGKILL, 0]
        # Every accepted request was journaled before the SIGKILL, the
        # duplicate coalesced onto its twin's entry.
        assert report.journal_after_kill == sorted(report.keys)
        assert not report.residue


class TestGracefulShutdown:
    def test_worker_sigterm_releases_claim_and_exits_zero(self, tmp_path):
        """SIGTERM = deploy rollover: release penalty-free, exit 0."""
        from repro.distrib.queue import FileWorkQueue, _read_json
        from repro.distrib.worker import checkpoint_recipe

        recipes = chaos_recipes()[:1]
        queue = FileWorkQueue(tmp_path / "queue", lease_s=30.0)
        store = store_for(tmp_path)
        task_id = queue.submit(recipes[0]).task_id
        proc = spawn_worker(
            tmp_path / "queue", tmp_path, tmp_path / "worker.log",
            lease_s=30, checkpoint_stride=100000,
        )
        try:
            poll_until(lambda: first_claim(queue, [task_id]), 60.0,
                       "a claim")
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

    def test_daemon_sigterm_with_inflight_request_drains(
        self, tmp_path, serial_reference
    ):
        recipe = chaos_recipes()[0]
        key = content_key(recipe)
        proc = spawn_repro(
            ["serve", "--results-dir", str(tmp_path),
             "--serial-grace", "0.5"],
            tmp_path / "daemon.log",
        )
        try:
            endpoint = poll_until(
                lambda: live_endpoint(tmp_path, proc.pid), 30.0,
                "the daemon's endpoint",
            )
            client = ServeClient(
                endpoint["host"], endpoint["port"], timeout_s=10.0
            )
            code, data = client.call(
                "POST", "/request", {"recipe": recipe, "wait_s": 0}
            )
            assert code == 202, (code, data)
            # SIGTERM with the request in flight: stop accepting,
            # finish the work, exit 0.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
        store = store_for(tmp_path)
        journal = RequestJournal(serve_dir(tmp_path) / "journal")
        # The accepted request was answered, not dropped: blob durable,
        # journal empty, bytes identical to the serial reference.
        assert store.get(key) is not None
        assert journal.depth() == 0
        assert (
            store.blob_path(key).read_bytes()
            == serial_reference.blob_path(key).read_bytes()
        )

    def test_daemon_sigterm_idle_exits_zero_quickly(self, tmp_path):
        proc = spawn_repro(
            ["serve", "--results-dir", str(tmp_path)],
            tmp_path / "daemon.log",
        )
        try:
            poll_until(lambda: live_endpoint(tmp_path, proc.pid), 30.0,
                       "the daemon's endpoint")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
        # The endpoint advertisement is retired on clean shutdown.
        poll_until(
            lambda: True if read_endpoint(tmp_path) is None else None,
            5.0, "the endpoint file's retirement",
        )
