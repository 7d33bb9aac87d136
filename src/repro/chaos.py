"""Fault-case runner: real processes, one injected death, one oracle.

The oracle is brutally simple and that is the point: run the same task
recipes once serially (no queue, no workers, no daemon) and once
through real ``repro worker`` or ``repro serve`` subprocesses under an
injected fault, then compare the result blobs *byte for byte*.
Content addressing makes this possible — serial and recovered
executions of one recipe land on the same ``objects/<key>.json`` path
in their respective stores — and it subsumes every weaker assertion
(same metrics, same counts) at once.

:data:`FAULTS` is the one fault table.  Each entry names the fault's
*target* (a worker fleet or the serve daemon), how it is injected
(``--fault`` to one process, or an action of this module's once a
claim or accept is seen) and the *evidence* that it fired — a case
whose fault never fired fails instead of passing vacuously.

Worker target: the saboteur worker is spawned first and the clean
workers only after its first claim appears, so a fast clean worker
cannot drain the queue before the fault fires.

Daemon target: no workers are spawned — the daemon's own
sticky-degraded execution does the computing, which keeps the case
about the *journal*, not the fleet.  The first life dies inside a
crash window; the second replays the journal, finishes every key and
must drain clean on SIGTERM (exit 0, empty journal, endpoint retired)
leaving, after ``gc``, exactly the expected blobs.

:func:`run_fault_case` packages the whole experiment for both the test
matrix and ``tools/chaos_smoke.py``.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar,
)

from .distrib.coordinator import (
    SweepOutcome,
    run_distributed_sweep,
    run_serial_sweep,
)
from .distrib.queue import FileWorkQueue
from .distrib.worker import (
    KILL_MID_PUT_EXIT,
    KILL_MID_TASK_EXIT,
    spawn_repro,
    spawn_worker,
)
from .results.store import ResultStore, content_key, store_for
from .serve.client import ServeClient
from .serve.engine import KILL_MID_REQUEST_EXIT
from .serve.journal import RequestJournal
from .serve.server import read_endpoint, serve_dir

WORKERS = "workers"
DAEMON = "daemon"

#: Exit status of a process this module SIGKILLs.
SIGKILLED_EXIT = -signal.SIGKILL

T = TypeVar("T")


def poll_until(
    probe: Callable[[], Optional[T]],
    timeout_s: float,
    what: str,
    poll_s: float = 0.05,
) -> T:
    """Call ``probe`` until it returns non-None; raise on timeout.

    The harness's way of failing loudly when a process never starts,
    claims or finishes.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = probe()
        if value is not None:
            return value
        time.sleep(poll_s)
    raise TimeoutError(f"{what} not seen within {timeout_s:.1f}s")


def first_claim(
    queue: FileWorkQueue, task_ids: Sequence[str]
) -> Optional[Tuple[str, str]]:
    """``(task_id, owner)`` of the first leased task, if any."""
    for task_id in task_ids:
        lease = queue.lease(task_id)
        if lease is not None:
            return task_id, str(lease["owner"])
    return None


def live_endpoint(results_dir: Path, pid: int) -> Optional[Dict[str, Any]]:
    """The endpoint *this* daemon (by pid) advertises, if any.

    Matching on pid matters after a restart: the killed daemon's stale
    endpoint file is still on disk, and connecting to its dead port
    would make the harness flake.
    """
    endpoint = read_endpoint(results_dir)
    if endpoint is not None and endpoint.get("pid") == pid:
        return endpoint
    return None


def _finished_result(client: ServeClient, key: str) -> Optional[Dict]:
    """``/result/<key>`` once it is 200; transient errors are a None."""
    try:
        code, data = client.result(key)
    except (OSError, http.client.HTTPException):
        return None
    if code == 500:
        raise AssertionError(f"key {key} poisoned: {data}")
    return data if code == 200 else None


def _sigkill_owner(queue: FileWorkQueue, task_id: str, owner: str) -> bool:
    """SIGKILL the process a ``host:pid`` lease owner names (same host)."""
    try:
        os.kill(int(owner.rsplit(":", 1)[1]), signal.SIGKILL)
    except (IndexError, ValueError, ProcessLookupError, PermissionError):
        return False
    return True


def _corrupt_claim(queue: FileWorkQueue, task_id: str, owner: str) -> bool:
    """Overwrite a claim file with garbage (a torn/flipped-bit write)."""
    path = queue.root / "claimed" / f"{task_id}.json"
    if not path.is_file():
        return False
    path.write_text("{torn json \x00\x01")
    # Backdate the mtime so the corrupt-grace reclaim fires immediately
    # instead of waiting out the grace window.
    stamp = time.time() - max(queue.corrupt_grace_s, queue.lease_s) - 1.0
    os.utime(path, (stamp, stamp))
    return True


def _sigkill_daemon(proc: subprocess.Popen) -> bool:
    """SIGKILL a daemon: no drain, no cleanup."""
    proc.send_signal(signal.SIGKILL)
    return True


@dataclass(frozen=True)
class Fault:
    """How one fault is aimed, injected and proven to have fired."""

    target: str                      # WORKERS or DAEMON
    #: None: ``--fault <name>`` to one process.  Otherwise the runner's
    #: own action, taken on the first claim (worker target: called
    #: with queue, task id, owner) or once every request is accepted
    #: (daemon target: called with the daemon); True if it happened.
    inject: Optional[Callable[..., bool]]
    victim_exit: Optional[int]       # exit code of the process it kills
    fired: Callable[["FaultReport"], bool]
    description: str


def _died(report: "FaultReport") -> bool:
    """Evidence: the fault's victim exit code is among the exits."""
    return FAULTS[report.fault].victim_exit in report.exit_codes


def _journaled(expected: Callable[[List[str]], List[str]]):
    """Evidence for a daemon fault: the first life died with the
    victim exit, the injection step completed, and the journal held
    exactly ``expected(keys)`` at death."""
    def fired(report: "FaultReport") -> bool:
        return (
            report.exit_codes[:1] == [FAULTS[report.fault].victim_exit]
            and report.acted
            and report.journal_after_kill == expected(report.keys)
        )
    return fired


#: The one fault table (``None`` = a fault-free worker fleet).
FAULTS: Dict[Optional[str], Fault] = {
    None: Fault(
        WORKERS, None, None, lambda report: True, "fault-free fleet",
    ),
    "worker-kill-mid-task": Fault(
        WORKERS, None, KILL_MID_TASK_EXIT, _died,
        "a worker dies right after its first checkpoint write",
    ),
    "worker-kill-mid-put": Fault(
        WORKERS, None, KILL_MID_PUT_EXIT, _died,
        "a worker dies between the result blob's temp write and rename",
    ),
    "worker-freeze-heartbeat": Fault(
        WORKERS, None, None, lambda report: report.reclaimed >= 1,
        "a worker's heartbeat freezes; its lease must be reclaimed",
    ),
    "sigkill-claim-holder": Fault(
        WORKERS, _sigkill_owner, SIGKILLED_EXIT, _died,
        "SIGKILL the worker holding the first claim, mid-simulation",
    ),
    "corrupt-claim-file": Fault(
        WORKERS, _corrupt_claim, None, lambda report: report.acted,
        "overwrite the first claim file with garbage bytes",
    ),
    "serve-kill-mid-request": Fault(
        DAEMON, None, KILL_MID_REQUEST_EXIT,
        _journaled(lambda keys: keys[:1]),
        "the daemon dies between the first journal write and execution",
    ),
    "sigkill-after-accept": Fault(
        DAEMON, _sigkill_daemon, SIGKILLED_EXIT,
        _journaled(lambda keys: sorted(set(keys))),
        "SIGKILL the daemon once every request (one sent twice, "
        "concurrently) is journaled and 202-accepted",
    ),
}


def compare_blobs(
    serial_store: ResultStore,
    store: ResultStore,
    keys: Sequence[str],
    exact: bool = False,
) -> List[str]:
    """Keys whose blob *bytes* differ between the two stores.

    Byte equality of the blob files — not just payload equality — is
    the strongest form of the determinism claim: recipe, payload, and
    canonical serialization all agree.  With ``exact``, any blob in
    ``store`` outside ``keys`` counts as a difference too.
    """
    def blob(of: ResultStore, key: str) -> Optional[bytes]:
        try:
            return of.blob_path(key).read_bytes()
        except OSError:
            return None

    mismatched = []
    for key in keys:
        ours = blob(store, key)
        if ours is None or ours != blob(serial_store, key):
            mismatched.append(key)
    if exact:
        mismatched += sorted(
            path.stem for path in store.objects_dir.glob("*.json")
            if path.stem not in keys
        )
    return mismatched


def _stop(proc: subprocess.Popen, timeout_s: float) -> Optional[int]:
    """Wait for ``proc``; SIGKILL it (exit None) if it overstays."""
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30.0)
        return None


@dataclass
class FaultReport:
    """One fault case's verdict and forensics.

    ``exit_codes`` are the workers' in spawn order, or the daemon's
    two lives ``[first, drain]``.  The ``journal_*``/``blobs_*`` and
    ``residue`` fields are the daemon target's; ``outcome`` is the
    worker target's sweep.
    """

    fault: Optional[str]
    keys: List[str]
    exit_codes: List[Optional[int]]
    mismatched_keys: List[str]
    acted: bool = False              # the injection step completed
    outcome: Optional[SweepOutcome] = None
    journal_after_kill: List[str] = field(default_factory=list)
    blobs_after_kill: int = 0
    residue: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def target(self) -> str:
        return FAULTS[self.fault].target

    @property
    def reclaimed(self) -> int:
        return self.outcome.reclaimed if self.outcome is not None else 0

    @property
    def fault_fired(self) -> bool:
        """The fault's evidence is present (always, for no fault)."""
        return FAULTS[self.fault].fired(self)

    @property
    def exits_ok(self) -> bool:
        """Every process exited as the target requires.

        A worker exits 0 or with the fault's victim exit code; the
        daemon's first life dies with the victim exit code and its
        second drains clean: exit 0, nothing left behind.
        """
        victim = FAULTS[self.fault].victim_exit
        if self.target == WORKERS:
            allowed = {0} if victim is None else {0, victim}
            return all(code in allowed for code in self.exit_codes)
        return self.exit_codes == [victim, 0] and not self.residue

    @property
    def ok(self) -> bool:
        """Fault fired, every blob byte-identical, every exit right."""
        return (
            self.fault_fired and not self.mismatched_keys and self.exits_ok
        )

    def summary_lines(self) -> List[str]:
        """Human-readable verdict plus the forensics behind it."""
        lines = [
            f"chaos[{self.fault or 'none'}]: "
            f"{'OK' if self.ok else 'FAIL'} — {len(self.keys)} key(s), "
            f"fault {'fired' if self.fault_fired else 'DID NOT FIRE'}, "
            f"{self.target} exits {self.exit_codes}"
        ]
        if self.target == WORKERS:
            lines.append(f"  {self.reclaimed} reclaim(s)")
        else:
            lines.append(
                f"  journal at death {self.journal_after_kill}, "
                f"{self.blobs_after_kill} blob(s) at death"
            )
        lines.extend(f"  left after drain: {item}" for item in self.residue)
        for key in self.mismatched_keys:
            lines.append(f"  blob {key} differs from the serial run")
        lines.extend(f"  {note}" for note in self.notes)
        return lines


def run_fault_case(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    fault: Optional[str] = None,
    n_workers: int = 2,
    lease_s: float = 1.5,
    checkpoint_stride: int = 20_000,
    timeout_s: float = 180.0,
    serial_store: Optional[ResultStore] = None,
) -> FaultReport:
    """Run one full fault case under ``base_dir``.

    Serial reference in ``<base>/serial`` (or a caller-provided
    ``serial_store`` already holding the blobs, so a test matrix
    simulates the reference once); the fleet's or daemon's world
    (queue, store, journal, logs) in ``<base>/dist`` or
    ``<base>/daemon``.  The target comes from :data:`FAULTS`;
    ``n_workers`` sizes a worker fleet and is ignored by the daemon.
    Every blob compared at the end was written by the machinery under
    fire, into a fresh store.
    """
    base_dir = Path(base_dir)
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: "
                         f"{sorted(name for name in FAULTS if name)}")
    keys = [content_key(recipe) for recipe in recipes]
    if serial_store is None:
        serial_store = store_for(base_dir / "serial")
        run_serial_sweep(recipes, serial_store)
    run = _run_workers if FAULTS[fault].target == WORKERS else _run_daemon
    report = run(
        base_dir, recipes, keys, fault, n_workers, lease_s,
        checkpoint_stride, timeout_s,
    )
    store = store_for(base_dir / ("dist" if report.target == WORKERS
                                  else "daemon"))
    if report.target == DAEMON:
        store.gc(blob_grace_s=0.0)   # retire checkpoint debris
    report.mismatched_keys = compare_blobs(
        serial_store, store, keys, exact=report.target == DAEMON,
    )
    return report


def _run_workers(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    keys: List[str],
    fault: Optional[str],
    n_workers: int,
    lease_s: float,
    checkpoint_stride: int,
    timeout_s: float,
) -> FaultReport:
    """Fault a real worker fleet; the coordinator supervises to done."""
    dist_dir = base_dir / "dist"
    queue = FileWorkQueue(
        dist_dir / "queue", lease_s=lease_s, corrupt_grace_s=0.5,
    )
    for recipe in recipes:
        queue.submit(recipe)
    report = FaultReport(fault=fault, keys=keys, exit_codes=[],
                         mismatched_keys=[])
    workers: List[subprocess.Popen] = []

    def spawn(worker_fault: Optional[str]) -> None:
        workers.append(spawn_worker(
            dist_dir / "queue", dist_dir,
            dist_dir / f"worker-{len(workers)}.log",
            lease_s=lease_s, checkpoint_stride=checkpoint_stride,
            fault=worker_fault,
        ))

    try:
        # The saboteur first (clean if the runner injects the fault).
        spawn(None if FAULTS[fault].inject else fault)
        if fault is not None:
            task_id, owner = poll_until(
                lambda: first_claim(queue, keys), 30.0, "a first claim",
            )
            inject = FAULTS[fault].inject
            if inject is not None:
                report.acted = inject(queue, task_id, owner)
                report.notes.append(
                    f"{fault} on {task_id} (owner {owner}): "
                    f"{'done' if report.acted else 'FAILED'}"
                )
        for _ in range(1, n_workers):
            spawn(None)
        report.outcome = run_distributed_sweep(
            recipes, queue, store_for(dist_dir),
            serial_grace_s=timeout_s,   # workers exist; never degrade
            timeout_s=timeout_s,
            checkpoint_stride=checkpoint_stride,
        )
    finally:
        report.exit_codes = [_stop(proc, 30.0) for proc in workers]
    return report


def _run_daemon(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    keys: List[str],
    fault: str,
    n_workers: int,
    lease_s: float,
    checkpoint_stride: int,
    timeout_s: float,
) -> FaultReport:
    """Kill the daemon in a crash window, restart it, drain it."""
    daemon_dir = base_dir / "daemon"
    daemon_dir.mkdir(parents=True, exist_ok=True)
    journal = RequestJournal(serve_dir(daemon_dir) / "journal")
    report = FaultReport(fault=fault, keys=keys, exit_codes=[],
                         mismatched_keys=[])
    inject = FAULTS[fault].inject
    args = [
        "serve",
        "--results-dir", str(daemon_dir),
        "--lease", str(lease_s),
        "--serial-grace", "0.5",
        "--checkpoint-stride", str(checkpoint_stride),
    ]

    def connect(proc: subprocess.Popen) -> ServeClient:
        endpoint = poll_until(
            lambda: live_endpoint(daemon_dir, proc.pid), timeout_s,
            f"an endpoint from daemon pid {proc.pid}",
        )
        return ServeClient(endpoint["host"], endpoint["port"],
                           timeout_s=10.0)

    def post(client: ServeClient, recipe: Dict, wait_s: float) -> Any:
        try:
            return client.call(
                "POST", "/request", {"recipe": recipe, "wait_s": wait_s},
            )
        except (OSError, http.client.HTTPException) as exc:
            return exc

    # -- first life: die inside the crash window -------------------------
    first = spawn_repro(
        args + ([] if inject else ["--fault", fault]),
        daemon_dir / "daemon-1.log",
    )
    try:
        client = connect(first)
        if inject:
            # Accept everything concurrently — the first recipe twice,
            # so the duplicates must coalesce — then SIGKILL.
            responses: List[Any] = []
            threads = [
                threading.Thread(
                    target=lambda r=recipe: responses.append(
                        post(client, r, 0)
                    ),
                )
                for recipe in [*recipes, recipes[0]]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            report.notes.append(f"accepts before SIGKILL: {responses}")
            accepted = len(responses) == len(threads) and all(
                isinstance(r, tuple) and r[0] in (200, 202)
                for r in responses
            )
            report.acted = inject(first) and accepted
        else:
            # The first POST dies mid-handshake: journal written, then
            # os._exit.  The client sees a dead socket.
            answer = post(client, recipes[0], 5.0)
            report.acted = not isinstance(answer, tuple)
            if not report.acted:
                report.notes.append(
                    f"first POST answered {answer} — fault did not fire?"
                )
    finally:
        report.exit_codes.append(_stop(first, 30.0))

    report.journal_after_kill = sorted(
        entry.key for entry in journal.entries()
    )
    store = store_for(daemon_dir)
    report.blobs_after_kill = sum(
        1 for key in keys if store.get(key) is not None
    )

    # -- second life: replay must finish everything, then drain ---------
    second = spawn_repro(args, daemon_dir / "daemon-2.log")
    try:
        client = connect(second)
        if not inject:
            # Only the first recipe was ever journaled; submit the
            # rest as fresh requests against the recovered daemon.
            for recipe in recipes[1:]:
                post(client, recipe, 0)
        for key in keys:
            poll_until(lambda k=key: _finished_result(client, k),
                       timeout_s, f"result {key}", poll_s=0.1)
        second.send_signal(signal.SIGTERM)
    finally:
        report.exit_codes.append(_stop(second, 120.0))
    if journal.depth():
        report.residue.append(f"{journal.depth()} journal entr(ies)")
    if read_endpoint(daemon_dir) is not None:
        report.residue.append("the endpoint file")
    return report
