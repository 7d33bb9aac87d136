"""Chaos harness for the serve daemon: kill it, restart it, compare.

Same oracle as the worker chaos harness (:mod:`repro.distrib.chaos`):
a serial run is the reference, and after the daemon has been killed
and recovered, every requested result blob must be *byte-identical*
to the serial one.  Two faults cover the journal's two halves:

``serve-kill-mid-request`` (in-process, deterministic)
    The daemon ``os._exit(45)``\\ s immediately after writing the
    first request's journal entry — before any queue submit, any
    execution, any result put.  The client sees a dead socket; the
    journal is the *only* trace the request ever existed.  A
    restarted daemon must replay it to completion.

``sigkill-after-accept`` (external)
    Every request is submitted with ``wait_s=0`` (202-accepted, work
    in flight), then the harness SIGKILLs the daemon — no drain, no
    cleanup.  Replay must finish whatever the first life didn't.

Both cases end with a SIGTERM graceful drain: the recovered daemon
must exit 0 with an empty journal, proving that crash recovery leaves
no permanent residue.
"""

from __future__ import annotations

import http.client
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..distrib.chaos import compare_blobs, spawn_repro
from ..distrib.coordinator import run_serial_sweep
from ..results.store import ResultStore, content_key, store_for
from .client import ServeClient
from .engine import KILL_MID_REQUEST_EXIT
from .journal import RequestJournal
from .server import read_endpoint, serve_dir

#: Faults this harness injects from outside the daemon process.
SERVE_EXTERNAL_FAULTS = {
    "sigkill-after-accept":
        "SIGKILL the daemon after every request is journaled and "
        "202-accepted, before the work completes",
}


def wait_for_endpoint(
    results_dir: Path,
    pid: int,
    timeout_s: float = 30.0,
    poll_s: float = 0.05,
) -> Dict[str, Any]:
    """Block until *this* daemon (by pid) advertises its endpoint.

    Matching on pid matters after a restart: the killed daemon's stale
    endpoint file is still on disk, and connecting to its dead port
    would make the harness flake.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        endpoint = read_endpoint(results_dir)
        if endpoint is not None and endpoint.get("pid") == pid:
            return endpoint
        time.sleep(poll_s)
    raise TimeoutError(
        f"daemon pid {pid} never advertised an endpoint under "
        f"{results_dir} within {timeout_s:.1f}s"
    )


def poll_until_done(
    client: ServeClient,
    key: str,
    timeout_s: float,
    poll_s: float = 0.1,
) -> Dict[str, Any]:
    """Re-poll ``/result/<key>`` until 200; tolerate transient errors."""
    deadline = time.monotonic() + timeout_s
    last: Any = None
    while time.monotonic() < deadline:
        try:
            code, data = client.result(key)
        except (OSError, http.client.HTTPException) as exc:
            last = exc
            time.sleep(poll_s)
            continue
        if code == 200:
            return data
        if code == 500:
            raise AssertionError(f"key {key} poisoned: {data}")
        last = (code, data)
        time.sleep(poll_s)
    raise TimeoutError(
        f"key {key} not done within {timeout_s:.1f}s (last: {last})"
    )


@dataclass
class ServeChaosReport:
    """One serve chaos case's verdict and forensics."""

    fault: str
    keys: List[str]
    first_exit: Optional[int]
    drain_exit: Optional[int]
    journal_depth_after_kill: int
    journal_depth_after_drain: int
    blobs_present_after_kill: int
    mismatched_keys: List[str]
    fault_fired: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Fault fired, recovery completed, drain clean, bytes equal."""
        return (
            self.fault_fired
            and not self.mismatched_keys
            and self.drain_exit == 0
            and self.journal_depth_after_drain == 0
        )

    def summary_lines(self) -> List[str]:
        lines = [
            f"serve-chaos[{self.fault}]: "
            f"{'OK' if self.ok else 'FAIL'} — "
            f"{len(self.keys)} key(s), first exit {self.first_exit}, "
            f"drain exit {self.drain_exit}, journal "
            f"{self.journal_depth_after_kill} after kill / "
            f"{self.journal_depth_after_drain} after drain"
        ]
        for key in self.mismatched_keys:
            lines.append(f"  blob {key} differs from the serial run")
        lines.extend(f"  {note}" for note in self.notes)
        return lines


def run_serve_chaos_case(
    base_dir: Path,
    recipes: Sequence[Dict[str, Any]],
    fault: str = "serve-kill-mid-request",
    timeout_s: float = 120.0,
    serial_grace_s: float = 0.5,
    checkpoint_stride: int = 20_000,
    serial_store: Optional[ResultStore] = None,
) -> ServeChaosReport:
    """Run one full serve chaos experiment under ``base_dir``.

    Serial reference in ``<base>/serial`` (or a caller-provided
    ``serial_store``), the daemon's world (store + queue + journal +
    logs) in ``<base>/daemon``.  No workers are spawned: the daemon's
    own sticky-degraded execution does the computing, which keeps the
    case about the *journal*, not the fleet.
    """
    base_dir = Path(base_dir)
    keys = [content_key(recipe) for recipe in recipes]
    if serial_store is None:
        serial_store = store_for(base_dir / "serial")
        run_serial_sweep(recipes, serial_store)

    daemon_dir = base_dir / "daemon"
    daemon_dir.mkdir(parents=True, exist_ok=True)
    journal = RequestJournal(serve_dir(daemon_dir) / "journal")
    notes: List[str] = []
    internal = fault not in SERVE_EXTERNAL_FAULTS

    args = [
        "serve",
        "--results-dir", str(daemon_dir),
        "--lease", "1.5",
        "--serial-grace", str(serial_grace_s),
        "--checkpoint-stride", str(checkpoint_stride),
    ]
    first = spawn_repro(
        args + (["--fault", fault] if internal else []),
        daemon_dir / "daemon-1.log",
    )
    fault_fired = False
    first_exit: Optional[int] = None
    try:
        endpoint = wait_for_endpoint(daemon_dir, first.pid, timeout_s)
        client = ServeClient(endpoint["host"], endpoint["port"],
                             timeout_s=10.0)
        if internal:
            # The first POST dies mid-handshake: journal written, then
            # os._exit(45).  The client sees a dead socket.
            try:
                client.call(
                    "POST", "/request",
                    {"recipe": recipes[0], "wait_s": 5.0},
                )
                notes.append("first POST answered — fault did not fire?")
            except (OSError, http.client.HTTPException):
                pass
            first_exit = first.wait(timeout=30.0)
            fault_fired = first_exit == KILL_MID_REQUEST_EXIT
            notes.append(
                f"daemon died with exit {first_exit} "
                f"(expected {KILL_MID_REQUEST_EXIT})"
            )
        else:
            # Accept everything (wait_s=0 → 202), then SIGKILL.
            for recipe in recipes:
                code, data = client.call(
                    "POST", "/request", {"recipe": recipe, "wait_s": 0},
                )
                if code not in (200, 202):
                    notes.append(f"unexpected accept status {code}: {data}")
            first.send_signal(signal.SIGKILL)
            first_exit = first.wait(timeout=30.0)
            fault_fired = True
            notes.append(f"SIGKILLed after accept (exit {first_exit})")
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30.0)

    depth_after_kill = journal.depth()
    store = store_for(daemon_dir)
    blobs_after_kill = sum(
        1 for key in keys if store.get(key) is not None
    )

    # -- restart clean, let replay + fresh submissions finish ----------
    second = spawn_repro(args, daemon_dir / "daemon-2.log")
    drain_exit: Optional[int] = None
    try:
        endpoint = wait_for_endpoint(daemon_dir, second.pid, timeout_s)
        client = ServeClient(endpoint["host"], endpoint["port"],
                             timeout_s=10.0)
        if internal:
            # Only the first recipe was ever journaled; submit the
            # rest as fresh requests against the recovered daemon.
            for recipe in recipes[1:]:
                client.call(
                    "POST", "/request", {"recipe": recipe, "wait_s": 0},
                )
        for key in keys:
            poll_until_done(client, key, timeout_s)
        second.send_signal(signal.SIGTERM)
        drain_exit = second.wait(timeout=60.0)
    finally:
        if second.poll() is None:
            second.kill()
            second.wait(timeout=30.0)

    return ServeChaosReport(
        fault=fault,
        keys=keys,
        first_exit=first_exit,
        drain_exit=drain_exit,
        journal_depth_after_kill=depth_after_kill,
        journal_depth_after_drain=journal.depth(),
        blobs_present_after_kill=blobs_after_kill,
        mismatched_keys=compare_blobs(serial_store, store, keys),
        fault_fired=fault_fired,
        notes=notes,
    )
