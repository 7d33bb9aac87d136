#!/usr/bin/env python
"""CI serve smoke: SIGKILL the daemon mid-flight, demand full recovery.

The script drives the serving layer's whole crash-recovery contract in
one pass:

1. start a real ``repro serve`` daemon;
2. send three concurrent requests — two *identical* (they must
   coalesce onto one journal entry and one execution) and one
   distinct — all with ``wait_s=0`` so they are 202-accepted and in
   flight;
3. SIGKILL the daemon (no drain, no cleanup);
4. assert the journal holds exactly the two accepted keys;
5. restart the daemon and let journal replay finish both requests;
6. assert the store holds *exactly* the expected result blobs (after
   a gc pass retires checkpoint debris), byte-identical to a serial
   reference run;
7. SIGTERM the daemon and require a clean drain: exit 0, empty
   journal, endpoint file retired.

Exit 0 means every assertion held.  Any other outcome exits 1 after
printing the forensics, and leaves the base directory in place (CI
uploads it as the failure artifact).

Usage:
    PYTHONPATH=src python tools/serve_smoke.py [--base-dir DIR]
        [--requests N]
"""

import argparse
import http.client
import signal
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.distrib.chaos import spawn_repro  # noqa: E402
from repro.distrib.coordinator import run_serial_sweep  # noqa: E402
from repro.distrib.worker import sweep_task_recipe  # noqa: E402
from repro.results.store import content_key, store_for  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.serve.chaos import (  # noqa: E402
    poll_until_done,
    wait_for_endpoint,
)
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.journal import RequestJournal  # noqa: E402
from repro.serve.server import read_endpoint, serve_dir  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402


def fail(message):
    print(f"FAIL: {message}")
    return 1


def main(argv=None):
    """Run the serve smoke and return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--base-dir", default="serve-smoke",
        help="directory for the serial reference and the daemon's "
             "world (kept on failure for artifact upload)",
    )
    parser.add_argument(
        "--requests", type=int, default=20_000,
        help="requests per core per task (sized so the SIGKILL lands "
             "mid-flight on the CI runner)",
    )
    args = parser.parse_args(argv)

    base = Path(args.base_dir)
    system = SystemConfig(n_cores=1, banks_per_channel=8)
    shared = sweep_task_recipe(
        ScenarioSpec.benign("mcf", system=system).recipe(),
        args.requests, 0,
    )
    distinct = sweep_task_recipe(
        ScenarioSpec.benign("add_copy", system=system).recipe(),
        args.requests, 0,
    )
    keys = [content_key(shared), content_key(distinct)]
    print(f"serve smoke: 2x identical + 1 distinct request, "
          f"keys {keys}")

    serial_store = store_for(base / "serial")
    run_serial_sweep([shared, distinct], serial_store)

    daemon_dir = base / "daemon"
    journal = RequestJournal(serve_dir(daemon_dir) / "journal")
    store = store_for(daemon_dir)

    # -- first life: accept three requests, then die hard -------------
    # Short leases: the killed daemon's claims expire within seconds.
    args = [
        "serve", "--results-dir", str(daemon_dir), "--lease", "1.5",
        "--serial-grace", "0.5", "--checkpoint-stride", "20000",
    ]
    first = spawn_repro(args, base / "daemon-1.log")
    responses = []
    try:
        endpoint = wait_for_endpoint(daemon_dir, first.pid, 60.0)
        client = ServeClient(endpoint["host"], endpoint["port"],
                             timeout_s=10.0)

        def accept(recipe):
            try:
                responses.append(client.call(
                    "POST", "/request", {"recipe": recipe, "wait_s": 0}
                ))
            except (OSError, http.client.HTTPException) as exc:
                responses.append(exc)

        threads = [
            threading.Thread(target=accept, args=(recipe,))
            for recipe in (shared, shared, distinct)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30.0)
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30.0)
    print(f"accepted: {responses}")
    accepted = [r for r in responses if isinstance(r, tuple)]
    if len(accepted) != 3 or any(c not in (200, 202) for c, _ in accepted):
        return fail(f"expected three 202/200 accepts, got {responses}")

    journaled = sorted(entry.key for entry in journal.entries())
    print(f"journal after SIGKILL: {journaled}")
    if journaled != sorted(keys):
        return fail(
            f"journal should hold exactly the two accepted keys "
            f"{sorted(keys)}, holds {journaled} — coalescing or the "
            "write-ahead discipline is broken"
        )

    # -- second life: replay must finish everything --------------------
    second = spawn_repro(args, base / "daemon-2.log")
    try:
        endpoint = wait_for_endpoint(daemon_dir, second.pid, 60.0)
        client = ServeClient(endpoint["host"], endpoint["port"],
                             timeout_s=10.0)
        for key in keys:
            poll_until_done(client, key, timeout_s=180.0)
        print("replay completed every journaled key")
        second.send_signal(signal.SIGTERM)
        drain_exit = second.wait(timeout=120.0)
    finally:
        if second.poll() is None:
            second.kill()
            second.wait(timeout=30.0)
    if drain_exit != 0:
        return fail(f"graceful drain exited {drain_exit}, want 0")
    if journal.depth() != 0:
        return fail(f"journal not empty after drain: {journal.depth()}")
    if read_endpoint(daemon_dir) is not None:
        return fail("endpoint file not retired on clean shutdown")

    # -- the store holds exactly the expected blobs ---------------------
    store.gc(blob_grace_s=0.0)   # retire checkpoint debris
    blobs = sorted(
        path.stem for path in store.objects_dir.glob("*.json")
    )
    if blobs != sorted(keys):
        return fail(
            f"store should hold exactly {sorted(keys)}, holds {blobs}"
        )
    for key in keys:
        if (store.blob_path(key).read_bytes()
                != serial_store.blob_path(key).read_bytes()):
            return fail(f"blob {key} differs from the serial reference")
    print("OK: coalesced journal, full replay, clean drain, "
          "byte-identical blobs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
