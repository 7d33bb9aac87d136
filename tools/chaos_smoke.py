#!/usr/bin/env python
"""CI chaos smoke: fault real worker or daemon processes, demand same bytes.

Runs one full fault case (the same runner the test matrix uses,
:func:`repro.chaos.run_fault_case`): a serial reference sweep, then
the same task recipes through real subprocesses under the chosen
fault, and finally a byte-for-byte comparison of every result blob
against the serial run.

* Worker faults run two ``repro worker`` subprocesses against a
  shared queue; the default SIGKILLs the one holding the first claim.
* Daemon faults kill a ``repro serve`` daemon inside a journal crash
  window and restart it.  ``sigkill-after-accept`` sends every request
  concurrently, one of them twice, and SIGKILLs the daemon once all
  are accepted; the journal must then hold exactly the unique keys.
  Either way the restarted daemon must replay everything, drain with
  exit 0 leaving an empty journal and no endpoint file, and leave
  (after ``gc``) exactly the expected blobs.

Exit 0 means the fault fired, every process exited as required and
every blob is byte-identical.  Any other outcome exits 1 after
printing the report, and leaves the base directory in place (CI
uploads it as the forensic artifact).

Usage:
    PYTHONPATH=src python tools/chaos_smoke.py [--base-dir DIR]
        [--fault NAME] [--requests N] [--workers N]
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaos import FAULTS, run_fault_case  # noqa: E402
from repro.distrib.coordinator import shard_points  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402


def main(argv=None):
    """Run the chaos smoke and return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--base-dir", default="chaos-smoke",
        help="directory for the serial reference, queue, stores and "
             "logs (kept on failure for artifact upload)",
    )
    parser.add_argument(
        "--fault", default="sigkill-claim-holder",
        choices=sorted(name for name in FAULTS if name is not None),
        help="which death to inject (default: SIGKILL the claim holder)",
    )
    parser.add_argument(
        "--requests", type=int, default=60_000,
        help="requests per core per task (sized so a lease expires, or "
             "the daemon dies, mid-simulation on the CI runner)",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    recipes = shard_points(specs, args.requests, 0)

    fault = FAULTS[args.fault]
    print(f"chaos smoke: {args.fault} ({fault.target}: "
          f"{fault.description}), {len(recipes)} task(s)")
    report = run_fault_case(
        Path(args.base_dir),
        recipes,
        fault=args.fault,
        n_workers=args.workers,
        lease_s=0.5,
        checkpoint_stride=300_000,
        timeout_s=300.0,
    )
    for line in report.summary_lines():
        print(line)
    if report.outcome is not None:
        for line in report.outcome.summary_lines():
            print(line)
    if not report.fault_fired:
        print("FAIL: the injected fault never fired (vacuous run)")
        return 1
    if not report.ok:
        print("FAIL: a blob differs from the serial reference, or a "
              "process did not exit as required")
        return 1
    print("OK: fault fired; every blob byte-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
