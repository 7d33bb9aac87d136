"""A benchmark-owned worker process: ``repro.distrib.worker.run_worker``.

Usage (``src`` of the checkout on ``PYTHONPATH``)::

    python perfbench/worker_host.py --queue-dir Q --results-dir R \
        [--loop] [--trace-out spans.json] [--rss-out rss.txt]

It runs the same claim/execute loop as ``repro worker`` with the same
defaults, and adds what the benchmark needs from outside:

* prints ``ready`` once every import is done, so set-up time can be
  measured to the moment the worker can take work;
* ``--loop`` re-enters ``run_worker`` until SIGTERM.  ``run_worker``
  returns as soon as the queue has no open task, which behind a serve
  daemon happens between requests; a plain ``repro worker`` would exit
  there and leave the daemon to turn degraded;
* ``--trace-out`` installs the tracer's wrappers and writes the spans
  on exit; ``--rss-out`` writes the process's peak RSS in MB on exit.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

from tracing import Tracer

#: How long a looping worker waits before re-entering ``run_worker``
#: (``run_worker``'s own idle poll interval).
LOOP_POLL_S = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queue-dir", required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--loop", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--rss-out", default=None)
    args = parser.parse_args(argv)

    from repro.distrib.queue import FileWorkQueue
    from repro.distrib.worker import install_shutdown_handler, run_worker
    from repro.results.store import store_for
    import repro.workloads.compiled  # noqa: F401 -- imported before "ready"
    import repro.workloads.sources  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    queue = FileWorkQueue(Path(args.queue_dir))
    store = store_for(Path(args.results_dir))
    stop = install_shutdown_handler()
    print("ready", flush=True)
    failed = 0
    try:
        while True:
            summary = run_worker(queue, store, stop_event=stop)
            failed += summary.failed
            if not args.loop or stop.wait(LOOP_POLL_S):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(args.trace_out))
        if args.rss_out:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            Path(args.rss_out).write_text(f"{peak_kb / 1024.0}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
