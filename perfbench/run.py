"""End-to-end benchmark of the ImPress/MINT reproduction (``repro``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 30 --trace 0

Workloads are ``paper_suite``, ``serve_mix`` and ``dist_sweep`` (see
perfbench/README.md).  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer metrics; both check every output the
workload produced.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(each metric a ``{"value", "unit"}`` pair, units from BENCHMARK.json).
The program is imported from ``src/`` of the checkout and nowhere
else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_suite", "serve_mix", "dist_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=30,
        help="nominal run length; each workload does a fixed amount of "
             "work sized to about this on a 2-CPU host, because its "
             "headline metric is the time that work takes",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path) -> Optional[str]:
    """Import ``repro`` from the checkout's ``src/``; why not, or None."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"perfbench: no program at {src}/repro"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"perfbench: imported repro from {repro.__file__}, not {src}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problem = import_program(ROOT)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    table = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in table}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed, env=env)
    workloads.fresh_dir(work)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    finally:
        # Keep only the written-out spans of a traced run.
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif not path.name.endswith(".trace.json"):
                path.unlink()
        if not args.trace:
            work.rmdir()

    if set(outcome.metrics) != set(units):
        print(f"perfbench: metrics {sorted(outcome.metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 3
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}")
    for name, values in outcome.samples.items():
        print(f"perfbench: {name} samples "
              + " ".join(f"{value:.4f}" for value in values))
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={outcome.attempted} "
          f"failed={outcome.failed}" + (f" spans in {work}" if args.trace
                                        else ""))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
