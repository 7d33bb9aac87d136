"""The benchmark's three workloads, their set-up and their output checks.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`: metric values plus how many operations were attempted
and how many failed.  Untraced runs measure the end-to-end metrics;
traced runs measure the same work again with :class:`tracing.Tracer`
installed and derive the per-layer metrics.  Only public ``repro``
entry points and subprocesses are driven.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing
from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORKER_HOST = HERE / "worker_host.py"

#: End-to-end metrics, emitted by every workload's untraced run.
E2E_NAMES = ("setup_s", "makespan_s", "peak_rss_mb")

#: The eight experiments that simulate (the rest are analytic).
SIM_EXPERIMENTS = (
    "ablation", "energy", "fig3", "fig5", "fig13", "fig14", "fig15", "fig16",
)

#: Per-layer metrics, emitted by every workload's traced run (0 where a
#: layer is not on the workload's path).
LAYER_NAMES = (
    "workloads.compile_s", "workloads.compile_calls",
    "workloads.trace_cache_hit_rate",
    "sim.run_calls", "sim.run_s", "sim.cycles", "sim.host_ns_per_cycle",
    "batch.s", "batch.overhead_s", "batch.lanes", "batch.leaders",
    "batch.replayed", "batch.fallbacks", "batch.singletons",
    "batch.replay_share",
    "prof.sim_system_share", "prof.memctrl_share", "prof.trackers_share",
    "prof.core_share", "prof.dram_share", "prof.stdlib_share",
) + tuple("model." + name for name in tracing.MODEL_FIELDS) + tuple(
    f"exp.{name}_s" for name in SIM_EXPERIMENTS
) + (
    "experiments.runner_hit_rate", "experiments.paper_rows_off",
    "store.get_calls", "store.get_ms", "store.get_hit_rate",
    "store.put_calls", "store.put_ms",
    "queue.submit_ms", "queue.claim_calls", "queue.claim_ms",
    "queue.reclaims", "worker.exec_s", "worker.checkpoints",
    "coordinator.idle_s",
    "serve.hits", "serve.coalesced", "serve.accepted", "serve.shed",
    "serve.degraded", "serve.journal_record_ms", "serve.miss_wait_ms",
    "serve.hit_p50_ms", "serve.miss_p50_ms", "serve.p95_ms", "serve.rps",
    "failed_share", "trace.overhead_s",
)

#: Bounded waits, so a wedged child fails the run instead of hanging it.
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_DEADLINE_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a wrong output)."""


@dataclass
class Context:
    """Where and with what one benchmark run works."""

    root: Path          # checkout root (holds src/ and perfbench/)
    work: Path          # scratch directory inside the checkout
    seed: int
    env: Dict[str, str]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str] = field(default_factory=list)
    #: Every measurement behind a reported median, by metric name.
    samples: Dict[str, List[float]] = field(default_factory=dict)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value: Any) -> str:
    from repro.results.store import canonical_json

    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]


class Child:
    """One benchmark-owned subprocess, logging to a file in the work dir."""

    def __init__(self, ctx: Context, tag: str, argv: List[str]) -> None:
        self.tag = tag
        self.log = ctx.work / f"{tag}.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ctx.root, env=ctx.env,
                stdout=log, stderr=subprocess.STDOUT,
            )

    def wait_until(self, ready: Callable[[], bool], what: str) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not ready():
            if self.proc.poll() is not None:
                raise BenchError(
                    f"{self.tag} exited ({self.proc.returncode}) before "
                    f"{what}:\n{self.log.read_text()[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise BenchError(f"{self.tag}: timed out waiting for {what}")
            time.sleep(0.005)

    def wait_printed(self, line: str) -> None:
        self.wait_until(
            lambda: line in self.log.read_text().splitlines(), repr(line)
        )

    def peak_rss_mb(self) -> float:
        """VmHWM of the live process (0 when it already exited)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        return 0.0

    def wait_exit(self, timeout_s: float) -> Optional[int]:
        try:
            return self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            return None

    def stop(self) -> None:
        """SIGTERM (a graceful drain for both daemon and worker), then
        SIGKILL past the timeout; always reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            if self.wait_exit(STOP_TIMEOUT_S) is None:
                self.proc.kill()
        self.proc.wait()


class Fleet:
    """Benchmark-owned worker processes (:mod:`worker_host`)."""

    def __init__(
        self, ctx: Context, tag: str, queue_dir: Path, results_dir: Path,
        count: int, loop: bool, traced: bool,
    ) -> None:
        self.children: List[Child] = []
        self.rss_files: List[Path] = []
        self.trace_files: List[Path] = []
        for index in range(count):
            name = f"{tag}-worker{index}"
            argv = [sys.executable, str(WORKER_HOST),
                    "--queue-dir", str(queue_dir),
                    "--results-dir", str(results_dir),
                    "--rss-out", str(ctx.work / f"{name}.rss")]
            self.rss_files.append(ctx.work / f"{name}.rss")
            if loop:
                argv.append("--loop")
            if traced:
                self.trace_files.append(ctx.work / f"{name}.spans.json")
                argv += ["--trace-out", str(self.trace_files[-1])]
            self.children.append(Child(ctx, name, argv))

    def wait_ready(self) -> None:
        for child in self.children:
            child.wait_printed("ready")

    def stop(self) -> None:
        for child in self.children:
            child.stop()

    def peak_rss_mb(self) -> float:
        """Sum of the workers' peak RSS (call after they exited)."""
        return sum(
            float(path.read_text()) for path in self.rss_files
            if path.is_file()
        )

    def spans(self) -> List[List[list]]:
        return [tracing.load_dump(path) for path in self.trace_files
                if path.is_file()]


def _layer_defaults() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_NAMES}


# -- paper_suite -------------------------------------------------------------

#: The pinned digest of every experiment's jsonified result in the
#: suite's default configuration (quick, 800 requests per core, seed 0).
SUITE_DIGESTS = HERE / "paper_suite_digests.json"

#: Fresh interpreters timed for the suite's set-up (median reported).
SUITE_SETUP_RUNS = 9

#: Suite passes per untraced run (median reported).
SUITE_PASSES = 2

#: What a ``repro run`` process does before its first experiment.
SUITE_IMPORTS = (
    "import numpy\n"
    "from repro.experiments import registry\n"
    "from repro.experiments.orchestrator import Orchestrator\n"
    "registry.ensure_loaded()\n"
)


def _suite_setup_s(ctx: Context) -> float:
    times = []
    for _ in range(SUITE_SETUP_RUNS):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms,
        # which would quantize a ~0.3 s measurement.
        subprocess.run([sys.executable, "-c", SUITE_IMPORTS], cwd=ctx.root,
                       env=ctx.env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_suite(report) -> List[str]:
    """Experiments that are missing or whose result digest moved."""
    pinned = json.loads(SUITE_DIGESTS.read_text())
    outcomes = {} if report is None else report.by_name
    failures = []
    for name, expected in pinned.items():
        outcome = outcomes.get(name)
        if outcome is None:
            failures.append(f"{name}: did not finish")
        elif digest(outcome.result) != expected:
            failures.append(f"{name}: result digest {digest(outcome.result)}"
                            f" != pinned {expected}")
    return failures


def suite_pass(ctx: Context, tag: str) -> Tuple[Any, float, List[str]]:
    """One full suite, as ``repro run --force --jobs 1`` runs it."""
    from repro.experiments.orchestrator import Orchestrator, OrchestratorError
    from repro.workloads.compiled import clear_compiled_cache

    results = fresh_dir(ctx.work / tag)
    # Every `repro run` starts with an empty compiled-trace cache.
    clear_compiled_cache()
    start = time.perf_counter()
    try:
        report = Orchestrator(results_dir=results, jobs=1, force=True).run()
    except OrchestratorError as exc:
        report = None
        print(f"perfbench: {exc}", file=sys.stderr)
    seconds = time.perf_counter() - start
    return report, seconds, check_suite(report)


def paper_suite(ctx: Context, traced: bool) -> Outcome:
    """All registered experiments through ``Orchestrator.run``.

    The suite is one fixed input, the paper's configuration at its
    default seed, so its output can be checked against pinned digests;
    ``--seed`` does not change it.
    """
    attempted = len(json.loads(SUITE_DIGESTS.read_text()))
    setup_s = 0.0 if traced else _suite_setup_s(ctx)
    # Passes in this process pay no import cost: that is set-up.
    exec(SUITE_IMPORTS, {})
    if not traced:
        # Host load swings over tens of seconds; passes spread over a
        # longer run average more of it out.
        seconds, failures = [], []
        for index in range(SUITE_PASSES):
            _report, pass_s, pass_failures = suite_pass(ctx, f"suite{index}")
            seconds.append(pass_s)
            failures += pass_failures
        return Outcome(
            metrics={"setup_s": setup_s,
                     "makespan_s": statistics.median(seconds),
                     "peak_rss_mb": self_peak_rss_mb()},
            attempted=SUITE_PASSES * attempted, failed=len(failures),
            failures=failures, samples={"makespan_s": seconds},
        )

    _report, plain_s, failures = suite_pass(ctx, "suite-plain")
    tracer = Tracer()
    tracer.install()
    try:
        report, traced_s, traced_failures = suite_pass(ctx, "suite-traced")
    finally:
        tracer.uninstall()
    (_r, _s, profiled_failures), shares = tracing.profile_shares(
        lambda: suite_pass(ctx, "suite-profiled")
    )
    failures += traced_failures + profiled_failures
    spans = tracer.wall_spans()
    write_trace(ctx, "paper_suite", [spans])

    metrics = _layer_defaults()
    metrics.update(tracing.layer_metrics([spans]))
    metrics.update({f"prof.{name}_share": v for name, v in shares.items()})
    if report is not None:
        for name in SIM_EXPERIMENTS:
            metrics[f"exp.{name}_s"] = report.by_name[name].duration_s
        metrics["experiments.paper_rows_off"] = sum(
            1 for row in report.comparison_rows()
            if row["ratio"] is not None and abs(row["ratio"] - 1.0) > 0.10
        )
    hits = sum(r.cache_stats().hits for r in tracer.runners)
    lookups = hits + sum(r.cache_stats().misses for r in tracer.runners)
    metrics["experiments.runner_hit_rate"] = hits / lookups if lookups else 0
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["failed_share"] = len(failures) / (3 * attempted)
    return Outcome(metrics, 3 * attempted, len(failures), failures)


# -- serve_mix ---------------------------------------------------------------

#: Operations per stream, in exact shares; duplicate pairs send two
#: requests, so a stream carries over 200 requests (ten beyond its p95).
SERVE_OPS = 220
SERVE_HIT_SHARE = 0.6
SERVE_MISS_SHARE = 0.3          # the remaining 0.1 are duplicate pairs
#: Streams per run, each with its own fresh keys (median reported).
SERVE_STREAMS = 3
#: Keys answered during set-up, which the streams' hits read back.
SERVE_WARM_KEYS = 6
#: Simulated requests per core of one miss: tens of ms of simulation,
#: far below the daemon's 2 s serial grace.
SERVE_SIM_REQUESTS = 200
SERVE_CLIENTS = 2
SERVE_SETUP_RUNS = 3


def serve_streams(seed: int) -> Tuple[List[dict], List[List[Tuple]]]:
    """The seeded warm-up bodies and each stream's ``(kind, body)`` ops.

    Fresh keys cycle through the scenario presets, so every stream
    simulates the same preset mix; the seed picks the order of the
    operations and the simulation seeds.
    """
    from repro.scenarios import scenario_names

    rng = random.Random(seed)
    presets = scenario_names()
    rng.shuffle(presets)
    preset_cycle = itertools.cycle(presets)
    seen = set()

    def fresh() -> dict:
        scenario = next(preset_cycle)
        while True:
            sim_seed = rng.randrange(1 << 30)
            if (scenario, sim_seed) not in seen:
                seen.add((scenario, sim_seed))
                return {"scenario": scenario,
                        "n_requests": SERVE_SIM_REQUESTS, "seed": sim_seed}

    warm = [fresh() for _ in range(SERVE_WARM_KEYS)]
    hits = round(SERVE_OPS * SERVE_HIT_SHARE)
    misses = round(SERVE_OPS * SERVE_MISS_SHARE)
    kinds = (["hit"] * hits + ["miss"] * misses
             + ["pair"] * (SERVE_OPS - hits - misses))
    streams = []
    for _ in range(SERVE_STREAMS):
        rng.shuffle(kinds)
        streams.append([
            (kind, rng.choice(warm) if kind == "hit" else fresh())
            for kind in kinds
        ])
    return warm, streams


@dataclass
class Served:
    """One request as the client saw it."""

    kind: str
    body: dict
    key: str
    source: str
    latency_s: float
    payload: Any = None
    retries: int = 0
    error: Optional[str] = None


def send(client, kind: str, body: dict, tracer: Optional[Tracer]) -> Served:
    from repro.serve.client import ServeError

    span = tracer.begin("serve.request") if tracer else None
    start = time.perf_counter()
    try:
        out = client.request(body, deadline_s=REQUEST_DEADLINE_S)
        served = Served(kind, body, out.key, out.source,
                        time.perf_counter() - start, out.payload, out.retries)
    except (ServeError, OSError) as exc:
        served = Served(kind, body, "", "error",
                        time.perf_counter() - start, error=repr(exc))
    if span is not None:
        span[tracing.KEY] = served.key
        tracer.end(span)
    return served


def drive_stream(
    address: Tuple[str, int], ops: List[Tuple[str, dict]], seed: int,
    tracer: Optional[Tracer],
) -> Tuple[List[Served], float]:
    """Closed loop: each client sends its next op when the last returns.

    A duplicate pair is sent by one client as two simultaneous requests.
    """
    from repro.serve.client import ServeClient

    lock = threading.Lock()
    pending = iter(ops)
    records: List[Served] = []
    errors: List[Exception] = []

    def client_loop(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        client = ServeClient(*address, rng=rng)
        twin = ServeClient(*address, rng=random.Random(rng.random()))
        try:
            while True:
                with lock:
                    op = next(pending, None)
                if op is None:
                    return
                kind, body = op
                if kind != "pair":
                    batch = [send(client, kind, body, tracer)]
                else:
                    barrier = threading.Barrier(2)
                    other: List[Served] = []

                    def second() -> None:
                        barrier.wait()
                        other.append(send(twin, kind, body, tracer))

                    thread = threading.Thread(target=second)
                    thread.start()
                    barrier.wait()
                    batch = [send(client, kind, body, tracer)]
                    thread.join()
                    batch += other
                with lock:
                    records.extend(batch)
        except Exception as exc:  # raised below, after the join
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    makespan = time.perf_counter() - start
    if errors:
        raise BenchError(f"client thread died: {errors[0]!r}")
    return records, makespan


class ServeStack:
    """A daemon plus one looping worker, started and warmed up.

    Untraced, the daemon is a ``repro serve`` subprocess with default
    admission settings; traced, it is a :class:`ServeDaemon` hosted in
    this process so the tracer sees its store and journal calls.
    """

    def __init__(
        self, ctx: Context, tag: str, warm: List[dict],
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeDaemon, read_endpoint

        started = time.perf_counter()
        self.results = fresh_dir(ctx.work / tag)
        self.daemon: Optional[Child] = None
        self.hosted: Optional[ServeDaemon] = None
        self.fleet = Fleet(ctx, tag, self.results / "queue", self.results,
                           count=1, loop=True, traced=tracer is not None)
        try:
            if tracer is None:
                self.daemon = Child(ctx, f"{tag}-daemon", [
                    sys.executable, "-m", "repro", "serve",
                    "--results-dir", str(self.results),
                ])
                pid = self.daemon.proc.pid
                self.daemon.wait_until(
                    lambda: (read_endpoint(self.results) or {}).get("pid")
                    == pid, "the endpoint file",
                )
                endpoint = read_endpoint(self.results)
                self.address = (endpoint["host"], int(endpoint["port"]))
            else:
                self.hosted = ServeDaemon(self.results)
                self.hosted.start()
                self.hosted.serve_in_thread()
                self.address = self.hosted.address
            self.client = ServeClient(*self.address)
            self.client.healthz()
            self.fleet.wait_ready()
            self.warm = [send(self.client, "warm", body, None)
                         for body in warm]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> float:
        """Stop daemon and worker; returns their summed peak RSS (MB)."""
        rss = 0.0
        if self.daemon is not None:
            rss += self.daemon.peak_rss_mb()
            self.daemon.stop()
        if self.hosted is not None and self.hosted.httpd is not None:
            self.hosted.shutdown(STOP_TIMEOUT_S)
        self.fleet.stop()
        return rss + self.fleet.peak_rss_mb()


@dataclass
class ServePass:
    setup_s: float
    stream_s: List[float]
    records: List[Served]
    warm: List[Served]
    status: Dict[str, Any]
    stats: Dict[str, int]
    peak_rss_mb: float
    window: Tuple[float, float]
    worker_spans: List[List[list]]


def serve_pass(
    ctx: Context, tag: str, setups: int, tracer: Optional[Tracer] = None,
) -> ServePass:
    """Set the stack up ``setups`` times, then drive every stream."""
    warm, streams = serve_streams(ctx.seed)
    setup_times = []
    for index in range(setups):
        stack = ServeStack(ctx, f"{tag}{index}", warm, tracer)
        setup_times.append(stack.setup_s)
        if index < setups - 1:
            stack.stop()
    records: List[Served] = []
    stream_s = []
    try:
        before = stack.client.status()["stats"]
        window = time.time()
        for ops in streams:
            served, seconds = drive_stream(stack.address, ops, ctx.seed,
                                           tracer)
            records += served
            stream_s.append(seconds)
        window_end = time.time()
        status = stack.client.status()
    finally:
        rss = stack.stop()
    stats = {name: status["stats"][name] - before[name] for name in before}
    return ServePass(
        setup_s=statistics.median(setup_times), stream_s=stream_s,
        records=records, warm=stack.warm, status=status, stats=stats,
        peak_rss_mb=rss + self_peak_rss_mb(), window=(window, window_end),
        worker_spans=stack.fleet.spans(),
    )


def check_served(records: List[Served], degraded: bool) -> List[str]:
    """Requests that failed, were shed or retried, or returned bytes
    other than a serial ``build_simulator(recipe).run()``; a degraded
    daemon fails every request of the run."""
    from repro.distrib.worker import build_simulator
    from repro.results.store import canonical_json, content_key
    from repro.serve.server import recipe_from_request

    references: Dict[str, str] = {}
    failures = []
    for record in records:
        recipe = recipe_from_request(record.body)
        key = content_key(recipe)
        if key not in references:
            references[key] = canonical_json(
                build_simulator(recipe).run().to_json()
            )
        if degraded:
            failures.append(f"{key}: daemon turned degraded")
        elif record.error is not None:
            failures.append(f"{key}: {record.error}")
        elif record.retries:
            failures.append(f"{key}: shed or retried {record.retries}x")
        elif record.key != key:
            failures.append(f"{key}: answered under key {record.key}")
        elif canonical_json(record.payload) != references[key]:
            failures.append(f"{key}: payload differs from a serial run")
    return failures


def _latencies_ms(records: List[Served], source: Optional[str] = None):
    return [r.latency_s * 1e3 for r in records
            if source is None or r.source == source]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def serve_mix(ctx: Context, traced: bool) -> Outcome:
    """Served requests: store hits, fresh misses and duplicate pairs."""
    if not traced:
        run = serve_pass(ctx, "serve", SERVE_SETUP_RUNS)
        records = run.warm + run.records
        failures = check_served(records, bool(run.status["degraded"]))
        return Outcome(
            metrics={"setup_s": run.setup_s,
                     "makespan_s": statistics.median(run.stream_s),
                     "peak_rss_mb": run.peak_rss_mb},
            attempted=len(records), failed=len(failures), failures=failures,
            samples={"makespan_s": run.stream_s},
        )

    plain = serve_pass(ctx, "serve-plain", 1)
    tracer = Tracer()
    tracer.install()
    try:
        run = serve_pass(ctx, "serve-traced", 1, tracer)
    finally:
        tracer.uninstall()
    records = plain.warm + plain.records + run.warm + run.records
    degraded = bool(plain.status["degraded"] or run.status["degraded"])
    failures, shares = tracing.profile_shares(
        lambda: check_served(records, degraded)
    )
    local = tracing.in_window(tracer.wall_spans(), *run.window)
    workers = [tracing.in_window(s, *run.window) for s in run.worker_spans]
    write_trace(ctx, "serve_mix", [local] + workers)

    metrics = _layer_defaults()
    metrics.update(tracing.layer_metrics([local] + workers))
    metrics.update({f"prof.{name}_share": v for name, v in shares.items()})
    executed = tracing.exec_spans_by_key(workers)
    waits = [
        (r.latency_s - executed[r.key]) * 1e3 for r in run.records
        if r.source == "accepted" and r.key in executed
    ]
    every = _latencies_ms(plain.records)
    metrics.update({
        "serve.hits": run.stats["store_hits"],
        "serve.coalesced": run.stats["coalesced"],
        "serve.accepted": run.stats["accepted"],
        "serve.shed": run.stats["shed"],
        "serve.degraded": int(degraded),
        "serve.miss_wait_ms": _median(waits),
        "serve.hit_p50_ms": _median(_latencies_ms(plain.records, "hit")),
        "serve.miss_p50_ms": _median(
            _latencies_ms(plain.records, "accepted")),
        # Over 700 requests per pass, so over 35 lie beyond the p95.
        "serve.p95_ms": statistics.quantiles(every, n=100)[94],
        "serve.rps": len(plain.records) / sum(plain.stream_s),
        "trace.overhead_s": sum(run.stream_s) - sum(plain.stream_s),
        "failed_share": len(failures) / len(records),
    })
    return Outcome(metrics, len(records), len(failures), failures)


# -- dist_sweep --------------------------------------------------------------

#: Every scenario preset at this many requests per core, for this many
#: seeds: around 100 ms per task, dozens of tasks per sweep.
SWEEP_SIM_REQUESTS = 1000
SWEEP_SEEDS = 6
SWEEP_WORKERS = 2
#: Sweeps per untraced run, each with its own set-up (medians reported).
SWEEP_RUNS = 3


def sweep_recipes(seed: int) -> List[dict]:
    from repro.distrib.coordinator import shard_points
    from repro.scenarios import get_scenario, scenario_names

    rng = random.Random(seed)
    specs = [get_scenario(name) for name in scenario_names()]
    return [
        recipe
        for task_seed in rng.sample(range(1 << 30), SWEEP_SEEDS)
        for recipe in shard_points(specs, SWEEP_SIM_REQUESTS, task_seed)
    ]


@dataclass
class SweepPass:
    setup_s: float
    makespan_s: float
    blobs: Dict[str, Optional[str]]     # task key -> canonical payload
    error: Optional[str]
    degraded: bool
    peak_rss_mb: float
    window: Tuple[float, float]
    worker_spans: List[List[list]]


def sweep_pass(
    ctx: Context, tag: str, recipes: List[dict],
    tracer: Optional[Tracer] = None,
) -> SweepPass:
    """Workers up, then ``run_distributed_sweep`` on a fresh queue/store."""
    from repro.distrib.coordinator import (
        DistributedSweepError,
        run_distributed_sweep,
    )
    from repro.distrib.queue import FileWorkQueue
    from repro.results.store import canonical_json, content_key, store_for

    base = fresh_dir(ctx.work / tag)
    started = time.perf_counter()
    fleet = Fleet(ctx, tag, base / "queue", base / "results",
                  SWEEP_WORKERS, loop=False, traced=tracer is not None)
    error = None
    degraded = False
    try:
        fleet.wait_ready()
        setup_s = time.perf_counter() - started
        queue = FileWorkQueue(base / "queue")
        store = store_for(base / "results")
        window = time.time()
        start = time.perf_counter()
        try:
            outcome = run_distributed_sweep(recipes, queue, store)
            degraded = outcome.degraded
        except DistributedSweepError as exc:
            error = str(exc)
        makespan = time.perf_counter() - start
        window_end = time.time()
        for child in fleet.children:
            child.wait_exit(STOP_TIMEOUT_S)
    finally:
        fleet.stop()
    blobs = {}
    for recipe in recipes:
        payload = store.fetch(recipe)
        blobs[content_key(recipe)] = (
            None if payload is None else canonical_json(payload)
        )
    return SweepPass(
        setup_s=setup_s, makespan_s=makespan,
        blobs=blobs, error=error, degraded=degraded,
        peak_rss_mb=fleet.peak_rss_mb() + self_peak_rss_mb(),
        window=(window, window_end), worker_spans=fleet.spans(),
    )


def serial_blobs(ctx: Context, recipes: List[dict]) -> Dict[str, str]:
    """What ``run_serial_sweep`` stores for the same recipes."""
    from repro.distrib.coordinator import run_serial_sweep
    from repro.results.store import canonical_json, store_for

    store = store_for(fresh_dir(ctx.work / "sweep-serial"))
    outcome = run_serial_sweep(recipes, store)
    return {
        key: canonical_json(store.get(key)) for key in outcome.result_keys
    }


def check_sweep(run: SweepPass, reference: Dict[str, str]) -> List[str]:
    if run.error is not None:
        return [f"sweep failed: {run.error}"] * len(reference)
    if run.degraded:
        return ["coordinator degraded to in-process execution"] * len(
            reference)
    return [
        f"{key}: blob differs from run_serial_sweep"
        for key, blob in run.blobs.items() if blob != reference.get(key)
    ]


def dist_sweep(ctx: Context, traced: bool) -> Outcome:
    """Every scenario preset x seeds through ``run_distributed_sweep``."""
    recipes = sweep_recipes(ctx.seed)
    if not traced:
        runs = [sweep_pass(ctx, f"sweep{index}", recipes)
                for index in range(SWEEP_RUNS)]
        reference = serial_blobs(ctx, recipes)
        failures = [f for run in runs for f in check_sweep(run, reference)]
        return Outcome(
            metrics={
                "setup_s": statistics.median(r.setup_s for r in runs),
                "makespan_s": statistics.median(r.makespan_s for r in runs),
                "peak_rss_mb": max(r.peak_rss_mb for r in runs),
            },
            attempted=SWEEP_RUNS * len(recipes), failed=len(failures),
            failures=failures,
            samples={"setup_s": [r.setup_s for r in runs],
                     "makespan_s": [r.makespan_s for r in runs]},
        )

    plain = sweep_pass(ctx, "sweep-plain", recipes)
    tracer = Tracer()
    tracer.install()
    try:
        run = sweep_pass(ctx, "sweep-traced", recipes, tracer)
    finally:
        tracer.uninstall()
    reference, shares = tracing.profile_shares(
        lambda: serial_blobs(ctx, recipes)
    )
    failures = check_sweep(plain, reference) + check_sweep(run, reference)
    local = tracing.in_window(tracer.wall_spans(), *run.window)
    workers = [tracing.in_window(s, *run.window) for s in run.worker_spans]
    write_trace(ctx, "dist_sweep", [local] + workers)

    metrics = _layer_defaults()
    metrics.update(tracing.layer_metrics([local] + workers))
    metrics.update({f"prof.{name}_share": v for name, v in shares.items()})
    metrics["trace.overhead_s"] = run.makespan_s - plain.makespan_s
    metrics["failed_share"] = len(failures) / (2 * len(recipes))
    return Outcome(metrics, 2 * len(recipes), len(failures), failures)


# -- trace output ------------------------------------------------------------


def write_trace(ctx: Context, workload: str, processes: List[List[list]]):
    """Write the traced run's spans and per-name self times."""
    path = ctx.work / f"{workload}.trace.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": ctx.seed,
        "fields": ["id", "parent", "name", "key", "start", "end", "attrs"],
        "processes": [
            {"self_time_s": tracing.self_time_by_name(spans), "spans": spans}
            for spans in processes
        ],
    }))


WORKLOADS: Dict[str, Callable[[Context, bool], Outcome]] = {
    "paper_suite": paper_suite,
    "serve_mix": serve_mix,
    "dist_sweep": dist_sweep,
}
