"""Outside-in span tracing for the benchmark's traced runs.

The tracer patches wrappers onto the public entry points of each layer
of ``repro`` -- on the name its callers resolve -- records one span per
call, and restores every original on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` knows it is being traced.  No per-ACT function is
wrapped: the finest spans are one trace compilation, one simulator
``run``/``run_until``/``finish``, one store or queue operation.

A span is ``[id, parent, name, key, start, end, attrs]``.  ``parent``
is the enclosing span of the same thread; ``key`` is the content key of
the request or task the span serves, so the spans of one request share
it across the client, the daemon and the worker process.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import itertools
import json
import pstats
import sysconfig
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

ID, PARENT, NAME, KEY, START, END, ATTRS = range(7)

#: The model counters every SimResult carries; summed, they must not
#: move under a change that only speeds the host up.
MODEL_FIELDS = (
    "elapsed_cycles",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "rfm_mitigations",
    "tmro_closures",
)

BATCH_FIELDS = ("points", "leaders", "replayed", "fallbacks", "singletons")


def _arg(index: int, name: str) -> Callable[[tuple, dict, Any], Any]:
    """``key_of`` reading a call's argument by position or keyword."""
    return lambda a, k, r: a[index] if len(a) > index else k.get(name)


def _model_attrs(result) -> Dict[str, int]:
    return {name: getattr(result, name) for name in MODEL_FIELDS}


class _TimeProxy:
    """Stands in for the ``time`` module inside one traced module.

    Only ``sleep`` is traced (as ``coordinator.sleep``); every other
    attribute is the real module's.
    """

    def __init__(self, tracer: "Tracer", real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name: str):
        return getattr(self._real, name)

    def sleep(self, seconds: float) -> None:
        with self._tracer.span("coordinator.sleep"):
            self._real.sleep(seconds)


class Tracer:
    """In-memory span recorder plus the layer wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.runners: List[Any] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else None
        span = [next(self._ids), parent, name, key, time.perf_counter(),
                None, {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, key: Optional[str] = None):
        """Record one span around the ``with`` body; yields its record."""
        record = self.begin(name, key)
        try:
            yield record
        finally:
            self.end(record)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key_of: Optional[Callable[[tuple, dict, Any], Optional[str]]] = None,
        attrs_of: Optional[Callable[[tuple, dict, Any], Dict]] = None,
    ) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if key_of is not None:
                    span[KEY] = key_of(args, kwargs, result)
                if attrs_of is not None:
                    span[ATTRS] = attrs_of(args, kwargs, result)
                tracer.end(span)

        self.patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        from repro.distrib import coordinator, queue, worker
        from repro.experiments import common, registry
        from repro.results import store
        from repro.serve import engine, journal
        from repro.sim import system
        from repro.sim.batch import BatchStats
        from repro.workloads import compiled

        def compile_wrapper(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                hits = compiled.compiled_cache_stats().hits
                with self.span("workloads.compile") as span:
                    result = original(*args, **kwargs)
                    span[ATTRS] = {
                        "hit": compiled.compiled_cache_stats().hits > hits
                    }
                return result
            return wrapper

        for attr in ("compiled_rate_mode_traces", "compiled_source_traces"):
            self.patch(compiled, attr,
                       compile_wrapper(getattr(compiled, attr)))

        sim_cls = system.SystemSimulator
        self.wrap(sim_cls, "run", "sim.run")
        self.wrap(sim_cls, "run_until", "sim.run_until")
        original_finish = sim_cls.finish

        @functools.wraps(original_finish)
        def finish(sim):
            with self.span("sim.finish") as span:
                result = original_finish(sim)
                span[ATTRS] = _model_attrs(result)
            finished = getattr(self._local, "finished", None)
            if finished is not None:
                finished.add(id(result))
            return result

        self.patch(sim_cls, "finish", finish)

        original_batch = common.simulate_batch

        @functools.wraps(original_batch)
        def simulate_batch(points, *args, **kwargs):
            # A fresh BatchStats per call, summed over calls afterwards;
            # lanes whose SimResult no finish() produced were replayed.
            stats = kwargs.pop("stats", None) or BatchStats()
            outer = getattr(self._local, "finished", None)
            self._local.finished = finished = set()
            try:
                with self.span("batch") as span:
                    results = original_batch(
                        points, *args, stats=stats, **kwargs
                    )
                    replayed = {
                        id(r): r for r in results if id(r) not in finished
                    }
                    attrs = {f: getattr(stats, f) for f in BATCH_FIELDS}
                    for field in MODEL_FIELDS:
                        attrs["replayed_" + field] = sum(
                            getattr(r, field) for r in replayed.values()
                        )
                    span[ATTRS] = attrs
            finally:
                self._local.finished = outer
            return results

        self.patch(common, "simulate_batch", simulate_batch)

        original_runner = registry.RunContext.sweep_runner

        @functools.wraps(original_runner)
        def sweep_runner(ctx):
            runner = original_runner(ctx)
            if all(runner is not seen for seen in self.runners):
                self.runners.append(runner)
            return runner

        self.patch(registry.RunContext, "sweep_runner", sweep_runner)

        store_cls = store.ResultStore
        self.wrap(store_cls, "get", "store.get",
                  key_of=_arg(1, "key"),
                  attrs_of=lambda a, k, r: {"hit": r is not None})
        self.wrap(store_cls, "put", "store.put",
                  key_of=lambda a, k, r: r[0] if r else None)

        queue_cls = queue.FileWorkQueue
        self.wrap(queue_cls, "submit", "queue.submit",
                  key_of=lambda a, k, r: r.task_id if r else None)
        self.wrap(queue_cls, "claim", "queue.claim",
                  key_of=lambda a, k, r: r.task_id if r else None)
        self.wrap(queue_cls, "complete", "queue.complete",
                  key_of=_arg(1, "task_id"))
        self.wrap(queue_cls, "reclaim_expired", "queue.reclaim",
                  attrs_of=lambda a, k, r: {"n": len(r or ())})

        execute = worker.execute_claimed_task
        claimed = _arg(2, "claimed")
        self.wrap(worker, "execute_claimed_task", "worker.exec",
                  key_of=lambda a, k, r: claimed(a, k, r).task_id,
                  attrs_of=lambda a, k, r: {
                      "checkpoints": r.checkpoints_written if r else 0
                  })
        traced_execute = worker.execute_claimed_task
        # The serve engine and the coordinator imported the function by
        # name (their degraded in-process paths): patch those names too.
        for module in (engine, coordinator):
            if module.execute_claimed_task is execute:
                self.patch(module, "execute_claimed_task", traced_execute)

        self.wrap(journal.RequestJournal, "record", "serve.journal_record",
                  key_of=_arg(1, "key"))
        self.patch(coordinator, "time", _TimeProxy(self, coordinator.time))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence -------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans, with wall-clock anchoring, as JSON."""
        payload = {
            "perf0": time.perf_counter(),
            "wall0": time.time(),
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(payload))

    def wall_spans(self) -> List[list]:
        """This tracer's spans with start/end on the wall clock."""
        return to_wall(self.spans, time.perf_counter(), time.time())


def to_wall(spans: Iterable[list], perf0: float, wall0: float) -> List[list]:
    """Shift perf-counter spans onto the wall clock (cross-process)."""
    offset = wall0 - perf0
    out = []
    for span in spans:
        span = list(span)
        span[START] += offset
        span[END] += offset
        out.append(span)
    return out


def load_dump(path: Path) -> List[list]:
    """Spans written by :meth:`Tracer.dump`, on the wall clock."""
    data = json.loads(Path(path).read_text())
    return to_wall(data["spans"], data["perf0"], data["wall0"])


# -- span arithmetic -------------------------------------------------------


def _duration(span: list) -> float:
    return span[END] - span[START]


def self_time(span: list, children: Iterable[list]) -> float:
    """Span duration minus the part of it its child spans cover."""
    intervals = sorted(
        (max(c[START], span[START]), min(c[END], span[END]))
        for c in children
    )
    covered = 0.0
    cursor = span[START]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return _duration(span) - covered


def self_time_by_name(spans: List[list]) -> Dict[str, float]:
    """Total self time (seconds) of each span name in one process."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        out[span[NAME]] = out.get(span[NAME], 0.0) + self_time(
            span, children.get(span[ID], ())
        )
    return out


def _ancestors(spans: List[list]) -> Callable[[list], List[str]]:
    by_id = {(span[ID]): span for span in spans}

    def names(span: list) -> List[str]:
        out = []
        parent = span[PARENT]
        while parent is not None and parent in by_id:
            out.append(by_id[parent][NAME])
            parent = by_id[parent][PARENT]
        return out

    return names


def layer_metrics(process_spans: Iterable[List[list]]) -> Dict[str, float]:
    """The span-derived per-layer metrics over one or more processes.

    ``process_spans`` holds one span list per process: parent ids are
    only meaningful within a process.
    """
    calls: Counter = Counter()
    seconds: Counter = Counter()
    counts: Counter = Counter()     # hits, reclaims, batch and model sums
    sim_s = batch_sim_s = 0.0
    for spans in process_spans:
        ancestors = _ancestors(spans)
        for span in spans:
            name, attrs, duration = span[NAME], span[ATTRS], _duration(span)
            calls[name] += 1
            seconds[name] += duration
            # A call that raised left its span without attrs.
            if name in ("workloads.compile", "store.get"):
                counts[name + ".hits"] += attrs.get("hit", False)
            elif name in ("queue.reclaim", "worker.exec"):
                counts.update(attrs)
            elif name == "batch" and attrs:
                counts.update({f: attrs[f] for f in BATCH_FIELDS})
                counts.update({"model." + f: attrs["replayed_" + f]
                               for f in MODEL_FIELDS})
            elif name.startswith("sim."):
                if name == "sim.finish" and attrs:
                    counts["sim.cycles"] += attrs["elapsed_cycles"]
                    counts.update({"model." + f: attrs[f]
                                   for f in MODEL_FIELDS})
                outer = ancestors(span)
                if not any(a.startswith("sim.") for a in outer):
                    sim_s += duration
                    if "batch" in outer:
                        batch_sim_s += duration

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "workloads.compile_s": seconds["workloads.compile"],
        "workloads.compile_calls": calls["workloads.compile"],
        "workloads.trace_cache_hit_rate": ratio(
            counts["workloads.compile.hits"], calls["workloads.compile"]),
        "sim.run_calls": calls["sim.finish"],
        "sim.run_s": sim_s,
        "sim.cycles": counts["sim.cycles"],
        "sim.host_ns_per_cycle": ratio(sim_s * 1e9, counts["sim.cycles"]),
        "batch.s": seconds["batch"],
        "batch.overhead_s": seconds["batch"] - batch_sim_s,
        "batch.lanes": counts["points"],
        "batch.replay_share": ratio(
            counts["replayed"], counts["replayed"] + counts["fallbacks"]),
        "store.get_calls": calls["store.get"],
        "store.get_ms": seconds["store.get"] * 1e3,
        "store.get_hit_rate": ratio(counts["store.get.hits"],
                                    calls["store.get"]),
        "store.put_calls": calls["store.put"],
        "store.put_ms": seconds["store.put"] * 1e3,
        "queue.submit_ms": seconds["queue.submit"] * 1e3,
        "queue.claim_calls": calls["queue.claim"],
        "queue.claim_ms": seconds["queue.claim"] * 1e3,
        "queue.reclaims": counts["n"],
        "worker.exec_s": seconds["worker.exec"],
        "worker.checkpoints": counts["checkpoints"],
        "coordinator.idle_s": seconds["coordinator.sleep"],
        "serve.journal_record_ms": seconds["serve.journal_record"] * 1e3,
    }
    for field in ("leaders", "replayed", "fallbacks", "singletons"):
        metrics["batch." + field] = counts[field]
    for field in MODEL_FIELDS:
        metrics["model." + field] = counts["model." + field]
    return metrics


def exec_spans_by_key(process_spans: Iterable[List[list]]) -> Dict[str, float]:
    """Seconds the ``worker.exec`` span of each task key took."""
    out: Dict[str, float] = {}
    for spans in process_spans:
        for span in spans:
            if span[NAME] == "worker.exec" and span[KEY]:
                out[span[KEY]] = out.get(span[KEY], 0.0) + _duration(span)
    return out


def in_window(spans: Iterable[list], start: float, end: float) -> List[list]:
    """Spans that began inside the wall-clock window ``[start, end]``."""
    return [span for span in spans if start <= span[START] <= end]


# -- cProfile bucketing ----------------------------------------------------

#: Hot-loop buckets by source path fragment; first match wins.
PROFILE_BUCKETS = (
    ("sim_system", "/repro/sim/system.py"),
    ("memctrl", "/repro/memctrl/"),
    ("trackers", "/repro/trackers/"),
    ("core", "/repro/core/"),
    ("dram", "/repro/dram/"),
)


def profile_shares(fn: Callable[[], Any]) -> tuple:
    """Run ``fn`` under cProfile; ``(result, {bucket: tottime share})``.

    Buckets are the hot-loop modules plus ``stdlib`` (the standard
    library and builtins such as ``heapq``); the rest (other ``repro``
    modules, NumPy) is left out, so the shares need not sum to 1.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stdlib = sysconfig.get_paths()["stdlib"]
    shares = {name: 0.0 for name, _ in PROFILE_BUCKETS}
    shares["stdlib"] = 0.0
    total = 0.0
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        total += tottime
        for name, fragment in PROFILE_BUCKETS:
            if fragment in filename:
                shares[name] += tottime
                break
        else:
            if filename == "~" or (
                filename.startswith(stdlib) and "site-packages" not in filename
            ):
                shares["stdlib"] += tottime
    return result, {
        name: (value / total if total else 0.0)
        for name, value in shares.items()
    }
