"""Sweep coordinator: shard, submit, supervise, collect.

The coordinator is deliberately *not* in the data path: workers talk
to the queue and the store directly, so the coordinator can crash and
restart at any point — resubmitting the same sweep finds every task
(and every finished result blob) exactly where it left off, because
task ids are content keys.

:func:`supervise` is the one polling loop over queue state; the sweep
and the serve daemon (:mod:`repro.serve.engine`, one key per request)
both run it:

* **Reclaim** — expired or corrupt leases go back to ``pending`` with
  backoff (``FileWorkQueue.reclaim_expired``).
* **Speculation** — a claim that has been running far longer than its
  peers (``speculate_after_s``) is re-dispatched while the original
  keeps running; whichever execution finishes first wins, the loser's
  byte-identical result deduplicates.
* **Degraded serial mode** — the supervised tasks are alive while one
  of them holds a live lease (deadline in the future) or a completion
  landed since the last poll.  With neither for ``serial_grace_s`` the
  supervisor stops waiting and executes the tasks itself, in-process,
  through the *same* claim → execute → complete path workers take
  (:func:`execute_next`).  Degraded mode is sticky: its own claims and
  completions would look like life, and no worker may exist to retry
  a task that failed into backoff, so it keeps executing until every
  task succeeds or poisons.  A sweep therefore always completes;
  distribution is an optimization, not a dependency.
* **Poison** — a task that keeps failing is quarantined by the queue;
  the supervisor surfaces it as :class:`DistributedSweepError` with
  the stored tracebacks rather than spinning forever.
* **Lost blobs** — a done task whose result blob went missing is
  recomputed in-process (:func:`put_result`).

Results are collected in submission order, read back from the store by
the content keys the ``done`` records carry.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..results.store import ResultStore, content_key, with_lock_retry
from ..sim.stats import SimResult
from .queue import FileWorkQueue
from .worker import (
    DEFAULT_CHECKPOINT_STRIDE,
    TASK_KIND,
    build_simulator,
    execute_claimed_task,
    result_alias,
    sweep_task_recipe,
)


class DistributedSweepError(RuntimeError):
    """A distributed sweep cannot complete (poisoned tasks, timeout).

    Carries the queue's poison records so the operator sees the actual
    worker tracebacks, not just "it failed".
    """

    def __init__(
        self, message: str, poison: Optional[List[Dict[str, Any]]] = None
    ) -> None:
        self.poison = list(poison or [])
        details = ""
        if self.poison:
            details = "".join(
                f"\n  task {entry.get('task_id', '?')} "
                f"({entry.get('attempts', '?')} attempts): "
                f"{(entry.get('error') or '?').strip().splitlines()[-1]}"
                for entry in self.poison
            )
        super().__init__(message + details)


def shard_points(
    specs: Iterable[Any], n_requests: int, seed: int
) -> List[Dict[str, Any]]:
    """Expand sweep points into one task recipe per point.

    ``specs`` are :class:`~repro.scenarios.spec.ScenarioSpec` objects
    (anything with a ``recipe()`` method) or already-explicit scenario
    recipe dicts — the forms a :class:`ScenarioGrid` expansion or a
    hand-built batch naturally produces.  The task granularity *is*
    the sweep point: one simulation per task keeps leases short and
    retries cheap, and the store deduplicates across sweeps anyway.
    """
    recipes = []
    for spec in specs:
        scenario = spec.recipe() if hasattr(spec, "recipe") else dict(spec)
        recipes.append(sweep_task_recipe(scenario, n_requests, seed))
    return recipes


@dataclass
class SweepOutcome:
    """A completed sweep: results in submission order, plus how it went."""

    task_ids: List[str]
    result_keys: List[str]
    results: List[SimResult]
    degraded: bool = False            # coordinator ran tasks in-process
    reclaimed: int = 0                # expired-lease reclaims observed
    speculated: int = 0               # straggler re-dispatches issued
    duration_s: float = 0.0
    mode: str = "distributed"         # "serial" | "distributed" | degraded

    def summary_lines(self) -> List[str]:
        """Human-readable wrap-up for the CLI."""
        lines = [
            f"{len(self.results)} task(s) completed ({self.mode} mode) "
            f"in {self.duration_s:.2f}s"
        ]
        if self.reclaimed:
            lines.append(f"  {self.reclaimed} expired lease(s) reclaimed")
        if self.speculated:
            lines.append(f"  {self.speculated} straggler(s) speculated")
        return lines


def put_result(
    store: ResultStore,
    recipe: Dict[str, Any],
    owner: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[str, Dict[str, Any]]:
    """Put a task's result blob, simulating it first when ``payload`` is None.

    Returns ``(result key, payload)``.  The serial reference sweep and
    the recompute of a done task whose blob went missing both land
    here, so both write exactly the bytes a worker would.
    """
    if payload is None:
        payload = build_simulator(recipe).run().to_json()
    key, _path, _created = with_lock_retry(lambda: store.put(
        recipe, payload, name=result_alias(content_key(recipe)),
        kind=TASK_KIND, meta={"owner": owner},
    ))
    return key, payload


def run_serial_sweep(
    recipes: Sequence[Dict[str, Any]],
    store: ResultStore,
) -> SweepOutcome:
    """Execute task recipes in-process, serially, against the store.

    The reference the chaos harness compares against: same recipes,
    same store addressing, no queue at all.  Blobs written here must
    be byte-identical to what any distributed execution produces.
    """
    started = time.monotonic()
    result_keys: List[str] = []
    results: List[SimResult] = []
    for recipe in recipes:
        key, payload = put_result(store, recipe, "serial",
                                  store.fetch(recipe))
        result_keys.append(key)
        results.append(SimResult.from_json(payload))
    return SweepOutcome(
        task_ids=[content_key(recipe) for recipe in recipes],
        result_keys=result_keys,
        results=results,
        duration_s=time.monotonic() - started,
        mode="serial",
    )


def execute_next(
    queue: FileWorkQueue,
    store: ResultStore,
    owner: str,
    want: Optional[set] = None,
    checkpoint_stride: Optional[int] = DEFAULT_CHECKPOINT_STRIDE,
    stop_event: Optional[threading.Event] = None,
) -> Optional[str]:
    """Claim one eligible task for ``owner`` and execute it.

    Returns None when nothing was claimable, else what happened:
    ``"executed"``, ``"deduplicated"`` (an identical blob already
    existed), ``"released"`` (a graceful stop handed the claim back)
    or ``"failed"`` (the traceback went to :meth:`FileWorkQueue.fail`).
    Workers and degraded supervision both execute through here.
    """
    claimed = queue.claim(owner, want=want)
    if claimed is None:
        return None
    try:
        execution = execute_claimed_task(
            queue, store, claimed,
            checkpoint_stride=checkpoint_stride, stop_event=stop_event,
        )
    except Exception:
        queue.fail(claimed.task_id, owner, traceback.format_exc())
        return "failed"
    if execution is None:
        return "released"
    return "executed" if execution.first_writer else "deduplicated"


@dataclass
class Supervision:
    """What :func:`supervise` saw: every task's result, and how."""

    result_keys: Dict[str, str]            # task id -> result key
    payloads: Dict[str, Dict[str, Any]]    # task id -> result payload
    degraded: bool
    reclaimed: int = 0
    speculated: int = 0


def supervise(
    queue: FileWorkQueue,
    store: ResultStore,
    task_ids: Sequence[str],
    owner: str,
    degraded: bool = False,
    poll_s: float = 0.05,
    serial_grace_s: float = 5.0,
    speculate_after_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
    checkpoint_stride: Optional[int] = DEFAULT_CHECKPOINT_STRIDE,
) -> Supervision:
    """Poll submitted tasks until each is done; return their results.

    Each poll reads only these tasks' queue files, reclaims expired
    leases and, with ``speculate_after_s``, re-dispatches stragglers.
    A task set is *alive* while one of its tasks holds a live lease or
    a completion landed since the last poll; with neither for
    ``serial_grace_s`` — or when called with ``degraded`` — supervision
    turns degraded for good and executes the tasks itself as ``owner``,
    one claim per poll.  A done task whose blob went missing is
    recomputed.  Raises :class:`DistributedSweepError` on a poisoned
    task or after ``timeout_s``.
    """
    started = last_alive = time.monotonic()
    open_ids = list(dict.fromkeys(task_ids))
    records: Dict[str, Dict[str, Any]] = {}
    reclaimed = speculated = 0
    while True:
        done_before = len(records)
        for task_id in open_ids:
            if (record := queue.done_record(task_id)) is not None:
                records[task_id] = record
        open_ids = [task_id for task_id in open_ids if task_id not in records]
        poisoned = [
            record for task_id in open_ids
            if (record := queue.poison_record(task_id)) is not None
        ]
        if poisoned:
            raise DistributedSweepError(
                f"{len(poisoned)} task(s) poisoned after repeated "
                "failures",
                poison=poisoned,
            )
        if not open_ids:
            break
        now = time.monotonic()
        if timeout_s is not None and now - started > timeout_s:
            raise DistributedSweepError(
                f"sweep timed out after {timeout_s:.1f}s "
                f"({len(records)}/{len(records) + len(open_ids)} done; "
                + "; ".join(queue.status().summary_lines()) + ")"
            )
        reclaimed += len(set(queue.reclaim_expired()) & set(open_ids))
        wall = time.time()
        leases = {
            task_id: lease for task_id in open_ids
            if (lease := queue.lease(task_id)) is not None
        }
        if len(records) > done_before or any(
            lease["deadline"] > wall for lease in leases.values()
        ):
            last_alive = now
        if speculate_after_s is not None:
            for task_id, lease in leases.items():
                claimed_at = lease.get("claimed_at", wall)
                if (wall - claimed_at > speculate_after_s
                        and queue.speculate(task_id)):
                    speculated += 1
        if degraded or now - last_alive > serial_grace_s:
            # Sticky: our own claims and completions look like life,
            # but no worker may exist to retry a task that failed into
            # backoff, so keep executing until every task is terminal.
            degraded = True
            if execute_next(queue, store, owner, want=set(open_ids),
                            checkpoint_stride=checkpoint_stride):
                continue  # progress made: re-check done/poison now
            # Nothing claimable (every open task is in retry backoff or
            # held by a live lease): sleep instead of busy-spinning.
        time.sleep(poll_s)

    result_keys: Dict[str, str] = {}
    payloads: Dict[str, Dict[str, Any]] = {}
    for task_id, record in records.items():
        key = record.get("result_key", task_id)
        payload = store.get(key)
        if payload is None:
            # The done record survived but the blob did not (operator
            # deleted the store?): recompute — correctness over
            # cleverness.
            task = queue.task(task_id)
            if task is None:
                raise DistributedSweepError(
                    f"task {task_id} lost its result blob and its body"
                )
            key, payload = put_result(store, task.recipe, owner)
        result_keys[task_id] = key
        payloads[task_id] = payload
    return Supervision(
        result_keys=result_keys,
        payloads=payloads,
        degraded=degraded,
        reclaimed=reclaimed,
        speculated=speculated,
    )


def run_distributed_sweep(
    recipes: Sequence[Dict[str, Any]],
    queue: FileWorkQueue,
    store: ResultStore,
    poll_s: float = 0.05,
    serial_grace_s: float = 5.0,
    speculate_after_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
    checkpoint_stride: Optional[int] = DEFAULT_CHECKPOINT_STRIDE,
) -> SweepOutcome:
    """Submit task recipes and :func:`supervise` them to completion.

    Workers are *external*: anything running ``repro worker`` against
    the same queue/store directories.  Raises
    :class:`DistributedSweepError` on poisoned tasks or ``timeout_s``.
    """
    started = time.monotonic()
    task_ids = [queue.submit(recipe).task_id for recipe in recipes]
    seen = supervise(
        queue, store, task_ids, "coordinator-serial",
        poll_s=poll_s,
        serial_grace_s=serial_grace_s,
        speculate_after_s=speculate_after_s,
        timeout_s=timeout_s,
        checkpoint_stride=checkpoint_stride,
    )
    return SweepOutcome(
        task_ids=task_ids,
        result_keys=[seen.result_keys[task_id] for task_id in task_ids],
        results=[
            SimResult.from_json(seen.payloads[task_id])
            for task_id in task_ids
        ],
        degraded=seen.degraded,
        reclaimed=seen.reclaimed,
        speculated=seen.speculated,
        duration_s=time.monotonic() - started,
        mode="degraded serial" if seen.degraded else "distributed",
    )
