"""Engine checkpointing: snapshot/restore of a mid-run simulation.

A snapshot captures every piece of *mutable* run state in either engine
— the event heap, sequence counter, core issue/retire bookkeeping,
controller command tallies, per-bank DRAM and queue state, refresh
schedulers and the mitigation trackers (including their RNG streams) —
so that restoring it into a simulator built from the *same*
configuration and traces reproduces the remainder of the run bit for
bit.  ``tests/test_snapshot.py`` pins resume-equals-straight-run
identity across the workload x defense x engine matrix.

Design rules:

* **Configuration is not captured.**  Timings, traces, mappers, kernel
  dispatch tables and scheme wiring are construction-time constants; a
  snapshot is only valid for a simulator constructed identically (the
  :attr:`EngineSnapshot.engine` tag guards against crossing engines).
* **The state layout is versioned.**  :attr:`EngineSnapshot.format`
  records :data:`SNAPSHOT_FORMAT`, and :func:`restore` refuses any
  other value (or none), so a checkpoint pickled by code with another
  layout fails up front instead of loading foreign objects into the
  queues and dying cycles later.
* **Restore mutates containers in place.**  Controller kernels and
  tracker closures captured references to queues, tables and counters
  at construction; rebinding those containers would silently split the
  state the kernels mutate from the state the simulator reads.
* **Observer hooks are exempt.**  Lazy ``Bank`` hook lists belong to
  whoever registered them (the invariant monitor, tests); snapshots
  neither capture nor clear them, so a monitor stays attached across a
  restore.
* **Queued requests are shared, not copied.**  A queue entry is an
  immutable ``(row, core_id, is_write)`` tuple, so the queue snapshot
  is a tuple of the live entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Layout version of captured state; bump it whenever what a snapshot
#: holds changes shape.  2: queue entries are ``(row, core_id,
#: is_write)`` tuples (format 1, untagged, held request objects).
SNAPSHOT_FORMAT = 2

_COUNT_FIELDS = (
    "demand_acts",
    "mitigative_acts",
    "precharges",
    "reads",
    "writes",
    "refreshes",
    "rfms",
)

_BOOK_FIELDS = (
    "pending_mitigations",
    "acts_since_rfm",
    "busy_until",
    "act_cycle",
    "columns_since_act",
    "last_use",
)

_BANK_FIELDS = ("open_row", "act_cycle", "_ready_act", "_ready_pre",
                "_ready_col")

_CORE_FIELDS = ("index", "outstanding", "retired", "stalled_on_mlp",
                "finish_cycle")

_REFRESH_FIELDS = ("_next_due", "_postponed", "_issued")

_STAT_FIELDS = ("row_hits", "row_misses", "row_conflicts",
                "rfm_mitigations", "tmro_closures")


@dataclass(frozen=True, slots=True)
class ControllerSnapshot:
    """Mutable state of one :class:`ChannelController` and its banks."""

    counts: Tuple[int, ...]
    stats: Tuple[int, ...]
    core_demand_acts: Tuple[Tuple[int, int], ...]
    banks: Tuple[tuple, ...]
    books: Tuple[tuple, ...]
    queues: Tuple[tuple, ...]
    refresh: Tuple[tuple, ...]
    trackers: Tuple[object, ...]


@dataclass(frozen=True, slots=True)
class EngineSnapshot:
    """Complete mutable state of a mid-run simulation engine."""

    engine: str                       # "fast" | "reference"
    now: int
    seq: int
    started: bool
    remaining: int
    pending_done: int
    heap: tuple
    bank_wake: Optional[tuple]        # fast engine only
    cores: Tuple[tuple, ...]
    controllers: Tuple[ControllerSnapshot, ...]
    # Last, so that unpickling an untagged older snapshot leaves it unset.
    format: int = SNAPSHOT_FORMAT


def _capture_controller(controller) -> ControllerSnapshot:
    counts = controller.counts
    return ControllerSnapshot(
        counts=tuple(getattr(counts, f) for f in _COUNT_FIELDS),
        stats=tuple(getattr(controller, f) for f in _STAT_FIELDS),
        core_demand_acts=tuple(sorted(controller.core_demand_acts.items())),
        banks=tuple(
            tuple(getattr(bank, f) for f in _BANK_FIELDS)
            for bank in controller.banks
        ),
        books=tuple(
            tuple(getattr(book, f) for f in _BOOK_FIELDS)
            for book in controller.state
        ),
        queues=tuple(tuple(book.queue) for book in controller.state),
        refresh=tuple(
            tuple(getattr(sched, f) for f in _REFRESH_FIELDS)
            for sched in controller.refresh
        ),
        trackers=tuple(
            tracker.snapshot() for tracker in controller.scheme.trackers
        ),
    )


def _restore_controller(controller, snap: ControllerSnapshot) -> None:
    counts = controller.counts
    for name, value in zip(_COUNT_FIELDS, snap.counts):
        setattr(counts, name, value)
    for name, value in zip(_STAT_FIELDS, snap.stats):
        setattr(controller, name, value)
    controller.core_demand_acts.clear()
    controller.core_demand_acts.update(snap.core_demand_acts)
    for bank, values in zip(controller.banks, snap.banks):
        for name, value in zip(_BANK_FIELDS, values):
            setattr(bank, name, value)
    for book, values, queue in zip(controller.state, snap.books, snap.queues):
        for name, value in zip(_BOOK_FIELDS, values):
            setattr(book, name, value)
        book.queue[:] = queue
    for sched, values in zip(controller.refresh, snap.refresh):
        for name, value in zip(_REFRESH_FIELDS, values):
            setattr(sched, name, value)
    for tracker, state in zip(controller.scheme.trackers, snap.trackers):
        tracker.restore(state)


def capture(sim) -> EngineSnapshot:
    """Snapshot a simulator's full mutable run state.

    Works for both engines; the snapshot records which one produced it.
    """
    bank_wake = getattr(sim, "_bank_wake", None)
    return EngineSnapshot(
        engine="reference" if bank_wake is None else "fast",
        now=sim._now,
        seq=sim._seq,
        started=sim._started,
        remaining=sim._remaining,
        pending_done=sim._pending_done,
        heap=tuple(sim._heap),
        bank_wake=None if bank_wake is None else tuple(bank_wake),
        cores=tuple(
            tuple(getattr(core, f) for f in _CORE_FIELDS)
            for core in sim.cores
        ),
        controllers=tuple(
            _capture_controller(controller) for controller in sim.controllers
        ),
    )


def restore(sim, snap: EngineSnapshot) -> None:
    """Write a snapshot back into a compatibly-constructed simulator."""
    found = getattr(snap, "format", None)
    if found != SNAPSHOT_FORMAT:
        raise ValueError(
            f"snapshot format {found!r} is not {SNAPSHOT_FORMAT}; "
            "it was captured by code with another state layout"
        )
    bank_wake = getattr(sim, "_bank_wake", None)
    engine = "reference" if bank_wake is None else "fast"
    if engine != snap.engine:
        raise ValueError(
            f"cannot restore a {snap.engine!r} snapshot into a "
            f"{engine!r} engine"
        )
    if len(snap.cores) != len(sim.cores) or len(snap.controllers) != len(
        sim.controllers
    ):
        raise ValueError("snapshot topology does not match the simulator")
    sim._now = snap.now
    sim._seq = snap.seq
    sim._started = snap.started
    sim._remaining = snap.remaining
    sim._pending_done = snap.pending_done
    sim._heap[:] = snap.heap
    if bank_wake is not None:
        bank_wake[:] = snap.bank_wake
    for core, values in zip(sim.cores, snap.cores):
        for name, value in zip(_CORE_FIELDS, values):
            setattr(core, name, value)
    for controller, ctrl_snap in zip(sim.controllers, snap.controllers):
        _restore_controller(controller, ctrl_snap)


def state_fingerprint(sim) -> tuple:
    """Cheap engine-independent digest of observable run state.

    Used by the fuzzer's divergence bisection to localize *where* two
    engines' runs first disagree: at any stop cycle up to which both
    engines have processed every event, the fingerprints should match.
    Deliberately excludes the event heap, sequence counter and bank
    wakeup cache — those are engine-internal representation, not
    observable behavior.
    """
    controllers = []
    for controller in sim.controllers:
        counts = controller.counts
        controllers.append((
            tuple(getattr(counts, f) for f in _COUNT_FIELDS),
            tuple(getattr(controller, f) for f in _STAT_FIELDS),
            tuple(sorted(controller.core_demand_acts.items())),
            tuple(
                (bank.open_row, bank.act_cycle) for bank in controller.banks
            ),
            tuple(
                (book.pending_mitigations, book.acts_since_rfm,
                 len(book.queue))
                for book in controller.state
            ),
        ))
    return (
        tuple(
            (core.index, core.outstanding, core.retired)
            for core in sim.cores
        ),
        tuple(controllers),
    )
