"""Unit tests for the channel memory controller."""

import pytest

from repro.core.mitigation import ImpressPScheme, NoRpScheme
from repro.memctrl.controller import (
    BANK_QUEUE_CAPACITY,
    VICTIMS_PER_MITIGATION,
    ChannelController,
)
from repro.trackers.base import AccountingTracker
from repro.trackers.para import ParaTracker


def make_controller(timings, scheme_cls=NoRpScheme, num_banks=2, **kwargs):
    trackers = [AccountingTracker() for _ in range(num_banks)]
    scheme = scheme_cls(trackers, timings)
    return ChannelController(
        timings=timings, num_banks=num_banks, scheme=scheme, **kwargs
    )


class TestServiceContract:
    def test_idle_bank_reports_wake_and_no_completion(self, timings):
        controller = make_controller(timings)
        wake, done_cycle, _core = controller.service(0, 0)
        assert wake == controller.refresh[0].next_due
        assert done_cycle == -1

    def test_busy_bank_reports_busy_until(self, timings):
        controller = make_controller(timings)
        controller.enqueue(0, 5, core_id=0)
        controller.enqueue(0, 5, core_id=1)
        controller.service(0, 0)
        busy_until = controller.state[0].busy_until
        assert controller.service(0, busy_until - 1) == (busy_until, -1, -1)
        assert controller.pending_requests(0) == 1

    def test_queue_entries_are_plain_tuples(self, timings):
        controller = make_controller(timings)
        controller.enqueue(1, 7, core_id=3, is_write=True)
        assert controller.state[1].queue == [(7, 3, True)]


class TestDemandPath:
    def test_miss_then_hit(self, timings):
        controller = make_controller(timings)
        controller.enqueue(0, 5, core_id=0)
        controller.enqueue(0, 5, core_id=1)
        first_wake, first_done, first_core = controller.service(0, 0)
        assert first_done >= 0 and first_core == 0
        _wake, second_done, second_core = controller.service(0, first_wake)
        assert second_done > first_done and second_core == 1
        assert controller.row_misses == 1
        assert controller.row_hits == 1
        assert controller.counts.demand_acts == 1

    def test_conflict_closes_and_reopens(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(0, 5, core_id=0)
        controller.service(0, 0)
        controller.enqueue(0, 9, core_id=0)
        # Step at busy_until: next_wake now reports the real next
        # deadline (refresh/tMRO/idle), not the bank-free cycle.
        cycle = max(controller.state[0].busy_until, timings.tRAS)
        controller.service(0, cycle)
        assert controller.row_conflicts == 1
        assert controller.counts.precharges >= 1

    def test_fr_fcfs_prefers_hit(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(0, 5, core_id=0)
        controller.service(0, 0)
        # Queue a conflicting row first, then a hit to the open row.
        controller.enqueue(0, 9, core_id=2)
        controller.enqueue(0, 5, core_id=1)
        _wake, done_cycle, core_id = controller.service(
            0, controller.state[0].busy_until
        )
        assert controller.row_hits == 1  # the younger hit won
        assert done_cycle >= 0 and core_id == 1
        assert controller.state[0].queue == [(9, 2, False)]

    def test_write_completes_at_column_issue(self, timings):
        controller = make_controller(timings)
        controller.enqueue(0, 5, core_id=0, is_write=True)
        _wake, done_cycle, core_id = controller.service(0, 0)
        # The write completes at column issue: one tCCD before the bank
        # frees, and before a read's data would return (tCAS later).
        col_cycle = controller.state[0].last_use
        assert done_cycle == col_cycle
        assert controller.state[0].busy_until == col_cycle + timings.tCCD
        assert core_id == 0
        assert controller.counts.writes == 1
        assert controller.counts.reads == 0

    def test_read_completes_when_data_returns(self, timings):
        controller = make_controller(timings)
        controller.enqueue(0, 5, core_id=4)
        _wake, done_cycle, core_id = controller.service(0, 0)
        assert done_cycle == controller.state[0].last_use + timings.tCAS
        assert core_id == 4
        assert controller.counts.reads == 1

    def test_queue_capacity(self, timings):
        controller = make_controller(timings)
        for i in range(BANK_QUEUE_CAPACITY):
            controller.enqueue(0, i, core_id=0)
        assert not controller.can_accept(0)
        with pytest.raises(RuntimeError):
            controller.enqueue(0, 99, core_id=0)


class TestMopAndIdleClose:
    def test_mop_burst_closes_after_n_columns(self, timings):
        controller = make_controller(timings, mop_burst_lines=2,
                                     idle_close_cycles=None)
        controller.enqueue(0, 5, core_id=0)
        controller.enqueue(0, 5, core_id=0)
        wake, _done, _core = controller.service(0, 0)
        _wake, done_cycle, _core = controller.service(0, wake)
        assert done_cycle >= 0
        assert not controller.banks[0].is_open
        assert controller.counts.precharges == 1

    def test_idle_close_fires(self, timings):
        controller = make_controller(timings, mop_burst_lines=None,
                                     idle_close_cycles=100)
        controller.enqueue(0, 5, core_id=0)
        wake, _done, _core = controller.service(0, 0)
        # With nothing queued, the demand service reports the idle-close
        # deadline directly as its next wake.
        assert wake == controller.state[0].last_use + 100
        assert controller.banks[0].is_open
        late_wake, late_done, _core = controller.service(0, wake + 200)
        assert late_done == -1
        assert late_wake == wake + 200 + timings.tPRE  # the PRE's busy time
        assert not controller.banks[0].is_open
        assert controller.counts.precharges == 1


class TestTmro:
    def test_tmro_closes_open_row(self, timings):
        tmro = timings.tRAS + timings.tRC
        controller = make_controller(
            timings, tmro_cycles=tmro, mop_burst_lines=None,
            idle_close_cycles=None,
        )
        controller.enqueue(0, 5, core_id=0)
        controller.service(0, 0)
        wake, done_cycle, _core = controller.service(0, tmro + 10)
        assert done_cycle == -1
        assert wake == tmro + 10 + timings.tPRE  # the PRE's busy time
        assert controller.tmro_closures == 1
        assert not controller.banks[0].is_open

    def test_idle_wake_includes_tmro(self, timings):
        tmro = timings.tRAS + timings.tRC
        controller = make_controller(
            timings, tmro_cycles=tmro, mop_burst_lines=None,
            idle_close_cycles=None,
        )
        controller.enqueue(0, 5, core_id=0)
        wake, _done, _core = controller.service(0, 0)
        idle_wake, idle_done, _core = controller.service(0, wake)
        assert idle_done == -1
        assert idle_wake <= tmro + timings.tRC


class TestRefresh:
    def test_refresh_issues_when_due(self, timings):
        controller = make_controller(timings)
        due = controller.refresh[0].next_due
        wake, done_cycle, _core = controller.service(0, due)
        assert done_cycle == -1
        assert wake == controller.state[0].busy_until > due
        assert controller.counts.refreshes == 1

    def test_refresh_closes_open_row_first(self, timings):
        controller = make_controller(timings, mop_burst_lines=None,
                                     idle_close_cycles=None)
        due = controller.refresh[0].next_due
        controller.enqueue(0, 5, core_id=0)
        controller.service(0, due - timings.tRC)
        wake, done_cycle, _core = controller.service(0, due)
        assert done_cycle == -1
        assert wake == controller.state[0].busy_until > due
        assert controller.counts.refreshes == 1
        assert controller.counts.precharges == 1


class TestRfm:
    def test_rfm_after_threshold_acts(self, timings):
        controller = make_controller(
            timings, use_rfm=True, rfmth=2,
            mop_burst_lines=1, idle_close_cycles=None,
        )
        cycle = 0
        for row in (1, 2):
            controller.enqueue(0, row, core_id=0)
            controller.service(0, cycle)
            cycle = controller.state[0].busy_until + timings.tRC
        wake, done_cycle, _core = controller.service(0, cycle)
        assert done_cycle == -1
        assert wake >= cycle + timings.tRFM
        assert controller.counts.rfms == 1


class TestMitigations:
    def test_para_mitigation_blocks_bank(self, timings):
        scheme = NoRpScheme([ParaTracker(p=1.0)], timings)
        controller = ChannelController(
            timings=timings, num_banks=1, scheme=scheme,
        )
        controller.enqueue(0, 5, core_id=0)
        first_wake, first_done, _core = controller.service(0, 0)
        assert first_done >= 0
        # The mitigation block: four victim ACT+PRE pairs, one tRC each.
        wake, done_cycle, _core = controller.service(0, first_wake)
        assert done_cycle == -1
        assert wake == controller.state[0].busy_until
        assert wake >= first_wake + VICTIMS_PER_MITIGATION * timings.tRC
        assert controller.counts.mitigative_acts == VICTIMS_PER_MITIGATION

    def test_impress_p_records_eact_on_close(self, timings):
        tracker = AccountingTracker()
        scheme = ImpressPScheme([tracker], timings)
        controller = ChannelController(
            timings=timings, num_banks=1, scheme=scheme,
            mop_burst_lines=None, idle_close_cycles=None,
        )
        controller.enqueue(0, 5, core_id=0)
        controller.service(0, 0)
        controller.flush_open_rows(timings.tRAS + timings.tRC)
        assert tracker.recorded_for(5) > 1.0

    def test_hit_rate(self, timings):
        controller = make_controller(timings)
        assert controller.hit_rate() == 0.0
