"""Unit tests for the event-heap kernel's bookkeeping.

Covers O(1) :meth:`pending`, compaction once cancelled timers dominate,
:meth:`rearm` object reuse, the Timer free list, and cancellation.
"""

import pytest

from repro.sim.kernel import COMPACT_MIN_CANCELLED, SimulationError, Simulator

#: A near-future offset (~2.1 ms) and a far-future one (~270 ms): the slot
#: width and horizon of the timer wheel this kernel replaced.
SLOT_NS = 1 << 21
HORIZON_NS = 128 * SLOT_NS


def test_pending_is_live_count():
    sim = Simulator()
    handles = [sim.at(i * 1000, lambda: None) for i in range(10)]
    assert sim.pending() == 10
    assert sim.queue_depth() == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending() == 6
    assert sim.queue_depth() == 10  # lazily deleted, still resident
    handles[0].cancel()  # double-cancel must not double-count
    assert sim.pending() == 6


def test_compaction_reclaims_cancelled_timers():
    sim = Simulator()
    n = 3 * COMPACT_MIN_CANCELLED
    handles = [
        sim.at((i % 7) * SLOT_NS * 3 + i, lambda: None) for i in range(n)
    ]
    keep = handles[:: 3]
    for handle in handles:
        if handle not in keep:
            handle.cancel()
    # Cancelled (2n/3) outnumber live (n/3): compaction must have fired at
    # least once, dropping resident count well below the scheduled total
    # (post-compaction cancels may lazily re-accumulate below threshold).
    assert sim.pending() == len(keep)
    assert sim.queue_depth() < n
    assert sim.queue_depth() - sim.pending() < COMPACT_MIN_CANCELLED * 2
    fired = []
    for handle in keep:
        handle.callback = fired.append
        handle.args = (handle.seq,)
    sim.run()
    assert sorted(fired) == sorted(h.seq for h in keep)


def test_rearm_reuses_timer_object():
    sim = Simulator()
    fired = []
    timer = sim.at(100, fired.append, "a")
    sim.run(until=200)
    assert fired == ["a"]
    again = sim.rearm(timer, 300)
    assert again is timer  # same object, no allocation
    sim.run(until=400)
    assert fired == ["a", "a"]


def test_rearm_in_past_raises():
    sim = Simulator()
    timer = sim.at(100, lambda: None)
    sim.run(until=500)
    with pytest.raises(SimulationError):
        sim.rearm(timer, 400)


def test_rearm_of_queued_timer_falls_back_to_fresh_schedule():
    sim = Simulator()
    fired = []
    timer = sim.at(100, fired.append, "x")
    # Still queued: rearm must not corrupt the queued entry.
    clone = sim.rearm(timer, 200)
    assert clone is not timer
    sim.run()
    assert fired == ["x", "x"]


def test_cancelled_timers_are_recycled_through_free_list():
    sim = Simulator()
    first = sim.at(50, lambda: None)
    first.cancel()
    sim.run(until=100)  # pops the cancelled timer into the free list
    second = sim.at(200, lambda: None)
    assert second is first  # recycled object
    assert not second.cancelled


def test_fired_timers_are_not_recycled():
    """A fired handle stays the caller's (for rearm); only cancelled-popped
    timers feed the free list."""
    sim = Simulator()
    fired = []
    timer = sim.at(50, fired.append, 1)
    sim.run(until=100)
    replacement = sim.at(200, fired.append, 2)
    assert replacement is not timer
    sim.run()
    assert fired == [1, 2]


def test_placement_spans_slot_wheel_and_overflow():
    """Timers fire in time order from same-tick to far future, across the
    scales where the old wheel switched storage class."""
    sim = Simulator()
    fired = []
    whens = [
        0,
        SLOT_NS // 2,
        SLOT_NS + 3,
        HORIZON_NS - 1,
        HORIZON_NS + 5,
        9 * HORIZON_NS,
    ]
    for when in reversed(whens):
        sim.at(when, fired.append, when)
    sim.run()
    assert fired == sorted(whens)
    assert sim.pending() == 0


def test_cancel_inside_wheel_bucket_before_slot_loads():
    sim = Simulator()
    fired = []
    victim = sim.at(5 * SLOT_NS, fired.append, "victim")
    sim.at(5 * SLOT_NS + 1, fired.append, "kept")
    victim.cancel()
    sim.run()
    assert fired == ["kept"]


def test_horizon_stop_keeps_the_next_timer_queued():
    """A run that stops at its horizon leaves the first timer at or past it
    queued and counted: it fires on the next run, still before a same-time
    timer scheduled between the runs."""
    sim = Simulator()
    fired = []
    sim.at(10 * SLOT_NS, fired.append, "first")
    assert sim.run(until=10 * SLOT_NS) == 0
    assert sim.pending() == 1
    sim.at(10 * SLOT_NS, fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]
    assert sim.pending() == 0


def test_schedule_behind_cursor_slot_between_runs():
    """After run(until=...) parks ``now`` between timers, an ``at`` just
    past ``now`` still fires, after the timer that was already due."""
    sim = Simulator()
    fired = []
    sim.at(10 * SLOT_NS, fired.append, "first")
    sim.run(until=10 * SLOT_NS + 10)
    sim.at(10 * SLOT_NS + 20, fired.append, "same-slot")
    sim.run()
    assert fired == ["first", "same-slot"]
