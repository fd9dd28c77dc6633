"""Window-boundary and instrumentation-switch equivalence of the kernel.

These cases once compared a lookahead-parallel executor with serial
dispatch.  That executor is gone; the same workloads now pin the one
kernel that remains, :class:`repro.sim.kernel.Simulator`, against the
deliberately naive :class:`tests.support.lockstep.ReferenceKernel`:

* grouped workloads whose offsets sit on a window boundary
  (``horizon - 1`` / ``horizon`` / ``horizon + 1``) plus an ownerless
  ticker replay the reference exactly -- same log, clock and pending count;
* a run driven from a worker thread dispatches like one on the main thread;
* the instrumented dispatch loop (trace, metrics, profiler) dispatches
  exactly like the plain one, also when a hub is armed or disarmed mid-run;
* the harness has teeth: a kernel that breaks ``(when, seq)`` ties is
  caught.
"""

import random
import threading
from heapq import heappush as _heappush

import pytest

import repro.sim.kernel as kernel_mod
from repro.obs.profiler import PROFILER
from repro.obs.registry import METRICS
from repro.sim.kernel import Simulator, SimulationError
from repro.trace.sinks import RingBufferSink, record_to_jsonl_line
from repro.trace.tracer import TRACE
from tests.support.lockstep import (
    ReferenceKernel,
    TimerWorkload,
    assert_logs_identical,
)

#: Small window so runs cross many window boundaries quickly.
HORIZON = 1 << 16
#: Three owner groups of unequal size; addresses deliberately non-contiguous.
CLUSTERS = ((1, 2), (10, 11), (20,))


class _Owner:
    """A timer owner: its bound ``fire`` is what the kernel dispatches."""

    __slots__ = ("addr", "group")

    def __init__(self, addr, group):
        self.addr = addr
        self.group = group

    def fire(self, item_id):
        self.group.fire(self, item_id)


class _Group:
    """One owner group's timer stream, driven by its own ``Random``."""

    def __init__(self, workload, members, seed):
        self.workload = workload
        self.rng = random.Random(seed)
        self.log = []
        self.live = {}  # id -> handle, scheduled but not fired/cancelled
        self.fired = []  # candidates for rearm
        self.next_id = 0
        self.owners = [_Owner(addr, self) for addr in members]

    def schedule(self, when):
        rng = self.rng
        sim = self.workload.sim
        if self.fired and rng.random() < 0.4:
            sim.rearm(self.fired.pop(), when)
            return
        if self.next_id >= self.workload.max_items:
            return
        item_id = self.next_id
        self.next_id += 1
        owner = rng.choice(self.owners)
        self.live[item_id] = sim.at(when, owner.fire, item_id)

    def fire(self, owner, item_id):
        workload = self.workload
        now = workload.sim.now
        self.log.append((now, owner.addr, item_id))
        workload.merged_log.append((now, owner.addr, item_id))
        handle = self.live.pop(item_id, None)
        if handle is not None:
            self.fired.append(handle)
        rng = self.rng
        for _ in range(rng.randrange(3)):
            self.schedule(now + rng.choice(workload.offsets))
        if self.live and rng.random() < 0.25:
            victim = rng.choice(sorted(self.live))
            self.live.pop(victim).cancel()


class GroupedWorkload:
    """Per-group schedule/cancel/rearm streams plus an optional ticker.

    Offsets are pinned to a window boundary -- ``h - 1``, ``h``, ``h + 1``
    -- and bounded runs stop at ``h // 2``, ``h`` or ``3 h`` past ``now``,
    so timers land exactly on, just before and just after a run horizon.
    """

    def __init__(self, sim, seed, groups, horizon_ns,
                 max_items=150, global_every=0):
        self.sim = sim
        self.horizon_ns = int(horizon_ns)
        self.max_items = max_items
        h = self.horizon_ns
        #: Same-tick, next-tick, mid-window, and the three boundary cases.
        self.offsets = (0, 1, h // 3, h - 1, h, h + 1, 2 * h + 5)
        self.groups = [
            _Group(self, members, seed * 1_000_003 + i)
            for i, members in enumerate(groups)
        ]
        #: Run-horizon driver; its draws depend only on the round count.
        self.driver = random.Random(seed ^ 0x5EED)
        self.global_every = int(global_every)
        self.global_log = []
        self.merged_log = []

    def _global_tick(self, tick_id, remaining):
        self.global_log.append((self.sim.now, tick_id))
        if remaining > 0:
            self.sim.at(self.sim.now + self.global_every,
                        self._global_tick, tick_id + 1, remaining - 1)

    def play(self, rounds=6):
        """Phases of per-group root scheduling and bounded runs."""
        sim = self.sim
        if self.global_every:
            sim.at(sim.now + self.global_every, self._global_tick, 0, 40)
        for _ in range(rounds):
            for group in self.groups:
                for _ in range(8):
                    group.schedule(sim.now + group.rng.choice(self.offsets))
            sim.run(until=sim.now + self.driver.choice(
                (self.horizon_ns // 2, self.horizon_ns, 3 * self.horizon_ns)
            ))
        sim.run()
        return self.group_logs()

    def group_logs(self):
        """Per-group dispatch logs, in group declaration order."""
        return [list(group.log) for group in self.groups]


def _in_thread(play):
    """Run ``play()`` on a worker thread; return its result."""
    out = []
    worker = threading.Thread(target=lambda: out.append(play()))
    worker.start()
    worker.join()
    assert len(out) == 1, "worker thread raised"
    return out[0]


def _assert_same_dispatch(kernel_wl, ref_wl):
    assert_logs_identical(
        ref_wl.merged_log, kernel_wl.merged_log, "reference", "kernel"
    )
    assert_logs_identical(
        ref_wl.global_log, kernel_wl.global_log, "reference[g]", "kernel[g]"
    )
    for i, (a, b) in enumerate(zip(ref_wl.group_logs(), kernel_wl.group_logs())):
        assert a == b, f"group {i} diverged"
    assert kernel_wl.sim.now == ref_wl.sim.now
    assert kernel_wl.sim.pending() == ref_wl.sim.pending() == 0


class TestSingleClusterByteIdentity:
    """One owner group: the kernel must replay the reference exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_no_clusters_matches_serial(self, seed):
        ref = GroupedWorkload(ReferenceKernel(), seed, ((1,),), HORIZON)
        wl = GroupedWorkload(Simulator(), seed, ((1,),), HORIZON)
        ref.play()
        wl.play()
        _assert_same_dispatch(wl, ref)
        assert len(wl.merged_log) > 100

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_single_cluster_map_matches_serial(self, seed):
        ref = GroupedWorkload(ReferenceKernel(), seed, ((1, 2, 3),), HORIZON)
        wl = GroupedWorkload(Simulator(), seed, ((1, 2, 3),), HORIZON)
        ref.play()
        wl.play()
        _assert_same_dispatch(wl, ref)
        assert len({addr for _t, addr, _i in wl.merged_log}) == 3

    @pytest.mark.parametrize("seed", (0, 1))
    def test_thread_seam_matches_serial(self, seed):
        ref = TimerWorkload(ReferenceKernel(), seed)
        threaded = TimerWorkload(Simulator(), seed)
        assert_logs_identical(
            ref.play(), _in_thread(threaded.play), "reference", "kernel-thread"
        )
        assert threaded.sim.now == ref.sim.now
        assert threaded.sim.pending() == ref.sim.pending()


def _play_pair(seed, *, global_every=0, horizon=HORIZON, threaded=False):
    """The same GroupedWorkload through the reference and the kernel."""
    ref = GroupedWorkload(
        ReferenceKernel(), seed, CLUSTERS, horizon, global_every=global_every
    )
    wl = GroupedWorkload(
        Simulator(), seed, CLUSTERS, horizon, global_every=global_every
    )
    ref.play()
    if threaded:
        _in_thread(wl.play)
    else:
        wl.play()
    return ref, wl


class TestMultiClusterEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_per_cluster_subsequences_match(self, seed):
        ref, wl = _play_pair(seed)
        _assert_same_dispatch(wl, ref)
        for log in wl.group_logs():
            assert len(log) > 30, "group produced too little traffic"

    @pytest.mark.parametrize("seed", range(6, 10))
    def test_global_lane_window_cuts(self, seed):
        # an ownerless ticker interleaves with every group's stream
        ref, wl = _play_pair(seed, global_every=HORIZON // 3 + 7)
        _assert_same_dispatch(wl, ref)
        assert len(wl.global_log) == 41

    @pytest.mark.parametrize("seed", (2, 5))
    def test_thread_seam_pair(self, seed):
        ref, wl = _play_pair(seed, global_every=HORIZON // 2, threaded=True)
        _assert_same_dispatch(wl, ref)

    @pytest.mark.parametrize("horizon", (1 << 10, 1 << 20))
    def test_horizon_extremes(self, horizon):
        # tiny windows (runs stop every few events) and windows spanning
        # the whole workload must both replay the reference
        ref, wl = _play_pair(4, horizon=horizon)
        _assert_same_dispatch(wl, ref)


class TestWindowBoundary:
    def test_boundary_offsets_fire_once_in_order(self):
        sim = Simulator()
        log = []

        class Node:
            def __init__(self, addr):
                self.addr = addr

            def fire(self, tag):
                log.append((sim.now, self.addr, tag))

        offsets = (0, 1, HORIZON - 1, HORIZON, HORIZON + 1, 3 * HORIZON)
        for node in (Node(1), Node(2)):
            for off in offsets:
                sim.at(off, node.fire, off)
        for stop in (HORIZON, HORIZON + 1, 2 * HORIZON):
            sim.run(until=stop)
        sim.run()
        assert len(log) == 12  # every timer exactly once
        for addr in (1, 2):
            mine = [t for t, a, _tag in log if a == addr]
            assert mine == sorted(mine) == list(offsets)
        # same-time timers fire in scheduling order: node 1 before node 2
        for off in offsets:
            assert [a for t, a, _tag in log if t == off] == [1, 2]

    def test_until_semantics_match_serial(self):
        for sim in (Simulator(), ReferenceKernel()):
            fired = []
            sim.at(100, lambda: fired.append(sim.now))
            assert sim.run(until=100) == 0  # event at exactly `until` stays
            assert sim.now == 100 and fired == []
            assert sim.pending() == 1
            assert sim.run() == 1
            assert fired == [100]

    def test_in_window_schedule_routes_into_active_lane(self):
        # a timer scheduled from inside a callback for a time before an
        # already-queued timer must fire first, inside the same run call
        sim = Simulator()
        seen = []

        def first():
            sim.at(sim.now + 1, lambda: seen.append(("second", sim.now)))

        sim.at(0, first)
        sim.at(5, lambda: seen.append(("later", sim.now)))
        assert sim.run(until=HORIZON) == 3
        assert seen == [("second", 1), ("later", 5)]


class TestMidRunInstrumentationToggle:
    """Arming or disarming a hub mid-run bumps the instrumentation
    version: the kernel switches between its plain and instrumented loops
    between two callbacks and must never lose, repeat or reorder a timer."""

    step = HORIZON // 4

    def _run_arm(self, sim, toggles, ring=None):
        log = []

        class Node:
            def __init__(self, addr):
                self.addr = addr

            def fire(self, k):
                log.append((sim.now, self.addr, k))

        def arm_trace():
            sink = ring if ring is not None else RingBufferSink()
            TRACE.configure(sinks=[sink], sim=sim)

        try:
            for k in range(30):
                for node in (Node(1), Node(2)):
                    sim.at(k * self.step, node.fire, k)
            if toggles >= 1:
                sim.at(10 * self.step + 1, arm_trace)
            if toggles >= 2:
                sim.at(20 * self.step + 1, TRACE.reset)
            sim.run()
        finally:
            TRACE.reset()
        return log

    @pytest.mark.parametrize("toggles", (1, 2))
    def test_owned_toggle_aborts_but_preserves_every_timer(self, toggles):
        ref_log = self._run_arm(ReferenceKernel(), toggles=0)
        ring = RingBufferSink()
        log = self._run_arm(Simulator(), toggles=toggles, ring=ring)
        assert len(log) == 60
        assert_logs_identical(ref_log, log, "reference", "kernel")
        dispatched = [
            r.time_ns for r in ring.records() if r.kind == "dispatch"
        ]
        assert dispatched, "toggle never armed the tracer"
        assert min(dispatched) > 10 * self.step + 1
        if toggles == 2:
            assert max(dispatched) <= 20 * self.step + 1

    def test_global_toggle_cuts_window_and_stays_byte_identical(self):
        # arming the tracer mid-run yields exactly the tail of the trace
        # a run traced from the start records
        cut = 10 * self.step + 1
        mid_ring = RingBufferSink()
        self._run_arm(Simulator(), toggles=1, ring=mid_ring)

        full_ring = RingBufferSink()
        sim = Simulator()
        TRACE.configure(sinks=[full_ring], sim=sim)
        try:
            self._run_arm(sim, toggles=0)
        finally:
            TRACE.reset()
        # the emission index restarts when the tracer is armed: compare
        # everything else
        def content(records):
            return [(r.time_ns, r.key, r.fields) for r in records]

        mid_lines = content(mid_ring.records())
        tail = content(r for r in full_ring.records() if r.time_ns > cut)
        assert mid_lines, "toggle never armed the tracer"
        assert_logs_identical(tail, mid_lines, "traced", "armed-mid-run")


class TestMergedInstrumentedByteIdentity:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_traced_run_is_byte_identical(self, seed):
        def run_arm(profile):
            sim = Simulator()
            ring = RingBufferSink()
            TRACE.configure(sinks=[ring], sim=sim)
            if profile:
                PROFILER.configure()
            try:
                wl = GroupedWorkload(sim, seed, CLUSTERS, HORIZON,
                                     global_every=HORIZON)
                wl.play()
            finally:
                TRACE.reset()
                PROFILER.reset()
            return wl, [record_to_jsonl_line(r) for r in ring.records()]

        plain = GroupedWorkload(Simulator(), seed, CLUSTERS, HORIZON,
                                global_every=HORIZON)
        plain.play()
        traced_wl, traced_lines = run_arm(profile=False)
        profiled_wl, profiled_lines = run_arm(profile=True)
        assert len(traced_lines) > 300
        # the profiler rides the same loop: the trace must not move
        assert_logs_identical(traced_lines, profiled_lines, "traced", "profiled")
        # and the instrumented loop dispatches exactly like the plain one
        _assert_same_dispatch(traced_wl, plain)
        _assert_same_dispatch(profiled_wl, plain)

    def test_metrics_run_counts_every_dispatch(self):
        plain = GroupedWorkload(Simulator(), 7, CLUSTERS, HORIZON)
        plain.play()
        METRICS.configure()
        try:
            wl = GroupedWorkload(Simulator(), 7, CLUSTERS, HORIZON)
            wl.play()
            snap = METRICS.snapshot()
        finally:
            METRICS.reset()
        dispatched = snap["sim"]["counters"]["kernel.events_dispatched"]
        assert dispatched == len(wl.merged_log) == wl.sim.events_executed
        _assert_same_dispatch(wl, plain)


class TestProfilerDispatchAttribution:
    def test_serial_run_has_no_dispatch_section(self):
        sim = Simulator()
        PROFILER.configure()
        try:
            TimerWorkload(sim, 0).play()
            report = PROFILER.report()
        finally:
            PROFILER.reset()
        assert "dispatch" not in report


class TestMutation:
    def test_broken_window_merge_is_caught(self, monkeypatch):
        """The differential harness has teeth: a kernel whose heap orders
        same-time timers newest-first (a broken ``(when, seq)`` merge)
        must diverge loudly from the reference."""
        ref = GroupedWorkload(ReferenceKernel(), 3, CLUSTERS, HORIZON)
        ref.play()

        def broken_push(heap, entry):
            when, seq, timer = entry
            _heappush(heap, (when, -abs(seq), timer))

        monkeypatch.setattr(kernel_mod, "heappush", broken_push)
        wl = GroupedWorkload(Simulator(), 3, CLUSTERS, HORIZON)
        diverged = False
        try:
            wl.play()
            _assert_same_dispatch(wl, ref)
        except (AssertionError, SimulationError):
            diverged = True
        assert diverged, "differential failed to catch a broken (when, seq) merge"
