"""Deterministic discrete-event simulation kernel.

The kernel dispatches :class:`Timer` callbacks in ``(fire_time_ns,
sequence_number)`` order.  The sequence number makes execution order fully
deterministic when several timers share a timestamp: they fire in
scheduling order.  Timestamps are integer nanoseconds of *true* time --
node-local (drifting) views of time are layered on top by
:class:`repro.sim.clock.DriftingClock` and never enter the kernel.

Storage is one binary heap of ``(when, seq, timer)`` tuples: ``(when,
seq)`` is unique, so comparisons stay in C and never reach the timer.
Scheduling is a past-time check, a free-list pop and one ``heappush``;
dispatch is one ``heappop`` per event.  A hierarchical timer wheel
dispatches in the same order but pays to bin every timer; with the few,
mostly re-armed timers of this simulator the heap is faster (+12 %
simulated seconds per wall second on the Fig. 13 workload, see
DESIGN.md, "Event-heap kernel").

Cancellation is lazy (a flag checked at pop time) but counted, so
:meth:`Simulator.pending` is O(1) and the heap is compacted once
cancelled timers outnumber live ones -- long runs that cancel many timers
(24 h supervision-heavy scenarios) stay bounded in memory.  Timer objects
popped in a cancelled state feed a free list that :meth:`Simulator.at`
reuses, and hot reschedule sites reuse their own just-fired timer via
:meth:`Simulator.rearm`; both kill the per-event allocation.

Handle contract: after calling :meth:`Timer.cancel` -- or after the timer
fired, if the scheduling site uses :meth:`Simulator.rearm` -- drop the
handle.  Cancelled timers are recycled; a retained stale handle could
cancel an unrelated, newly issued timer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.instr import INSTR
from repro.obs.profiler import PROFILER
from repro.obs.registry import METRICS

# simlint: allow-wallclock -- the profiler hook measures real dispatch cost;
# perf_counter values never reach simulated state (see repro.obs.profiler).
from repro.obs.wallclock import perf_counter
from repro.trace.record import callback_name
from repro.trace.tracer import TRACE

#: Default hub bindings handed to every Simulator at construction.  The
#: dispatch path reads hubs only through instance attributes (``self._trace``
#: etc.), so no dispatch-reachable function names a module-level singleton
#: -- the SL009 shared-state contract -- and a test can hand one simulator
#: private hubs.  Bundling the four singletons in one tuple keeps the only
#: by-name references at module scope (import time).
_DEFAULT_HUBS = (INSTR, TRACE, METRICS, PROFILER)

#: Compaction threshold: never compact below this many cancelled timers.
COMPACT_MIN_CANCELLED: int = 64
#: Upper bound on the Timer free list (memory cap, not a correctness knob).
FREE_LIST_MAX: int = 512

#: One heap entry: ``(when, seq, timer)``.
_Entry = Tuple[int, int, "Timer"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class Timer:
    """A handle for one scheduled callback.

    Timers are returned by :meth:`Simulator.at` / :meth:`Simulator.after` and
    can be cancelled before they fire.  A cancelled timer stays queued but is
    skipped by the event loop (lazy deletion) and recycled afterwards -- drop
    the handle once cancelled (see the module docstring's handle contract).
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "queued", "sim")

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True while the timer sits in the kernel's heap.
        self.queued = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent on the same duty."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None and self.queued:
                sim._note_cancel()

    def __lt__(self, other: "Timer") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.when}ns seq={self.seq} {state} {self.callback!r}>"


class Simulator:
    """Event loop over integer-nanosecond true time.

    Typical use::

        sim = Simulator()
        sim.after(1_000_000, lambda: print("one millisecond"))
        sim.run(until=SEC)

    The loop stops when the queue is empty, when the optional horizon is
    reached, or when :meth:`stop` is called from within a callback.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        instr, trace, metrics, profiler = _DEFAULT_HUBS
        #: Instrumentation hubs as kernel-owned state; dispatch loops read
        #: only these attributes.
        self._instr = instr
        self._trace = trace
        self._metrics = metrics
        self._profiler = profiler
        #: Every queued timer, lazily-cancelled ones included.
        self._heap: List[_Entry] = []
        #: Cancelled-but-not-yet-popped timers (makes pending() O(1)).
        self._n_cancelled: int = 0
        #: Recycled Timer objects awaiting reuse.
        self._free: List[Timer] = []
        #: Number of callbacks executed so far (cheap progress metric).
        self.events_executed: int = 0

    @property
    def now(self) -> int:
        """Current true time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def at(self, when: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute true time ``when`` (ns)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when}ns, already at t={self._now}ns"
            )
        when = int(when)
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            timer = free.pop()
            timer.when = when
            timer.seq = seq
            timer.callback = callback
            timer.args = args
            timer.cancelled = False
        else:
            timer = Timer(when, seq, callback, args, self)
        timer.queued = True
        heappush(self._heap, (when, seq, timer))
        return timer

    def after(self, delay: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}ns")
        return self.at(self._now + int(delay), callback, *args)

    def rearm(self, timer: Timer, when: int) -> Timer:
        """Reschedule a timer that already fired, reusing its object.

        The eager-reuse fast path for sites that reschedule themselves every
        event (connection anchors, producer ticks): the caller owns the
        handle, knows it just fired, and keeps the same callback and args.
        A timer that is still queued (e.g. cancelled but not yet popped)
        falls back to a fresh :meth:`at` allocation.
        """
        if timer.queued:
            return self.at(when, timer.callback, *timer.args)
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when}ns, already at t={self._now}ns"
            )
        when = int(when)
        timer.when = when
        seq = self._seq
        timer.seq = seq
        self._seq = seq + 1
        timer.cancelled = False
        timer.queued = True
        heappush(self._heap, (when, seq, timer))
        return timer

    def _note_cancel(self) -> None:
        """Bookkeeping for one queued timer turning cancelled; compacts the
        heap once cancelled timers dominate it."""
        self._n_cancelled += 1
        if (
            self._n_cancelled >= COMPACT_MIN_CANCELLED
            and self._n_cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _recycle(self, timer: Timer) -> None:
        """Return a popped-while-cancelled timer to the free list."""
        timer.queued = False
        free = self._free
        if len(free) < FREE_LIST_MAX:
            timer.args = ()
            free.append(timer)

    def _compact(self) -> None:
        """Drop every cancelled timer from the heap (in place, so dispatch
        loops holding a local reference keep seeing the live heap)."""
        heap = self._heap
        live: List[_Entry] = []
        for entry in heap:
            if entry[2].cancelled:
                self._recycle(entry[2])
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._n_cancelled = 0

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request the running loop to stop after the current callback."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run the event loop.

        :param until: optional horizon in true ns.  Events scheduled at
            exactly ``until`` are *not* executed; on return ``now`` equals
            ``until`` (if given) or the time of the last executed event.
        :returns: the number of callbacks executed during this call.

        The uninstrumented run gets its own dispatch loop, so it pays no
        per-event hub check; the loop is re-selected whenever a hub
        toggles (see :mod:`repro.obs.instr`).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            instr = self._instr
            while True:
                version = instr.version
                if (
                    self._trace.enabled
                    or self._metrics.enabled
                    or self._profiler.enabled
                ):
                    executed += self._loop_instrumented(until, version)
                else:
                    executed += self._loop_plain(until, version)
                if instr.version == version:
                    break  # the loop returned because it is actually done
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        self.events_executed += executed
        return executed

    def _loop_plain(self, until: Optional[int], version: int) -> int:
        """Dispatch with no instrumentation enabled (the fast path)."""
        executed = 0
        instr = self._instr
        heap = self._heap
        while heap and not self._stopped and instr.version == version:
            entry = heappop(heap)
            timer = entry[2]
            if timer.cancelled:
                self._n_cancelled -= 1
                self._recycle(timer)
                continue
            when = entry[0]
            if until is not None and when >= until:
                heappush(heap, entry)
                break
            timer.queued = False
            self._now = when
            timer.callback(*timer.args)
            executed += 1
        return executed

    def _loop_instrumented(self, until: Optional[int], version: int) -> int:
        """Dispatch with tracing, metrics and/or the wall-clock profiler.

        A hub toggle bumps the instrumentation version, which ends this
        loop after the current callback; only the metrics check follows
        the callback, so it is re-read per event.  Profiler
        attribution is batched in loop-local dicts keyed by the callback
        object (stable across ``rearm``) and flushed into the profiler via
        :meth:`Profiler.record_bulk` when the loop exits -- one dict update
        per event instead of a ``record`` call.  The traced ``callback``
        label is memoised per callback object the same way.
        """
        executed = 0
        instr = self._instr
        trace = self._trace if self._trace.enabled else None
        metrics = self._metrics
        profiler = self._profiler
        profiling = profiler.enabled
        rec_counts: dict = {}
        rec_times: dict = {}
        names: dict = {}
        heap = self._heap
        try:
            while heap and not self._stopped and instr.version == version:
                entry = heappop(heap)
                timer = entry[2]
                if timer.cancelled:
                    self._n_cancelled -= 1
                    self._recycle(timer)
                    continue
                when = entry[0]
                if until is not None and when >= until:
                    heappush(heap, entry)
                    break
                timer.queued = False
                self._now = when
                callback = timer.callback
                if trace is not None:
                    try:
                        name = names.get(callback)
                        if name is None:
                            name = names[callback] = callback_name(callback)
                    except TypeError:  # unhashable callable
                        name = callback_name(callback)
                    trace.emit(
                        when,
                        "kernel",
                        "dispatch",
                        timer_seq=timer.seq,
                        callback=name,
                    )
                if profiling:
                    # simlint: allow-wallclock -- profiler attribution only;
                    # the measured wall seconds stay in profile.json.
                    t0 = perf_counter()
                    callback(*timer.args)
                    dt = perf_counter() - t0  # simlint: allow-wallclock -- profiler hook
                    try:
                        if callback in rec_times:
                            rec_times[callback] += dt
                            rec_counts[callback] += 1
                        else:
                            rec_times[callback] = dt
                            rec_counts[callback] = 1
                    except TypeError:  # unhashable callable
                        profiler.record(callback, dt)
                else:
                    callback(*timer.args)
                executed += 1
                if metrics.enabled:
                    metrics.inc("sim", "kernel.events_dispatched")
        finally:
            for callback, total in rec_times.items():
                profiler.record_bulk(callback, rec_counts[callback], total)
        return executed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Return the timestamp of the next pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._n_cancelled -= 1
            self._recycle(heappop(heap)[2])
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return len(self._heap) - self._n_cancelled

    def queue_depth(self) -> int:
        """Queued timers including lazily-deleted ones (O(1)).

        The cancelled-inclusive sibling of :meth:`pending`: it bounds
        :meth:`pending` from above and tracks memory pressure.
        """
        return len(self._heap)
