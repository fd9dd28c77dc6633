"""Idle connection-event fast path vs the general exchange loop.

With instrumentation off, ``Connection._run_event`` plays an idle event
(both queues dry, nothing but an empty PDU outstanding) through
``_idle_exchange`` instead of ``_exchange_loop``.  The fast path must be
invisible: every run below is made twice, untraced (fast path) and traced
(tracing forces the general loop), and every link-layer observable must
match -- each endpoint's full ``LinkStats``, its SN/NESN bits and
supervision basis, each connection's subordinate sync state, the medium's
loss counters and the medium RNG's state (which pins the number and order
of loss draws).

The golden traces cannot guard the fast path: they are recorded with
tracing on, which never takes it.
"""

import dataclasses
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.ble.config import ConnParams
from repro.ble.conn import Connection
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.phy.medium import InterferenceBurst
from repro.sim.units import MSEC, SEC
from repro.trace.tracer import TRACE
from tests.exp.test_dispatch_differential import MESH, TREE
from tests.trace.test_golden import CHURN_25, SCALE_100

#: The paper's main regime (Fig. 13): the 15-node tree, 1 s producers.
MODERATE_TREE = ExperimentConfig(
    name="idle-moderate-tree",
    topology="tree",
    n_nodes=15,
    duration_s=6.0,
    warmup_s=2.0,
    drain_s=0.5,
    producer_interval_s=1.0,
    seed=31,
)


class _Record:
    """Connections built during a run and which path served each event."""

    def __init__(self):
        self.conns = []
        self.idle = 0
        self.loop = 0


@contextmanager
def _recording(idle_exchange=None):
    """Record every connection and count the two exchange paths.

    ``idle_exchange`` replaces the fast path (mutation cases).
    """
    record = _Record()
    init = Connection.__init__
    original_idle = Connection._idle_exchange
    idle = idle_exchange or original_idle
    loop = Connection._exchange_loop

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record.conns.append(self)

    def counting_idle(self, t0, channel):
        record.idle += 1
        return idle(self, t0, channel)

    def counting_loop(self, t0, channel, interval_true):
        record.loop += 1
        return loop(self, t0, channel, interval_true)

    Connection.__init__ = recording_init
    Connection._idle_exchange = counting_idle
    Connection._exchange_loop = counting_loop
    try:
        yield record
    finally:
        Connection.__init__ = init
        Connection._idle_exchange = original_idle
        Connection._exchange_loop = loop


def _link_state(conns, medium, events_executed):
    """Every link-layer observable the fast path could move."""
    links = []
    for conn in conns:
        links.append({
            "event_counter": conn.event_counter,
            "open": conn.open,
            "sync": (conn._sync_true, conn._sync_counter, conn._sync_local),
            "endpoints": [
                {
                    "stats": dataclasses.asdict(ep.stats),
                    "sn": ep.sn,
                    "nesn": ep.nesn,
                    "last_rx_valid": ep.last_rx_valid,
                }
                for ep in (conn.coord, conn.sub)
            ],
        })
    return {
        "links": links,
        "packets_sampled": medium.packets_sampled,
        "packets_lost": medium.packets_lost,
        "rng": medium.rng.getstate(),
        "events_executed": events_executed,
    }


def _run(config, traced, idle_exchange=None):
    if traced:
        config = replace(config, trace=True, trace_layers="coap")
    else:
        config = replace(config, trace=False, trace_layers="")
    with _recording(idle_exchange) as record:
        result = run_experiment(config)
    net = result.network
    state = _link_state(record.conns, net.medium, net.sim.events_executed)
    state["coap"] = (result.coap_pdr(), result.rtts_s())
    return state, record


def _differential(config, idle_exchange=None):
    """Run ``config`` untraced and traced: (fast, slow, untraced record)."""
    fast, fast_record = _run(config, traced=False, idle_exchange=idle_exchange)
    slow, slow_record = _run(config, traced=True)
    assert slow_record.idle == 0, "a traced run must take the general loop"
    assert fast["links"], "the run opened no connection"
    return fast, slow, fast_record


def _assert_same(config):
    """The untraced and traced runs agree; returns the untraced record."""
    fast, slow, record = _differential(config)
    assert fast == slow
    return record


DIFFERENTIAL_CASES = {
    "tree": TREE,
    "moderate-tree": MODERATE_TREE,
    "mesh": MESH,
    "scale100": SCALE_100,
    "churn": CHURN_25,
}


@pytest.mark.parametrize("label", sorted(DIFFERENTIAL_CASES))
def test_fast_path_matches_general_loop(label):
    record = _assert_same(DIFFERENTIAL_CASES[label])
    assert record.idle > 0, "the fast path was never taken"


def test_fast_path_serves_most_events_on_moderate_tree():
    """In the paper's main regime most served events are idle; if the
    fast path stops being taken, this is what notices."""
    _, record = _run(MODERATE_TREE, traced=False)
    served = record.idle + record.loop
    assert served > 0
    assert record.idle / served >= 0.80, (record.idle, record.loop)


def test_no_abort_ablation_never_takes_fast_path():
    """With CRC errors not closing the event, a lost empty is retried under
    the event budget, which only the general loop reads."""
    record = _assert_same(replace(TREE, abort_event_on_crc_error=False))
    assert record.idle == 0
    assert record.loop > 0


@pytest.mark.parametrize(
    "overrides",
    (
        {"scheduler_policy": "alternate"},
        {"subordinate_latency": 2},
    ),
    ids=("alternate", "sub-latency"),
)
def test_fast_path_matches_under_policy_and_latency(overrides):
    config = replace(MESH, **overrides)
    record = _assert_same(config)
    assert record.idle > 0


def test_mutation_skipping_sub_rx_time_is_caught():
    """A fast path that forgets the subordinate's supervision basis must
    make the differential fail."""

    idle = Connection._idle_exchange

    def forgetful(self, t0, channel):
        before = self.sub.last_rx_valid
        end = idle(self, t0, channel)
        self.sub.last_rx_valid = before
        return end

    fast, slow, record = _differential(TREE, idle_exchange=forgetful)
    assert record.idle > 0
    assert fast != slow


def _plane_run(make_plane, traced, bursts):
    """Two idle links sharing a node on a lossy plane, with optional bursts
    (the fast path's per-event PER memo)."""
    plane = make_plane(n_nodes=3, base_ber=2e-4, seed=5)
    if bursts:
        plane.medium.interference.bursts.append(
            InterferenceBurst(300 * MSEC, 900 * MSEC, tuple(range(0, 37, 2)), 0.4)
        )
    a = plane.connect(0, 1, params=ConnParams(interval_ns=75 * MSEC), anchor0=MSEC)
    b = plane.connect(
        0, 2, params=ConnParams(interval_ns=50 * MSEC), anchor0=7 * MSEC,
        aa=random.Random(7).getrandbits(32),
    )
    a.send(plane.nodes[0], b"one")
    b.send(plane.nodes[2], b"two")
    if traced:
        TRACE.configure(sinks=(), sim=plane.sim)
    try:
        with _recording() as record:
            plane.sim.run(until=2 * SEC)
    finally:
        if traced:
            TRACE.reset()
    return _link_state([a, b], plane.medium, plane.sim.events_executed), record


@pytest.mark.parametrize("bursts", (False, True), ids=("static", "bursts"))
def test_fast_path_matches_on_lossy_plane(make_plane, bursts):
    fast, record = _plane_run(make_plane, traced=False, bursts=bursts)
    slow, slow_record = _plane_run(make_plane, traced=True, bursts=bursts)
    assert record.idle > 0 and slow_record.idle == 0
    assert fast["packets_lost"] > 0, "the plane must lose packets"
    assert fast == slow
