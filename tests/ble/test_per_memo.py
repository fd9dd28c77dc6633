"""The connection's cross-event PER memo follows interference changes.

``Connection._per_cache`` keeps each ``(channel, nbytes)`` PER across
events while the interference model's static configuration is unchanged.
It keys on :meth:`InterferenceModel.generation`, so a change made during a
run reaches a memo that is already warm, and ``invalidate()`` reaches every
connection, not only the first one to draw after it.
"""

import pytest

from repro.ble.config import ConnParams
from repro.sim.units import MSEC, SEC
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACE.reset()
    yield
    TRACE.reset()


def _jam_after_idle(plane, traced):
    """Run a 2-node link idle for 10 s, jam all 37 channels, run 1 s more.

    :returns: (draws, losses) after the jamming.
    """
    if traced:
        TRACE.configure(sinks=[RingBufferSink()], sim=plane.sim)
    conn = plane.connect(0, 1)
    plane.sim.run(until=10 * SEC)  # idle: the memo is warm on every channel
    assert conn.open
    medium = plane.medium
    medium.interference.jammed_channels = tuple(range(37))
    sampled, lost = medium.packets_sampled, medium.packets_lost
    plane.sim.run(until=11 * SEC)
    return medium.packets_sampled - sampled, medium.packets_lost - lost


def test_jamming_a_warm_link_makes_every_later_draw_a_loss(make_plane):
    for traced in (False, True):
        draws, losses = _jam_after_idle(make_plane(), traced)
        assert draws > 0
        assert losses == draws, f"traced={traced}"


def test_invalidate_reaches_every_connection(make_plane):
    plane = make_plane(n_nodes=4)
    interference = plane.medium.interference
    interference.channel_per.update({c: 0.0 for c in range(37)})
    params = ConnParams()
    conns = [
        plane.connect(0, 1, params, anchor0=1 * MSEC),
        plane.connect(2, 3, params, anchor0=2 * MSEC),
    ]
    plane.sim.run(until=5 * SEC)  # both memos warm at PER 0
    for channel in range(37):
        interference.channel_per[channel] = 1.0  # same keys: needs invalidate
    interference.invalidate()
    heard = [(c.coord.last_rx_valid, c.sub.last_rx_valid) for c in conns]
    events = [c.event_counter for c in conns]
    plane.sim.run(until=5 * SEC + 500 * MSEC)
    for conn, before, counter in zip(conns, heard, events):
        assert conn.event_counter > counter
        # PER 1: neither end receives a valid packet any more
        assert (conn.coord.last_rx_valid, conn.sub.last_rx_valid) == before
