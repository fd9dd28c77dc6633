"""Typed trace records with stable schemas.

A :class:`TraceRecord` is one structured observation from inside the
simulator: a timer dispatch, a connection event, a K-frame, an IP hop.
Records carry a ``(layer, kind)`` pair that identifies their schema in
:data:`SCHEMAS`; every schema has an explicit version so downstream
consumers (golden traces, invariant checkers, external tooling) can detect
incompatible producers instead of silently misreading fields.

This module -- like the whole ``repro.trace`` package -- depends only on
the standard library: the kernel itself imports it, so it must sit below
every other layer of the stack.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional, Tuple

#: Schema registry: ``"layer.kind" -> version``.  Bump a version whenever a
#: record's field set or meaning changes; golden traces embed the versions
#: through :func:`repro.trace.sinks.record_to_json`.
SCHEMAS = {
    # -- kernel -----------------------------------------------------------
    "kernel.dispatch": 1,  # timer_seq, callback
    # -- PHY --------------------------------------------------------------
    "phy.packet": 1,  # channel, nbytes, lost
    # -- BLE link layer ---------------------------------------------------
    "ble.conn_open": 1,  # conn, coordinator, subordinate, interval_ns,
    #                      anchor0, timeout_ns
    "ble.conn_event": 1,  # conn, event, anchor, channel, interval_ns,
    #                       widening, window_hit, coord_runs, sub_listens
    "ble.conn_event_end": 1,  # conn, event, end, now, timeout_ns
    "ble.conn_close": 1,  # conn, reason
    "ble.param_update": 1,  # conn, interval_ns
    "ble.ll_tx": 1,  # conn, role, sn, nesn, len, retx
    "ble.ll_rx": 1,  # conn, role, sn, nesn, len, my_sn, my_nesn
    "ble.crc_loss": 1,  # conn, role, channel, len
    "ble.radio_claim": 1,  # node, start, end
    "ble.radio_deny": 1,  # node
    "ble.rpa_resolve": 1,  # node, identity, old, new
    # -- L2CAP ------------------------------------------------------------
    "l2cap.kframe_tx": 1,  # conn, node, frame_len, credits_left, last
    "l2cap.credits": 1,  # conn, node, granted
    "l2cap.sdu_rx": 1,  # conn, node, len, frames
    "l2cap.sdu_sent": 1,  # conn, node, len
    # -- 6LoWPAN ----------------------------------------------------------
    "sixlo.tx": 1,  # node, peer, in_len, out_len, data
    "sixlo.rx": 1,  # node, peer, len, data
    "sixlo.frag_tx": 1,  # tag, size, n_frags, digest
    "sixlo.frag_rx": 1,  # sender, tag, offset, len
    "sixlo.reassembled": 1,  # sender, tag, size, digest
    "sixlo.reasm_timeout": 1,  # sender, tag
    # -- IP ---------------------------------------------------------------
    "ip.originate": 1,  # node, dst
    "ip.forward": 1,  # node, dst, hop_limit
    "ip.deliver": 1,  # node, proto
    "ip.drop": 1,  # node, cause, dst
    # -- CoAP -------------------------------------------------------------
    "coap.request": 1,  # node, mid, token, path, confirmable
    "coap.response": 1,  # node, mid, rtt_ns
    "coap.retransmit": 1,  # node, mid, retransmits_left
    "coap.timeout": 1,  # node, mid
    # -- workload (scenario dynamics; see repro.workload) ------------------
    "workload.depart": 1,  # node, id, fail
    "workload.arrive": 1,  # node, id
    "workload.reattach": 1,  # node, id, latency_ns
    "workload.rotate": 1,  # node, id, old, new
    "workload.move": 1,  # node, x, y
}


def schema_version(layer: str, kind: str) -> int:
    """Version of the ``layer.kind`` schema (0 for unregistered kinds)."""
    return SCHEMAS.get(f"{layer}.{kind}", 0)


def callback_name(callback: Any) -> str:
    """A deterministic, address-free label for a timer callback.

    ``repr(bound_method)`` embeds the object's memory address, which would
    make otherwise identical traces differ between runs; the qualified name
    is stable across processes.
    """
    name = getattr(callback, "__qualname__", None)
    if name is None:
        func = getattr(callback, "func", None)  # functools.partial
        if func is not None:
            return callback_name(func)
        name = type(callback).__name__
    return name


class TraceRecord(tuple):
    """One structured observation: ``(time_ns, layer, kind, seq, names, values)``.

    :param time_ns: true simulation time of the observation.
    :param layer: producing layer (``kernel``, ``phy``, ``ble``, ...).
    :param kind: record kind within the layer.
    :param seq: dense per-run emission index (total order tie-breaker).
    :param names: the schema-specific field names, in emission order.
        :meth:`Tracer.emit` interns one tuple per field set, so records of
        one kind share it.
    :param values: the field values, one per name.

    A record is a tuple subclass without instance ``__dict__``: immutable,
    hashable, picklable and one allocation besides its values tuple.  The
    pairs form ``TraceRecord(time_ns, layer, kind, seq, fields)``, with
    ``fields`` a tuple of ``(name, value)`` pairs, builds the same record.
    """

    __slots__ = ()

    def __new__(
        cls,
        time_ns: int,
        layer: str,
        kind: str,
        seq: int,
        names: Tuple[Any, ...],
        values: Optional[Tuple[Any, ...]] = None,
    ) -> "TraceRecord":
        if values is None:  # the pairs form
            values = tuple(v for _, v in names)
            names = tuple(k for k, _ in names)
        return tuple.__new__(cls, (time_ns, layer, kind, seq, names, values))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)

    time_ns = property(itemgetter(0), doc="True simulation time (ns).")
    layer = property(itemgetter(1), doc="Producing layer.")
    kind = property(itemgetter(2), doc="Record kind within the layer.")
    seq = property(itemgetter(3), doc="Dense per-run emission index.")
    names = property(itemgetter(4), doc="Field names, in emission order.")
    values = property(itemgetter(5), doc="Field values, one per name.")

    @property
    def fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The payload as ``(name, value)`` pairs, in emission order."""
        return tuple(zip(self[4], self[5]))

    @property
    def key(self) -> str:
        """The schema key, ``layer.kind``."""
        return f"{self[1]}.{self[2]}"

    @property
    def version(self) -> int:
        """Schema version of this record."""
        return schema_version(self[1], self[2])

    def get(self, name: str, default: Any = None) -> Any:
        """Field lookup by name."""
        try:
            return self[5][self[4].index(name)]
        except ValueError:
            return default
