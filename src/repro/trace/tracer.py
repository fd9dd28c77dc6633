"""The process-wide tracer.

Instrumented code paths throughout the stack guard their emissions with::

    if TRACE.enabled:
        TRACE.emit(t, "ble", "ll_tx", conn=..., ...)

:data:`TRACE` is a module-level singleton that is *never replaced*, so the
hot-path cost with tracing disabled is one attribute load and one branch --
the near-zero-overhead requirement.  :meth:`Tracer.configure` arms it with
sinks (ring buffer, JSONL file, packet dump, invariant checkers);
:meth:`Tracer.reset` disarms it again.  The experiment runner brackets every
traced run with this pair, so worker processes of the parallel engine see
exactly the same configuration as an in-process run -- which is what makes
traces byte-identical across worker counts.

Connection ids are normalized on emission: :class:`repro.ble.conn.Connection`
draws its ``conn_id`` from a process-global counter that is *not* reset
between runs, so raw ids would differ between a fresh process and a warm
one.  The tracer maps them to dense first-seen indices per configuration.

A record is one :class:`~repro.trace.record.TraceRecord` tuple holding an
interned field-name tuple and a flat value tuple (see DESIGN.md, "Trace
records"); the intern table is per-run state like the connection ids.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.obs.instr import INSTR
from repro.trace.record import TraceRecord

#: Builds a record from its six items without a Python-level ``__new__``.
_new_record = tuple.__new__


class Tracer:
    """Emission gate, layer filter, and fan-out to sinks."""

    __slots__ = (
        "enabled",
        "_sinks",
        "_sim",
        "_layers",
        "_conn_ids",
        "_names",
        "_seq",
    )

    def __init__(self) -> None:
        #: The hot-path gate; instrumented code checks this before building
        #: any record fields.
        self.enabled = False
        self._sinks: tuple = ()
        self._sim = None
        self._layers: Optional[Set[str]] = None
        self._conn_ids: Dict[int, int] = {}
        #: Field-name tuple intern table: one shared tuple per field set.
        self._names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._seq = 0

    def configure(
        self,
        sinks: Iterable[Any],
        sim: Any = None,
        layers: Optional[Iterable[str]] = None,
    ) -> None:
        """Arm the tracer: install sinks, reset per-run state, enable.

        :param sinks: objects with ``accept(record)``; closed by the caller.
        :param sim: optional simulator whose clock stamps ``time_ns=None``
            emissions (layers without a time source of their own, e.g. the
            IP stack).
        :param layers: restrict emission to these layers (``None`` = all).
        """
        self._sinks = tuple(sinks)
        self._sim = sim
        self._layers = set(layers) if layers is not None else None
        self._conn_ids = {}
        self._names = {}
        self._seq = 0
        self.enabled = True
        INSTR.bump()

    def attach_sim(self, sim: Any) -> None:
        """Late-bind the simulator (the runner knows it after net build)."""
        self._sim = sim

    def reset(self) -> None:
        """Disarm the tracer and drop sink references (sinks stay open)."""
        self.enabled = False
        INSTR.bump()
        self._sinks = ()
        self._sim = None
        self._layers = None
        self._conn_ids = {}
        self._names = {}

    @property
    def records_emitted(self) -> int:
        """Total records emitted since the last :meth:`configure`."""
        return self._seq

    def emit(self, time_ns: Optional[int], layer: str, kind: str, **fields: Any) -> None:
        """Build one record and fan it out to every sink.

        ``time_ns=None`` stamps the record with the attached simulator's
        clock (0 without one).  The reserved ``conn`` field is normalized to
        its dense per-run index.  The field names become the record's
        interned ``names`` tuple, the values one flat ``values`` tuple.
        """
        if not self.enabled:
            return
        layers = self._layers
        if layers is not None and layer not in layers:
            return
        if time_ns is None:
            sim = self._sim
            time_ns = sim.now if sim is not None else 0
        conn = fields.get("conn")
        if conn is not None:
            conn_ids = self._conn_ids
            ref = conn_ids.get(conn)
            if ref is None:
                ref = conn_ids[conn] = len(conn_ids)
            fields["conn"] = ref
        key = tuple(fields)
        names = self._names.get(key)
        if names is None:
            names = self._names[key] = key
        seq = self._seq
        self._seq = seq + 1
        record = _new_record(
            TraceRecord, (time_ns, layer, kind, seq, names, tuple(fields.values()))
        )
        for sink in self._sinks:
            sink.accept(record)


#: The singleton every instrumented module imports.  Never rebind it.
TRACE = Tracer()
