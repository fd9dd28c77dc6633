"""Per-layer self time for the traced benchmark run.

A :class:`LayerTracer` wraps the entry points that the kernel and the
neighbouring layers call, from this directory, by patching class
attributes before the network is built.  Each wrapped call is a span
(name, start, end, parent).  A layer's self time is the inclusive time of
its spans minus the part covered by wrapped child spans, so the self
times of all layers add up to the wall time of the outermost span.

Two kinds of wrapping cover the program:

* every callback the kernel dispatches is wrapped when it is scheduled
  (``Simulator.at``), and charged to the package that defines it, so no
  timer callback is charged to the kernel;
* the calls one layer makes into another (``ENTRY_POINTS``) are wrapped
  in place, so a connection event that delivers a packet up the stack
  charges each layer only for its own part.

``BleMedium.packet_lost`` is deliberately not wrapped: the connection
event inlines loss sampling only while that method is the stock one, and
wrapping it would time a different program.  Entry points that a later
version of the simulator renames are skipped and listed in
:attr:`LayerTracer.missing`; the kernel-callback wrapping keeps their time
attributed to the right package regardless.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marks a function produced by :meth:`LayerTracer.wrap`.
_MARK = "_perfbench_layer"

#: (module, class, methods) of the cross-layer calls to wrap.  ``"*"``
#: wraps every public method the class defines: the instrumentation hubs,
#: whose surface is expected to change.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.ble.conn", "Connection", ("_run_event", "send")),
    ("repro.ble.conn", "Endpoint", ("enqueue",)),
    ("repro.ble.sched", "RadioScheduler", ("claim", "deny", "next_demand_after")),
    ("repro.ble.adv", "Advertiser", ("_adv_event",)),
    ("repro.ble.adv", "Scanner", ("complete_connection",)),
    ("repro.phy.medium", "BleMedium", ("scanners_hearing",)),
    ("repro.phy.spatial", "Geometry", ("iter_in_range", "neighbors_of")),
    ("repro.l2cap.coc", "L2capCoc", ("send", "send_fixed")),
    ("repro.l2cap.coc", "_CocEnd", ("pump", "_on_ll_rx", "_on_ll_acked")),
    ("repro.sixlowpan.adapt", "BleAdaptation", ("to_link", "from_link")),
    ("repro.sixlowpan.frag", "Reassembler", ("accept",)),
    ("repro.net.ip", "Ipv6Stack", ("send", "receive")),
    ("repro.net.netif", "BleNetif", ("send", "_on_rx_sdu", "_on_sdu_sent")),
    ("repro.coap.endpoint", "CoapEndpoint", ("request", "_on_datagram", "_retransmit")),
    ("repro.testbed.traffic", "Producer", ("_tick", "_on_ack")),
    ("repro.testbed.traffic", "Consumer", ("_serve",)),
    ("repro.rpl.rpl", "RplInstance", ("_on_rpl", "_send_dio", "_send_dao")),
    ("repro.rpl.trickle", "TrickleTimer", ("_fire", "_interval_end")),
    ("repro.core.dynconn", "Dynconn", (
        "_on_conn_open", "_on_conn_close", "_on_orphan_timeout", "_on_parent_change",
    )),
    ("repro.core.statconn", "Statconn", ("_on_conn_open", "_on_conn_close", "_kick")),
    ("repro.trace.tracer", "Tracer", ("*",)),
    ("repro.obs.registry", "MetricsHub", ("*",)),
    ("repro.spans.hub", "SpanHub", ("*",)),
)

#: Raw spans kept per traced simulation; beyond this only the per-layer
#: totals are kept.
MAX_SPANS = 2_000_000


def layer_of(module: str) -> str:
    """The ``src/repro`` package a module belongs to (``repro.ble.conn`` ->
    ``ble``); code outside the package is ``other``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def _callback_module(callback: Any) -> str:
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)  # functools.partial
    return getattr(func, "__module__", None) or "other"


class LayerTracer:
    """Span stack and per-layer self time for one traced simulation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        #: Counts taken at the boundaries (see :meth:`_count_conn_event`).
        self.conn_events = 0
        self.conn_events_idle = 0
        self.radio_denials = 0
        #: ``module.Class.method`` entry points this simulator lacks.
        self.missing: List[str] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.keep_spans = True
        #: Open spans: [span index or -1, wrapped-children time].
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        probe: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` as a span charged to ``layer``; ``probe(*args)`` runs
        first, outside the span."""
        name = f"{layer}:{getattr(fn, '__qualname__', type(fn).__name__)}"
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if probe is not None:
                probe(*args)
            start = perf_counter()
            index = -1
            if self.keep_spans and len(self.span_start) < MAX_SPANS:
                index = len(self.span_start)
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(start)
                self.span_end.append(start)
            frame = [index, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    self.span_end[index] = end

        setattr(traced, _MARK, layer)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the kernel and every entry point (before the build)."""
        from repro.sim.kernel import Simulator

        self._patch(Simulator, "run", self.wrap("sim", Simulator.run))
        original_at = Simulator.at
        wrap = self.wrap

        def at(sim: Any, when: int, callback: Callable[..., Any], *args: Any) -> Any:
            if not hasattr(callback, _MARK):
                callback = wrap(layer_of(_callback_module(callback)), callback)
            return original_at(sim, when, callback, *args)

        self._patch(Simulator, "at", at)
        for module_name, class_name, methods in ENTRY_POINTS:
            try:
                owner = getattr(importlib.import_module(module_name), class_name, None)
            except ImportError:
                owner = None
            if owner is None:
                self.missing.append(f"{module_name}.{class_name}")
                continue
            if methods == ("*",):
                methods = tuple(
                    attr for attr, value in vars(owner).items()
                    if callable(value) and not attr.startswith("__")
                    and not isinstance(value, (staticmethod, classmethod))
                )
            for attr in methods:
                fn = vars(owner).get(attr)
                if fn is None or not callable(fn):
                    self.missing.append(f"{module_name}.{class_name}.{attr}")
                    continue
                probe = None
                if (class_name, attr) == ("Connection", "_run_event"):
                    probe = self._count_conn_event
                elif (class_name, attr) == ("RadioScheduler", "deny"):
                    probe = self._count_denial
                self._patch(owner, attr, self.wrap(layer_of(module_name), fn, probe))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- boundary counts ---------------------------------------------------

    def _count_conn_event(self, conn: Any) -> None:
        """One connection event; idle when neither end has anything to send
        (both queues empty and no data PDU awaiting acknowledgement)."""
        self.conn_events += 1
        if conn.open and not (conn.coord.next_tx_len() or conn.sub.next_tx_len()):
            self.conn_events_idle += 1

    def _count_denial(self, scheduler: Any, activity: Any) -> None:
        self.radio_denials += 1

    # -- output ------------------------------------------------------------

    def spans(self) -> Dict[str, Any]:
        """The recorded spans as arrays (times in perf-counter seconds)."""
        return {
            "names": list(self.names),
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
