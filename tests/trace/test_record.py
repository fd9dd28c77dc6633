"""TraceRecord and schema-registry unit tests."""

import functools
import pickle

import pytest

from repro.trace.record import (
    SCHEMAS,
    TraceRecord,
    callback_name,
    schema_version,
)
from repro.trace.sinks import RingBufferSink, record_to_json
from repro.trace.tracer import Tracer


class TestSchemas:
    def test_every_key_is_layer_dot_kind(self):
        for key in SCHEMAS:
            layer, _, kind = key.partition(".")
            assert layer and kind, f"malformed schema key {key!r}"

    def test_versions_are_positive_ints(self):
        assert all(
            isinstance(v, int) and v >= 1 for v in SCHEMAS.values()
        )

    def test_schema_version_lookup(self):
        assert schema_version("ble", "conn_open") == SCHEMAS["ble.conn_open"]

    def test_unregistered_kind_is_version_zero(self):
        assert schema_version("ble", "no-such-kind") == 0
        assert schema_version("nope", "conn_open") == 0

    def test_registry_covers_the_paper_stack(self):
        """Every layer the tentpole promises has at least one schema."""
        layers = {key.split(".")[0] for key in SCHEMAS}
        assert {"kernel", "phy", "ble", "l2cap", "sixlo", "ip", "coap"} <= layers


class TestCallbackName:
    def test_bound_method_has_no_address(self):
        class Thing:
            def tick(self):
                pass

        name = callback_name(Thing().tick)
        assert "tick" in name
        assert "0x" not in name  # repr() would leak the object address

    def test_same_method_of_two_instances_is_identical(self):
        class Thing:
            def tick(self):
                pass

        assert callback_name(Thing().tick) == callback_name(Thing().tick)

    def test_partial_unwraps_to_the_wrapped_function(self):
        def fire(a, b):
            pass

        assert "fire" in callback_name(functools.partial(fire, 1))

    def test_plain_function(self):
        def fire():
            pass

        assert "fire" in callback_name(fire)


class TestTraceRecord:
    def test_key_and_version(self):
        record = TraceRecord(5, "ble", "conn_open", 0, (("conn", 1),))
        assert record.key == "ble.conn_open"
        assert record.version == SCHEMAS["ble.conn_open"]

    def test_get_returns_field_or_default(self):
        record = TraceRecord(5, "ble", "ll_tx", 0, (("sn", 1), ("nesn", 0)))
        assert record.get("sn") == 1
        assert record.get("nesn") == 0
        assert record.get("missing") is None
        assert record.get("missing", 7) == 7

    def test_records_are_immutable_and_hashable(self):
        record = TraceRecord(5, "ble", "ll_tx", 0, (("sn", 1),))
        assert record == TraceRecord(5, "ble", "ll_tx", 0, (("sn", 1),))
        assert hash(record) == hash(TraceRecord(5, "ble", "ll_tx", 0, (("sn", 1),)))
        with pytest.raises(AttributeError):
            record.time_ns = 6
        with pytest.raises(AttributeError):
            record.fields = ()

    def test_pickle_round_trip_keeps_equality_and_json(self):
        record = TraceRecord(
            5, "sixlo", "tx", 3, (("node", 1), ("data", b"\x01\x02"), ("ok", True))
        )
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is TraceRecord
        assert clone == record
        assert hash(clone) == hash(record)
        assert record_to_json(clone) == record_to_json(record)


def _emitted(*calls):
    """Records a fresh tracer emits for ``(time, layer, kind, fields)`` calls."""
    ring = RingBufferSink()
    tracer = Tracer()
    tracer.configure(sinks=[ring])
    for time_ns, layer, kind, fields in calls:
        tracer.emit(time_ns, layer, kind, **fields)
    tracer.reset()
    return ring.records()


class TestEmittedRecords:
    def test_same_field_set_shares_one_names_tuple(self):
        first, second, other = _emitted(
            (1, "ble", "ll_tx", {"sn": 0, "nesn": 1}),
            (2, "ble", "ll_tx", {"sn": 1, "nesn": 0}),
            (3, "ble", "ll_tx", {"nesn": 0, "sn": 1}),
        )
        assert first.names is second.names
        assert first.values != second.values
        assert other.names == ("nesn", "sn")  # order is part of the field set

    def test_fields_and_get_match_the_pairs_form(self):
        pairs = (("conn", 0), ("role", "coordinator"), ("sn", 1), ("len", 27))
        (emitted,) = _emitted((7, "ble", "ll_tx", dict(pairs, conn=900)))
        built = TraceRecord(7, "ble", "ll_tx", 0, pairs)
        assert emitted == built
        assert emitted.fields == built.fields == pairs
        for name, value in pairs:
            assert emitted.get(name) == built.get(name) == value
        assert emitted.get("missing", 7) == built.get("missing", 7) == 7
        assert record_to_json(emitted) == record_to_json(built)
