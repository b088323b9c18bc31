"""Tests for directory bookkeeping and protocol message metadata.

The L3 bank writes an entry's ``sharers`` and ``owner`` directly, so
these tests build directory state the same way."""

from repro.mem.coherence import CohMsg, Directory


class TestCohMsg:
    def test_default_source_is_core(self):
        assert CohMsg(op="GetS", addr=0, requester=0).source == "core"

    def test_subline_annotation(self):
        msg = CohMsg(op="DataU", addr=0, requester=0, data_bytes=4)
        assert msg.data_bytes == 4


class TestDirectory:
    def test_entry_created_on_demand(self):
        d = Directory()
        ent = d.entry(0x40)
        assert ent.idle
        assert len(d) == 1

    def test_peek_does_not_create(self):
        d = Directory()
        assert d.peek(0x40) is None
        assert len(d) == 0

    def test_remove_cleans_empty_entries(self):
        d = Directory()
        d.entry(0x40).sharers.add(1)
        d.remove(0x40, 1)
        assert d.peek(0x40) is None
        d.entry(0x80).owner = 3
        d.remove(0x80, 3)
        assert d.peek(0x80) is None
        assert len(d) == 0

    def test_remove_unknown_is_noop(self):
        d = Directory()
        d.remove(0x40, 1)
        assert len(d) == 0

    def test_clear_returns_entry(self):
        d = Directory()
        d.entry(0x80).sharers.add(2)
        ent = d.clear(0x80)
        assert ent.sharers == {2}
        assert d.peek(0x80) is None
        assert d.clear(0x80) is None

    def test_line_granularity(self):
        d = Directory()
        d.entry(0x47).sharers.add(1)  # same line as 0x40
        assert d.peek(0x40).sharers == {1}
