"""Tests for directory bookkeeping and protocol message metadata."""

from hypothesis import given
from hypothesis import strategies as st

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

    def test_add_sharer_clears_same_owner(self):
        d = Directory()
        d.set_owner(0x40, 3)
        d.add_sharer(0x40, 3)
        ent = d.peek(0x40)
        assert ent.owner is None
        assert ent.sharers == {3}

    def test_set_owner_clears_sharers(self):
        d = Directory()
        d.add_sharer(0x40, 1)
        d.add_sharer(0x40, 2)
        d.set_owner(0x40, 5)
        ent = d.peek(0x40)
        assert ent.owner == 5
        assert not ent.sharers

    def test_remove_cleans_empty_entries(self):
        d = Directory()
        d.add_sharer(0x40, 1)
        d.remove(0x40, 1)
        assert d.peek(0x40) is None
        assert len(d) == 0

    def test_remove_unknown_is_noop(self):
        d = Directory()
        d.remove(0x40, 1)
        assert len(d) == 0

    def test_clear_returns_entry(self):
        d = Directory()
        d.add_sharer(0x80, 2)
        ent = d.clear(0x80)
        assert ent.sharers == {2}
        assert d.peek(0x80) is None
        assert d.clear(0x80) is None

    def test_line_granularity(self):
        d = Directory()
        d.add_sharer(0x47, 1)  # same line as 0x40
        assert d.peek(0x40).sharers == {1}

    @given(st.lists(
        st.tuples(
            st.sampled_from(["share", "own", "remove"]),
            st.integers(min_value=0, max_value=7),  # tile
            st.integers(min_value=0, max_value=3),  # line
        ),
        max_size=100,
    ))
    def test_owner_sharer_exclusive(self, ops):
        """At any point a line's owner is never also a sharer."""
        d = Directory()
        for op, tile, line in ops:
            addr = line * 64
            if op == "share":
                d.add_sharer(addr, tile)
            elif op == "own":
                d.set_owner(addr, tile)
            else:
                d.remove(addr, tile)
            ent = d.peek(addr)
            if ent is not None and ent.owner is not None:
                assert ent.owner not in ent.sharers
