"""End-to-end protocol tests over the miniature 2x2 hierarchy."""

from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED


class TestDemandPath:
    def test_cold_read_reaches_dram_and_fills_everything(self, hier):
        results = []
        hier.read(0, 0x0, results)  # addr 0 homes at bank 0 (local)
        hier.run()
        assert len(results) == 1
        assert hier.stats["l1.misses"] == 1
        assert hier.stats["l2.misses"] == 1
        assert hier.stats["l3.misses"] == 1
        assert hier.stats["dram.reads"] == 1
        assert hier.l1s[0].array.contains(0x0)
        assert hier.l2s[0].array.contains(0x0)
        assert hier.banks[0].array.contains(0x0)
        # DRAM round trip dominates: >= 100 cycles.
        assert results[0] >= 100

    def test_second_read_hits_l1(self, hier):
        results = []
        hier.read(0, 0x0, results)
        hier.run()
        hier.read(0, 0x20, results)  # same line
        hier.run()
        assert hier.stats["l1.hits"] == 1
        assert results[1] - results[0] <= 5

    def test_read_to_remote_bank_crosses_noc(self, hier):
        results = []
        hier.read(0, 0x40 * 3, results)  # line 3 homes at bank 3
        hier.run()
        assert hier.stats["noc.packets.ctrl"] >= 2  # GetS + MemRead
        assert hier.stats["noc.packets.data"] >= 2  # MemData + Data
        assert hier.banks[3].array.contains(0x40 * 3)
        assert not hier.banks[0].array.contains(0x40 * 3)

    def test_l3_hit_after_other_core_fetch(self, hier):
        hier.read(0, 0x0)
        hier.read(1, 0x0)  # downgrade: bank gets a copy via DownData
        hier.run()
        dram_before = hier.stats["dram.reads"]
        hier.read(2, 0x0)  # no owner now: plain LLC hit
        hier.run()
        assert hier.stats["dram.reads"] == dram_before
        assert hier.stats["l3.hits"] >= 1


class TestMesiStates:
    def test_first_reader_gets_exclusive(self, hier):
        hier.read(0, 0x0)
        hier.run()
        line = hier.l2s[0].array.lookup(0x0, touch=False)
        assert line.state == EXCLUSIVE
        assert hier.banks[0].dir.peek(0x0).owner == 0

    def test_second_reader_downgrades_owner_to_shared(self, hier):
        hier.read(0, 0x0)
        hier.run()
        hier.read(1, 0x0)
        hier.run()
        assert hier.l2s[0].array.lookup(0x0, touch=False).state == SHARED
        assert hier.l2s[1].array.lookup(0x0, touch=False).state == SHARED
        ent = hier.banks[0].dir.peek(0x0)
        assert ent.owner is None
        assert ent.sharers == {0, 1}
        assert hier.stats["l3.forwards"] == 1

    def test_write_gets_modified_and_invalidates_sharers(self, hier):
        hier.read(0, 0x0)
        hier.run()
        hier.read(1, 0x0)
        hier.run()
        hier.write(2, 0x0)
        hier.run()
        assert hier.l2s[2].array.lookup(0x0, touch=False).state == MODIFIED
        assert not hier.l2s[0].array.contains(0x0)
        assert not hier.l2s[1].array.contains(0x0)
        ent = hier.banks[0].dir.peek(0x0)
        assert ent.owner == 2
        assert hier.stats["l3.invalidations"] == 2

    def test_write_hit_on_exclusive_is_silent(self, hier):
        hier.read(0, 0x0)
        hier.run()
        ctrl_before = hier.stats["noc.packets.ctrl"]
        hier.write(0, 0x0)
        hier.run()
        # E->M upgrade is silent: no new coherence traffic; the dirty
        # data sits in the (writable) L1.
        assert hier.stats["noc.packets.ctrl"] == ctrl_before
        assert hier.l1s[0].array.lookup(0x0, touch=False).dirty

    def test_write_hit_on_shared_upgrades(self, hier):
        hier.read(0, 0x0)
        hier.read(1, 0x0)
        hier.run()
        hier.write(0, 0x0)
        hier.run()
        line = hier.l2s[0].array.lookup(0x0, touch=False)
        assert line.state == MODIFIED
        assert not hier.l2s[1].array.contains(0x0)

    def test_read_after_remote_write_forwards_dirty_data(self, hier):
        hier.write(0, 0x0)
        hier.run()
        hier.read(1, 0x0)
        hier.run()
        # Owner downgraded, bank has the dirty copy.
        assert hier.l2s[0].array.lookup(0x0, touch=False).state == SHARED
        bank_line = hier.banks[0].array.lookup(0x0, touch=False)
        assert bank_line.dirty
        assert hier.stats["l3.forwards"] >= 1


class TestEvictions:
    def test_clean_eviction_sends_puts(self, hier):
        # L2 is 4kB/4-way in the fixture: 16 sets. Fill one set (stride
        # 16 lines) beyond capacity.
        stride = 16 * 64
        for i in range(5):
            hier.read(0, i * stride)
        hier.run()
        assert hier.stats["l2.evictions"] == 1
        assert hier.stats["l3.puts"] == 1
        # Evicted line no longer a sharer/owner at its bank.
        assert hier.banks[0].dir.peek(0x0) is None
        # Back-invalidation kept L1 consistent.
        assert not hier.l1s[0].array.contains(0x0)

    def test_dirty_eviction_sends_putm(self, hier):
        stride = 16 * 64
        hier.write(0, 0x0)
        hier.run()
        for i in range(1, 5):
            hier.read(0, i * stride)
        hier.run()
        assert hier.stats["l3.putm"] == 1
        assert hier.stats["l2.put_acks"] == 1
        bank_line = hier.banks[0].array.lookup(0x0, touch=False)
        assert bank_line is not None and bank_line.dirty

    def test_noreuse_classification(self, hier):
        stride = 16 * 64
        # Line 0 is reused (two separate L2 accesses), others are not.
        hier.read(0, 0x0)
        hier.run()
        hier.l1s[0].invalidate(0x0)  # force the next read back to L2
        hier.read(0, 0x0)
        hier.run()
        for i in range(1, 6):
            hier.read(0, i * stride)
        hier.run()
        assert hier.stats["l2.evictions"] == 2
        assert hier.stats["l2.evictions_noreuse"] == 1
        assert hier.stats["l2.noreuse_flits.data"] > 0
        assert hier.stats["l2.noreuse_flits.ctrl"] > 0


class TestGetU:
    def _get_u(self, hier, bank_tile, addr, requester):
        got = []
        # Keep the body: the network recycles a delivered packet's shell.
        hier.net.register(requester, "se_l2",
                          lambda pkt: got.append(pkt.body))
        bank = hier.banks[bank_tile]
        bank.stream_read(
            addr, requester,
            on_ready=lambda msg: bank.send_data_u(requester, msg),
        )
        hier.run()
        return got

    def test_getu_does_not_update_directory(self, hier):
        got = self._get_u(hier, 0, 0x0, requester=1)
        assert len(got) == 1
        assert got[0].op == "DataU"
        # No sharer recorded, but the line is now cached in L3.
        assert hier.banks[0].dir.peek(0x0) is None
        assert hier.banks[0].array.contains(0x0)
        assert not hier.l2s[1].array.contains(0x0)

    def test_getu_served_from_m_owner_without_state_change(self, hier):
        hier.write(1, 0x0)
        hier.run()
        got = self._get_u(hier, 0, 0x0, requester=2)
        assert len(got) == 1
        # Owner keeps M state (Fig 12c).
        assert hier.l2s[1].array.lookup(0x0, touch=False).state == MODIFIED
        assert hier.banks[0].dir.peek(0x0).owner == 1


class TestConcurrency:
    def test_concurrent_reads_same_line_merge(self, hier):
        results = []
        hier.read(0, 0x0, results)
        hier.read(0, 0x10, results)  # same line, merged in L1 MSHR
        hier.run()
        assert len(results) == 2
        assert hier.stats["dram.reads"] == 1

    def test_concurrent_reads_from_different_tiles_serialize_at_bank(self, hier):
        results = []
        hier.read(0, 0x0, results)
        hier.read(1, 0x0, results)
        hier.read(2, 0x0, results)
        hier.run()
        assert len(results) == 3
        assert hier.stats["dram.reads"] == 1  # bank MSHR merged them

    def test_many_independent_lines(self, hier):
        results = []
        for i in range(32):
            hier.read(i % 4, i * 64, results)
        hier.run()
        assert len(results) == 32
        assert hier.stats["dram.reads"] == 32
