"""Tests for system parameters (Table III) and named configs."""

import pytest

from repro.system.configs import CONFIG_NAMES, make_config
from repro.system.params import IO4, OOO4, OOO8, SystemParams


class TestTable3Defaults:
    def test_mesh_and_noc(self):
        p = SystemParams()
        assert p.num_tiles == 64
        assert p.link_bits == 256
        assert p.router_stages == 5

    def test_cache_sizes(self):
        p = SystemParams()
        assert p.l1_size == 32 * 1024 and p.l1_ways == 8 and p.l1_latency == 2
        assert p.l2_size == 256 * 1024 and p.l2_ways == 16 and p.l2_latency == 16
        assert p.l3_bank_size == 1024 * 1024 and p.l3_latency == 20
        assert p.replacement == "brrip"

    def test_core_presets(self):
        assert IO4.issue_width == 4 and not IO4.out_of_order
        assert OOO4.window == 96 and OOO4.lq == 24
        assert OOO8.issue_width == 8 and OOO8.window == 224 and OOO8.lq == 72
        assert IO4.se_fifo_bytes == 256
        assert OOO4.se_fifo_bytes == 1024
        assert OOO8.se_fifo_bytes == 2048

    def test_stream_engine_sizes(self):
        p = SystemParams()
        assert p.se_l2_buffer_bytes == 16 * 1024
        assert p.se_l3_max_streams == 768  # 12 x 64
        assert p.se_max_streams_per_core == 12


class TestScaling:
    def test_scaled_shrinks_capacities_keeps_latencies(self):
        p = SystemParams().scaled(16)
        assert p.l1_size == 2 * 1024
        assert p.l2_size == 8 * 1024  # extra notch (DESIGN.md)
        assert p.l3_bank_size == 64 * 1024
        assert p.l1_latency == 2 and p.l2_latency == 16
        assert p.core.se_fifo_bytes == 2048  # structural: unscaled

    def test_scale_one_is_identity(self):
        p = SystemParams()
        assert p.scaled(1) is p

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            SystemParams().scaled(3)
        with pytest.raises(ValueError):
            SystemParams().scaled(0)

    def test_floors_respected(self):
        p = SystemParams().scaled(1024)
        assert p.l1_size >= 1024
        assert p.l2_size >= 2048


class TestNamedConfigs:
    def test_all_names_build(self):
        for name in CONFIG_NAMES:
            p = make_config(name, cols=2, rows=2, scale=16)
            assert p.num_tiles == 4

    def test_base_has_nothing(self):
        p = make_config("base")
        assert p.l1_prefetcher is None
        assert not p.streams_enabled and not p.floating_enabled

    def test_bingo_config(self):
        p = make_config("bingo")
        assert p.l1_prefetcher == "bingo"
        assert p.l2_prefetcher == "stride"

    def test_sf_uses_1kb_interleave(self):
        assert make_config("sf").l3_interleave == 1024
        assert make_config("base").l3_interleave == 64

    def test_sf_variants(self):
        aff = make_config("sf_aff")
        assert aff.floating_enabled
        assert not aff.confluence_enabled
        assert not aff.indirect_float_enabled
        ind = make_config("sf_ind")
        assert ind.indirect_float_enabled
        assert not ind.confluence_enabled

    def test_bulk_requires_coarse_interleave(self):
        p = make_config("bulk")
        assert p.bulk_prefetch
        assert p.l3_interleave > 64

    def test_interleave_override(self):
        p = make_config("sf", l3_interleave=4096)
        assert p.l3_interleave == 4096

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_config("hyperspeed")
        with pytest.raises(ValueError):
            make_config("base", core="z80")

    def test_describe(self):
        assert "SF" in make_config("sf").describe()
        assert "base" in make_config("base").describe()
