"""System and microarchitecture parameters (Table III).

:class:`SystemParams` captures everything the chip builder needs; the
three core presets (IO4 / OOO4 / OOO8) follow Table III. The
:meth:`SystemParams.scaled` helper shrinks every capacity by a common
factor, preserving the working-set-to-cache ratios that drive the
paper's effects while letting test/benchmark runs finish quickly
(DESIGN.md SS6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class CoreParams:
    """One CPU preset from Table III."""

    name: str
    issue_width: int
    window: int  # IQ (in-order) / ROB (out-of-order) instruction window
    lq: int  # load queue entries
    sq: int  # store queue + store buffer entries
    se_fifo_bytes: int  # SE_core stream FIFO capacity
    out_of_order: bool

    def scaled(self, factor: int) -> "CoreParams":
        """Core queues and the SE FIFO are structural (they bound
        run-ahead and MLP, not working sets), so they do not scale."""
        return self


IO4 = CoreParams(
    name="io4", issue_width=4, window=10, lq=4, sq=10,
    se_fifo_bytes=256, out_of_order=False,
)
OOO4 = CoreParams(
    name="ooo4", issue_width=4, window=96, lq=24, sq=24,
    se_fifo_bytes=1024, out_of_order=True,
)
OOO8 = CoreParams(
    name="ooo8", issue_width=8, window=224, lq=72, sq=56,
    se_fifo_bytes=2048, out_of_order=True,
)

CORES = {"io4": IO4, "ooo4": OOO4, "ooo8": OOO8}


@dataclass(frozen=True)
class SystemParams:
    """Full-chip configuration (Table III defaults)."""

    core: CoreParams = OOO8
    cols: int = 8
    rows: int = 8
    # NoC
    link_bits: int = 256
    router_stages: int = 5
    # L1
    l1_size: int = 32 * 1024
    l1_ways: int = 8
    l1_latency: int = 2
    l1_mshrs: int = 16
    # L2 (private)
    l2_size: int = 256 * 1024
    l2_ways: int = 16
    l2_latency: int = 16
    l2_mshrs: int = 32
    # L3 (shared, per bank)
    l3_bank_size: int = 1024 * 1024
    l3_ways: int = 16
    l3_latency: int = 20
    l3_mshrs: int = 32
    l3_interleave: int = 64
    replacement: str = "brrip"
    # DRAM (DDR3-1600, 12.8 GB/s aggregate over 4 corners @ 2 GHz)
    dram_latency: int = 100
    dram_cycles_per_line: int = 40
    # Stream engines
    se_l2_buffer_bytes: int = 16 * 1024
    se_l3_max_streams: int = 768
    se_max_streams_per_core: int = 12
    # Feature flags (which system is being modelled)
    l1_prefetcher: Optional[str] = None  # None | "stride" | "bingo"
    l2_prefetcher: Optional[str] = None  # None | "stride"
    bulk_prefetch: bool = False
    streams_enabled: bool = False  # decoupled-stream ISA (SS)
    floating_enabled: bool = False  # stream floating (SF)
    confluence_enabled: bool = True
    indirect_float_enabled: bool = True
    # Float policy: "static" (the paper's Table II) or "smart"
    # (windowed counters, length/locality gates, mid-run revocation).
    float_policy: str = "static"
    # Per-range FloatPlans (smart policy only): probation L2 prefix /
    # pure-L2 ranges before committing a stream to a remote SE_L3.
    float_plan: bool = False
    # SS V-B alternative: track floated streams' accessed ranges at the
    # SE_L3 and invalidate them on conflicting writes, instead of the
    # uncached-data scheme (the paper's future work, implemented here
    # as an option).
    stream_grain_coherence: bool = False
    # Stride prefetcher knobs (Table III)
    l1_pf_streams: int = 16
    l1_pf_degree: int = 8
    l2_pf_streams: int = 16
    l2_pf_degree: int = 16

    @property
    def num_tiles(self) -> int:
        return self.cols * self.rows

    @property
    def dram_cycles_per_line_effective(self) -> int:
        """Per-controller line service time. Meshes below 4x4 keep the
        paper's per-core DRAM bandwidth share (12.8 GB/s over 64
        cores would starve a 4-core run completely otherwise); 4x4
        and larger use the nominal Table III value."""
        if self.num_tiles >= 16:
            return self.dram_cycles_per_line
        return max(1, self.dram_cycles_per_line * 16 // max(1, self.num_tiles))

    def scaled(self, factor: int) -> "SystemParams":
        """Divide every capacity by ``factor`` (power of two), keeping
        latencies, widths and associativities — the fast-run profile."""
        if factor <= 0 or factor & (factor - 1):
            raise ValueError("scale factor must be a positive power of two")
        if factor == 1:
            return self
        return replace(
            self,
            core=self.core.scaled(factor),
            l1_size=max(1024, self.l1_size // factor),
            # The private L2 shrinks one extra notch: scaled workloads
            # keep the paper's "per-core stream footprint >> L2"
            # regime (full size: 4 MB grids vs 256 kB L2).
            l2_size=max(2048, self.l2_size // (factor * 2)),
            l3_bank_size=max(4096, self.l3_bank_size // factor),
            se_l2_buffer_bytes=max(4096, self.se_l2_buffer_bytes // factor),
        )

    def describe(self) -> str:
        feats = []
        if self.l1_prefetcher:
            feats.append(f"L1-{self.l1_prefetcher}")
        if self.l2_prefetcher:
            feats.append(f"L2-{self.l2_prefetcher}")
        if self.bulk_prefetch:
            feats.append("bulk")
        if self.floating_enabled:
            feats.append("SF")
        elif self.streams_enabled:
            feats.append("SS")
        tag = "+".join(feats) if feats else "base"
        return f"{self.core.name}-{self.cols}x{self.rows}-{tag}"
