"""Tables I-IV: the paper's non-figure artifacts, regenerated.

- Table I: stream configuration packet sizes (450-bit affine, +60 per
  indirect stream; under one cache line).
- Table II: stream history table fields.
- Table III: system parameters (the defaults of SystemParams).
- Table IV: workload dataset parameters (full-size and the scaled
  profile actually simulated).
"""

from repro.streams.history import HistoryEntry
from repro.streams.isa import (
    AFFINE_CONFIG_BITS,
    AFFINE_FIELDS,
    INDIRECT_CONFIG_BITS,
    INDIRECT_FIELDS,
)
from repro.system.params import CORES, SystemParams
from repro.workloads import ALL_WORKLOADS, get_workload

from conftest import emit, run_figure


def test_table1_config_encoding(benchmark):
    def build():
        lines = ["Table I: stream configuration packet"]
        for field, bits in AFFINE_FIELDS.items():
            lines.append(f"  affine.{field:8s} {bits:4d} bits")
        lines.append(f"  affine total   {AFFINE_CONFIG_BITS} bits "
                     f"(paper: 450, < one 512-bit line)")
        for field, bits in INDIRECT_FIELDS.items():
            lines.append(f"  indirect.{field:6s} {bits:4d} bits")
        lines.append(f"  indirect total {INDIRECT_CONFIG_BITS} bits (paper: 60)")
        return "\n".join(lines)

    text = run_figure(benchmark, build)
    emit("table1_config", text)
    assert AFFINE_CONFIG_BITS == 450
    assert AFFINE_CONFIG_BITS < 512
    assert INDIRECT_CONFIG_BITS == 60


def test_table2_history_fields(benchmark):
    def build():
        ent = HistoryEntry(sid=0)
        fields = sorted(vars(ent))
        return "Table II: stream history table fields: " + ", ".join(fields)

    text = run_figure(benchmark, build)
    emit("table2_history", text)
    ent = HistoryEntry(sid=0)
    for field in ("sid", "requests", "reuses", "misses", "aliased"):
        assert hasattr(ent, field)


def test_table3_system_params(benchmark):
    def build():
        p = SystemParams()
        lines = ["Table III: default system parameters (paper values)"]
        lines.append(f"  mesh              {p.cols}x{p.rows}")
        lines.append(f"  link              {p.link_bits}-bit, "
                     f"{p.router_stages}-stage router")
        lines.append(f"  L1D               {p.l1_size // 1024}kB/"
                     f"{p.l1_ways}-way, {p.l1_latency}-cycle")
        lines.append(f"  L2                {p.l2_size // 1024}kB/"
                     f"{p.l2_ways}-way, {p.l2_latency}-cycle")
        lines.append(f"  L3 bank           {p.l3_bank_size // 1024}kB/"
                     f"{p.l3_ways}-way, {p.l3_latency}-cycle, "
                     f"{p.l3_interleave}B interleave, {p.replacement}")
        lines.append(f"  SE_L2 buffer      {p.se_l2_buffer_bytes // 1024}kB")
        lines.append(f"  SE_L3 streams     {p.se_l3_max_streams}")
        for name, core in CORES.items():
            lines.append(
                f"  {name:6s} width={core.issue_width} window={core.window} "
                f"LQ={core.lq} SQ={core.sq} FIFO={core.se_fifo_bytes}B"
            )
        return "\n".join(lines)

    text = run_figure(benchmark, build)
    emit("table3_params", text)
    p = SystemParams()
    assert (p.cols, p.rows) == (8, 8)
    assert p.l2_size == 256 * 1024
    assert p.l3_bank_size == 1024 * 1024
    assert p.se_l2_buffer_bytes == 16 * 1024
    assert p.se_l3_max_streams == 768
    assert CORES["io4"].se_fifo_bytes == 256
    assert CORES["ooo8"].se_fifo_bytes == 2048


def test_table4_datasets(benchmark):
    def build():
        lines = ["Table IV: workload datasets (paper / simulated scale 16)"]
        for name in ALL_WORKLOADS:
            cls = get_workload(name)
            wl = cls(num_cores=16, scale=16)
            wl.build()
            footprint = wl.layout.footprint()
            lines.append(
                f"  {name:15s} paper: {cls.META.table_iv:35s} "
                f"scaled footprint: {footprint // 1024} kB"
            )
        return "\n".join(lines)

    text = run_figure(benchmark, build)
    emit("table4_datasets", text)
    # Every workload builds, and scaled footprints sit in the regime
    # the paper targets: bigger than the scaled private L2 (8 kB).
    for name in ALL_WORKLOADS:
        wl = get_workload(name)(num_cores=16, scale=16)
        wl.build()
        assert wl.layout.footprint() > 8 * 1024, name
