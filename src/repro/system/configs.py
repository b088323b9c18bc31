"""Named system configurations — the paper's comparison set (SS VI).

===============  ====================================================
name             system
===============  ====================================================
base             no prefetching
stride           L1 stride + L2 stride prefetchers
bingo            L1 Bingo spatial + L2 stride prefetchers
bulk             stride prefetchers with bulk request grouping
                 (requires >64 B interleaving; traffic study only)
ss               stream-specialized core (decoupled-stream ISA,
                 no floating)
sf               stream floating (1 kB L3 interleaving by default)
sf_aff           floating with only affine streams (Figure 15)
sf_ind           affine + indirect floating, no confluence
sf_sgc           full sf plus stream-grain coherence tracking
                 (SS V-B)
sf_smart         sf with the adaptive float policy (windowed
                 counters, length/locality gates, revocation)
sf_plan          sf_smart plus per-range FloatPlans (probation L2
                 prefixes, midway/deferred configs)
===============  ====================================================

Every builder takes the core preset name ("io4" / "ooo4" / "ooo8"),
mesh dimensions, and a capacity ``scale`` (see
:meth:`~repro.system.params.SystemParams.scaled`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.system.params import CORES, SystemParams

CONFIG_NAMES = (
    "base", "stride", "bingo", "bulk", "ss", "sf", "sf_aff", "sf_ind",
    "sf_sgc", "sf_smart", "sf_plan",
)

# The paper runs SF with 1 kB interleaving to curb migrations (SS VI);
# all other systems use the 64 B default from Table III.
SF_INTERLEAVE = 1024
BULK_INTERLEAVE = 256


def make_config(
    name: str,
    core: str = "ooo8",
    cols: int = 8,
    rows: int = 8,
    scale: int = 1,
    link_bits: int = 256,
    l3_interleave: Optional[int] = None,
) -> SystemParams:
    """Build the named system configuration."""
    if core not in CORES:
        raise ValueError(f"unknown core {core!r} (have {sorted(CORES)})")
    base = SystemParams(
        core=CORES[core], cols=cols, rows=rows, link_bits=link_bits,
    )
    if name == "base":
        params = base
    elif name == "stride":
        params = replace(base, l1_prefetcher="stride", l2_prefetcher="stride")
    elif name == "bingo":
        params = replace(base, l1_prefetcher="bingo", l2_prefetcher="stride")
    elif name == "bulk":
        params = replace(
            base, l1_prefetcher="stride", l2_prefetcher="stride",
            bulk_prefetch=True,
            l3_interleave=l3_interleave or BULK_INTERLEAVE,
        )
    elif name == "ss":
        params = replace(base, streams_enabled=True)
    elif name == "sf":
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    elif name == "sf_aff":
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            confluence_enabled=False, indirect_float_enabled=False,
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    elif name == "sf_ind":
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            confluence_enabled=False, indirect_float_enabled=True,
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    elif name == "sf_smart":
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            float_policy="smart",
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    elif name == "sf_plan":
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            float_policy="smart", float_plan=True,
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    elif name == "sf_sgc":
        # SS V-B: full SF plus stream-grain coherence tracking.
        params = replace(
            base, streams_enabled=True, floating_enabled=True,
            stream_grain_coherence=True,
            l3_interleave=l3_interleave or SF_INTERLEAVE,
        )
    else:
        raise ValueError(f"unknown config {name!r} (have {CONFIG_NAMES})")
    if l3_interleave is not None:
        params = replace(params, l3_interleave=l3_interleave)
    return params.scaled(scale)
