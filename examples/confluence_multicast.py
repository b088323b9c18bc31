#!/usr/bin/env python
"""Stream confluence: merging identical streams into multicasts.

In conv3d every core streams the same input feature map; in
particlefilter's resampling phase every core walks the same
cumulative-weight array. The SE_L3's merge unit detects streams with
identical parameters from cores in the same 2x2 tile block, services
the group with one read, and multicasts the response along a shared
X-Y tree (SS IV-C).

This example quantifies the effect: multicast count, flit-hops saved
by shared tree links, and the end-to-end traffic/cycles differences
with confluence disabled (the ``sf_ind`` configuration floats streams
but never merges them).

Run:  python examples/confluence_multicast.py
"""

from repro.harness.runner import run_once


def main() -> None:
    for wl in ("conv3d", "particlefilter"):
        sf = run_once(wl, "sf", scale=16)
        no_conf = run_once(wl, "sf_ind", scale=16)  # floating, no merge
        saved = sf.stats["noc.multicast.saved_flit_hops"]
        print(f"{wl}:")
        print(f"  confluence groups formed : "
              f"{sf.stats['se_l3.confluences']:.0f}")
        print(f"  multicast responses      : "
              f"{sf.stats['se_l3.multicasts']:.0f}")
        print(f"  flit-hops saved by trees : {saved:,.0f}")
        print(f"  traffic vs no-confluence : "
              f"{sf.flit_hops / max(1, no_conf.flit_hops):.2f}x")
        print(f"  cycles  vs no-confluence : "
              f"{sf.cycles / max(1, no_conf.cycles):.2f}x")
        print()
    print("Confluence turns N identical unicast streams into one")
    print("multicast stream — the paper measures this as conv3d's")
    print("dominant request class (Figure 14).")


if __name__ == "__main__":
    main()
