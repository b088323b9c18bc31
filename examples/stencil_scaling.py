#!/usr/bin/env python
"""Stencil scaling study: where does stream floating pay off?

Runs the hotspot thermal stencil across mesh sizes and compares the
stream-specialized system (SS — streams prefetch but stay cached)
against stream floating (SF — row streams float to the L3 banks and
the SE_L2 serves the shifted north/centre copies from one buffered
stream). Reports the SF/SS speedup, NoC traffic ratio, and the L2
no-reuse eviction fraction that floating eliminates.

This reproduces the mechanism behind the paper's Figure 18: floating
helps most when the working set lives in the L3 and the private L2
would otherwise thrash on pass-through data.

Run:  python examples/stencil_scaling.py
"""

from repro.harness.runner import run_once


def main() -> None:
    print(f"{'mesh':>6s} {'SS cycles':>12s} {'SF cycles':>12s} "
          f"{'SF/SS':>7s} {'traffic':>8s} {'SS noreuse-evict':>17s}")
    for cols, rows in ((2, 2), (4, 4), (4, 8)):
        ss = run_once("hotspot", "ss", cols=cols, rows=rows, scale=16)
        sf = run_once("hotspot", "sf", cols=cols, rows=rows, scale=16)
        evictions = ss.stats["l2.evictions"]
        noreuse = ss.stats["l2.evictions_noreuse"]
        frac = noreuse / evictions if evictions else 0.0
        print(f"{cols}x{rows:<4d} {ss.cycles:>12,} {sf.cycles:>12,} "
              f"{ss.cycles / sf.cycles:>7.2f} "
              f"{sf.flit_hops / max(1, ss.flit_hops):>8.2f} "
              f"{frac:>17.2f}")
    print("\ntraffic = SF flit-hops / SS flit-hops (lower is better).")
    print("Floated rows never enter the private caches, so the no-")
    print("reuse evictions (and their coherence traffic) disappear.")


if __name__ == "__main__":
    main()
