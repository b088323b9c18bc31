#!/usr/bin/env python
"""Indirect floating on a graph workload (bfs).

BFS's inner loop is ``visited[edge_dst[i]]`` — a gather the paper's
evaluated prefetchers cannot follow. With stream floating, the affine
edge stream is offloaded to the L3 banks together with its chained
indirect stream; the remote SE_L3 computes the gather addresses and
only the 4-byte sublines travel back to the core (SS IV-B).

This example contrasts Bingo (a state-of-the-art spatial prefetcher),
SS (streams without floating) and SF on the in-order core, and breaks
the SF traffic down to show the subline savings.

Run:  python examples/graph_indirect.py
"""

from repro.harness.runner import run_once


def main() -> None:
    base = run_once("bfs", "base", core="io4", scale=16)
    print("bfs on IO4 (16 cores, fast profile)\n")
    print(f"{'system':>7s} {'cycles':>10s} {'speedup':>8s} "
          f"{'flit-hops':>11s} {'vs base':>8s}")
    for system in ("base", "bingo", "ss", "sf"):
        rec = run_once("bfs", system, core="io4", scale=16)
        print(f"{system:>7s} {rec.cycles:>10,} "
              f"{base.cycles / rec.cycles:>8.2f} "
              f"{rec.flit_hops:>11,.0f} "
              f"{rec.flit_hops / base.flit_hops:>8.2f}")

    sf = run_once("bfs", "sf", core="io4", scale=16)
    ind = sf.stats["l3.requests_by_source.float_ind"]
    aff = sf.stats["l3.requests_by_source.float_affine"]
    total = sum(
        sf.stats.get(f"l3.requests_by_source.{s}")
        for s in ("core", "core_stream", "float_affine", "float_ind",
                  "float_conf")
    )
    print(f"\nSF request mix: {ind / total:.0%} indirect floating, "
          f"{aff / total:.0%} affine floating")
    print("Each indirect response is a 4-byte subline (1 flit) instead")
    print("of a 64-byte line (3 flits) — the mechanism behind bfs's")
    print("traffic drop in the paper's Figure 15.")


if __name__ == "__main__":
    main()
