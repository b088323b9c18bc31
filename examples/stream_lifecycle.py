#!/usr/bin/env python
"""Watch a floated stream's life: float -> migrate -> ... -> end.

Records the floated-stream events of an SF chip running the mv kernel
from the telemetry bus and prints the first float/sink/migration/end
events, then the per-kind totals. Useful both for understanding the mechanism and for
debugging new workloads: a stream that floats and immediately sinks,
or that migrates every few elements, shows up here at a glance.

Run:  python examples/stream_lifecycle.py
"""

from collections import Counter

from repro.obs.telemetry import TRACE_KINDS, attach
from repro.system import Chip, make_config
from repro.workloads import build_programs


def main() -> None:
    chip = Chip(make_config("sf", core="ooo8", cols=4, rows=4, scale=16))
    events = attach(chip.sim).record(("float", "sink", "migrate", "end"))
    programs = build_programs("mv", chip.num_cores, scale=16)
    result = chip.run(programs)

    print("first 20 stream events:")
    for ev in list(events)[:20]:
        print(" ", ev)
    print("\nevent totals:")
    counts = Counter(ev.kind for ev in events)
    for kind in TRACE_KINDS:
        print(f"{kind:<12} {counts.get(kind, 0):>8}")
    print(f"\nrun: {result.cycles:,} cycles, "
          f"{result.stats['l3.requests.stream_float']:.0f} SE_L3 requests, "
          f"{result.stats['se_l3.migrations_out']:.0f} migrations")
    print("\nReading it: the matrix stream floats at configuration "
          "(footprint >> L2);\nthe x vector floats from history, then "
          "sinks once its second pass starts\nhitting the private "
          "caches — exactly the paper's float/sink policy (SS IV-D).")


if __name__ == "__main__":
    main()
