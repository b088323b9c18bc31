"""S5 determinism pins: the trace hash, trace events and cycles of
fourteen simulation points, kept in one golden file.

The S5 hash (DESIGN.md §7) is a CRC32 over every ``(cycle, handler)``
pair the kernel dispatches, so it moves whenever the event stream
does, even where cycles and stats hold. ``golden_s5.json`` pins it on
two sets of points:

- ``TIER1``: the sanitized runs tier-1 makes anyway, the calendar side
  of ``tests/integration/test_kernel_equivalence.py`` (4x4, scale 8)
  and the sanitized ``Simulator`` runs of
  ``tests/integration/test_mode_matrix.py`` (2x2). Those tests assert
  the pins; no simulation is added for them.
- ``FIGURE``: the fast-profile figure points (4x4, scale 16) and mv/sf
  at the paper's 8x8 geometry (scale 4). These also pin logical
  events and Python calls per logical event, which
  ``benchmarks/test_s5_pins.py`` gates in the slow tier.

Every chip is built here, never through ``run_once``, so no run
cache can satisfy a pin.

Regenerate every pin with ``python -m tests.sim.s5_pins`` after a
deliberate change to the event stream, and say why in the change.
"""

import cProfile
import json
import os
import re
from typing import Any, Callable, Dict, Tuple

from repro.sim.sanitizer import Sanitizer
from repro.system.chip import Chip
from repro.system.configs import make_config
from repro.workloads.base import build_programs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_s5.json")

_NAME = re.compile(r"(\w+)/(\w+)@(\d+)x(\d+)s(\d+)$")


def point_name(workload: str, config: str, cols: int, rows: int, scale: int) -> str:
    """A pinned point's name, e.g. ``mv/sf@4x4s16`` (OOO8, seed 0)."""
    return f"{workload}/{config}@{cols}x{rows}s{scale}"


TIER1 = [point_name(w, c, 4, 4, 8) for w, c in (
    ("mv", "sf"), ("mv", "base"), ("conv3d", "sf"), ("bfs", "sf"),
)] + [
    point_name("mv", "sf", 2, 2, 64),
    point_name("stencil_tiled", "sf_smart", 2, 2, 32),  # the adaptive policy
]

FIGURE = [point_name(w, c, 4, 4, 16) for w, c in (
    ("mv", "sf"), ("mv", "base"), ("conv3d", "sf"), ("bfs", "sf"),
    ("pathfinder", "sf"), ("hotspot", "sf"), ("stencil_tiled", "sf_smart"),
)] + [point_name("mv", "sf", 8, 8, 4)]


def build(name: str) -> Tuple[Chip, Any]:
    """A fresh chip and its programs for one point (a Chip runs once)."""
    workload, config, cols, rows, scale = _NAME.match(name).groups()
    chip = Chip(make_config(config, core="ooo8", cols=int(cols),
                            rows=int(rows), scale=int(scale)))
    programs = build_programs(workload, chip.num_cores, scale=int(scale),
                              seed=0)
    return chip, programs


def observed(stats: Dict[str, float]) -> Dict[str, int]:
    """The pinned S5 values in a sanitized run's stats dict."""
    return {
        "trace_hash": int(stats["sanitizer.trace_hash"]),
        "trace_events": int(stats["sanitizer.trace_events"]),
        "cycles": int(stats["chip.cycles"]),
    }


def s5(name: str) -> Dict[str, int]:
    """Run one point with a Sanitizer attached, unless one is already."""
    chip, programs = build(name)
    if chip.sim.sanitizer is None:
        Sanitizer(chip.sim)
    chip.run(programs)
    return observed(chip.stats.to_dict())


def pinned(name: str) -> Dict[str, Any]:
    """One point's pins; a point with no pin raises KeyError."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[name]


def count_calls(fn: Callable[[], Any]) -> int:
    """The Python calls ``fn()`` makes, summed per code object.

    ``pstats`` keys a function by ``(file, line, name)``. Every
    ``__init__`` and ``__eq__`` that ``dataclasses`` generates has the
    key ``("<string>", 2, ...)``, so ``pstats.Stats.total_calls`` keeps
    whichever one the profiler lists last and drops the rest.
    ``getstats()`` has one entry per code object.
    """
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(entry.callcount for entry in prof.getstats())


def calls_per_event(name: str) -> Tuple[float, int]:
    """Python calls per logical event of one point, and its logical
    events."""
    chip, programs = build(name)
    calls = count_calls(lambda: chip.run(programs))
    events = chip.sim.events_executed
    return calls / events, events


def regenerate_golden() -> None:
    pins = {name: s5(name) for name in TIER1 + FIGURE}
    for name in FIGURE:
        per_event, events = calls_per_event(name)
        pins[name].update(events=events, calls_per_event=round(per_event, 2))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    regenerate_golden()
