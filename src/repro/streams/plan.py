"""Per-element-range float plans (gem-forge's ``StreamFloatPlan``).

A classic float is all-or-nothing from ``start_idx``: every remaining
element is served by a remote SE_L3. A :class:`FloatPlan` generalizes
this to *change points* — element indices where the stream's serving
level switches — so one stream can run

    private caches -> float-to-L2 -> float-to-L3

over different element ranges. Three levels exist:

- :data:`CORE` — the element issues through the normal private-cache
  path (no floating);
- :data:`L2` — the SE_L2 prefetches the range into its stream buffer
  through the local L2 (cacheable; no remote SE_L3 involved);
- :data:`L3` — the classic decentralized path: a FloatConfig installs
  the range at the home SE_L3 bank and data streams back uncached.

Plans are carried end-to-end: ``se_core._float`` attaches one,
``se_l2.float_stream`` splits it into the L2-prefetch range and the
L3 range (deferring the FloatConfig until the consumer approaches a
midway L3 range), and ``se_l3._configure`` truncates the resident
stream to its L3 range. The wire cost is
:data:`~repro.streams.isa.PLAN_POINT_BITS` per change point beyond
the first (the first is the config's existing ``start_idx``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.streams.isa import PLAN_POINT_BITS

CORE = "core"
L2 = "l2"
L3 = "l3"

LEVELS = (CORE, L2, L3)


class FloatPlan:
    """Sorted change points mapping element ranges to float levels.

    Elements before the first change point are implicitly
    :data:`CORE`. ``add_change_point`` entries are merged and sorted
    by :meth:`finalize` (idempotent; queries finalize lazily).
    """

    __slots__ = ("_points", "_starts", "_levels")

    def __init__(
        self, points: Optional[List[Tuple[int, str]]] = None,
    ) -> None:
        self._points: Dict[int, str] = {}
        self._starts: List[int] = []
        self._levels: List[str] = []
        if points:
            for elem, level in points:
                self.add_change_point(elem, level)
            self.finalize()

    def add_change_point(self, elem: int, level: str) -> "FloatPlan":
        if level not in LEVELS:
            raise ValueError(f"unknown float level {level!r}")
        if elem < 0:
            raise ValueError("change points are element indices (>= 0)")
        self._points[elem] = level  # last writer wins
        self._starts = []
        return self

    def finalize(self) -> "FloatPlan":
        """Sort the change points and merge adjacent same-level runs."""
        starts: List[int] = []
        levels: List[str] = []
        for elem in sorted(self._points):
            level = self._points[elem]
            prev = levels[-1] if levels else CORE
            if level == prev:
                continue  # no level change: merge into the prior run
            starts.append(elem)
            levels.append(level)
        self._starts = starts
        self._levels = levels
        return self

    def _ensure(self) -> None:
        if not self._starts and self._points:
            self.finalize()

    def delay_until(self, first: int) -> "FloatPlan":
        """gem-forge ``delayFloatUntil``: everything before ``first``
        runs on the core; the level active at ``first`` re-anchors
        there. Used when the float decision lands mid-stream."""
        level = self.level_at(first)
        self._points = {
            e: lv for e, lv in self._points.items() if e > first
        }
        if level != CORE:
            self._points[first] = level
        return self.finalize()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def level_at(self, idx: int) -> str:
        self._ensure()
        pos = bisect_right(self._starts, idx) - 1
        return self._levels[pos] if pos >= 0 else CORE

    def first_float_elem(self) -> Optional[int]:
        """First element served away from the core (midway floating)."""
        self._ensure()
        for start, level in zip(self._starts, self._levels):
            if level != CORE:
                return start
        return None

    def first_at(self, level: str) -> Optional[int]:
        """First element of the first ``level`` range, if any."""
        self._ensure()
        if level == CORE and (not self._starts or self._starts[0] > 0):
            return 0  # the implicit leading CORE run
        for start, lv in zip(self._starts, self._levels):
            if lv == level:
                return start
        return None

    def run_end(self, idx: int, default: int) -> int:
        """End (exclusive) of the contiguous same-level run at ``idx``
        (``default``: the run extends to the end of the stream)."""
        self._ensure()
        pos = bisect_right(self._starts, idx)
        return self._starts[pos] if pos < len(self._starts) else default

    def next_edge(self, idx: int) -> Optional[int]:
        """Next change point strictly after ``idx``, if any."""
        self._ensure()
        pos = bisect_right(self._starts, idx)
        return self._starts[pos] if pos < len(self._starts) else None

    def ranges(self) -> List[Tuple[int, str]]:
        """(start, level) runs in element order (implicit CORE run at
        0 omitted)."""
        self._ensure()
        return list(zip(self._starts, self._levels))

    # ------------------------------------------------------------------
    # wire cost / observability
    # ------------------------------------------------------------------
    def extra_bits(self) -> int:
        """Config-packet bits beyond a classic float (whose single
        change point is the existing ``start_idx`` field)."""
        self._ensure()
        return max(0, len(self._starts) - 1) * PLAN_POINT_BITS

    def to_dict(self) -> Dict[str, List]:
        return {"points": [[s, lv] for s, lv in self.ranges()]}

    def describe(self) -> str:
        self._ensure()
        if not self._starts:
            return "core@0"
        return " ".join(
            f"{lv}@{s}" for s, lv in zip(self._starts, self._levels)
        )
