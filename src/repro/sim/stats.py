"""Statistics collection for the simulator.

All components report into one :class:`Stats` tree owned by the chip.
Counters are hierarchical dotted names (``"noc.flits.data"``); this
mirrors gem5's stats organization and makes the experiment harness's
job (grouping, normalizing against a baseline) mechanical.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class Stats:
    """A flat map of dotted counter names to numeric values.

    Supports increment (:meth:`add`), overwrite (:meth:`set`) and
    prefix queries (:meth:`group`). Values are ints or floats; missing
    counters read as 0.
    """

    __slots__ = ("_values", "_cells")

    def __init__(self) -> None:
        # A plain dict: reads must never insert keys.
        self._values: Dict[str, float] = {}
        # Interned counter cells (DESIGN.md §12): ``counter(name)``
        # hands out a one-element list whose slot the hot path
        # increments directly; pending deltas fold into _values on
        # every read. Increments are commutative with add(), so a
        # name may be driven through both APIs.
        self._cells: Dict[str, List[float]] = {}

    def counter(self, name: str) -> List[float]:
        """Interned fast counter for ``name``: a one-element list.

        Hot handlers hoist ``cell = stats.counter("x")`` once and pay
        a single ``cell[0] += n`` per event; the pending delta folds
        into the value map on any read. Do not mix with :meth:`set`
        on the same name.
        """
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = [0]
        return cell

    def _flush(self) -> None:
        """Fold pending interned-cell deltas into the value map."""
        values = self._values
        for name, cell in self._cells.items():
            delta = cell[0]
            if delta:
                cell[0] = 0
                values[name] = values.get(name, 0) + delta

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        try:
            self._values[name] += amount
        except KeyError:
            self._values[name] = amount

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name``."""
        self._values[name] = value

    def get(self, name: str, default: float = 0) -> float:
        if self._cells:
            self._flush()
        return self._values.get(name, default)

    def __getitem__(self, name: str) -> float:
        if self._cells:
            self._flush()
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        if self._cells:
            self._flush()
        return name in self._values

    def group(self, prefix: str) -> Dict[str, float]:
        """All counters under ``prefix.`` with the prefix stripped."""
        if self._cells:
            self._flush()
        cut = len(prefix) + 1
        return {
            name[cut:]: value
            for name, value in self._values.items()
            if name.startswith(prefix + ".")
        }

    def items(self) -> Iterator[Tuple[str, float]]:
        if self._cells:
            self._flush()
        return iter(sorted(self._values.items()))

    # Serialization (the disk run-cache stores stats as plain JSON).
    def to_dict(self) -> Dict[str, float]:
        if self._cells:
            self._flush()
        return dict(self._values)

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "Stats":
        stats = cls()
        for name, value in values.items():
            stats._values[name] = value
        return stats

    def dump(self) -> str:
        """Human-readable listing, one counter per line."""
        if self._cells:
            self._flush()
        width = max((len(k) for k in self._values), default=0)
        lines = [f"{k:<{width}}  {v:g}" for k, v in sorted(self._values.items())]
        return "\n".join(lines)


class Histogram:
    """A simple bucketed histogram for latency-style distributions."""

    __slots__ = ("bucket_size", "_buckets", "count", "sum", "_min", "_max")

    def __init__(self, bucket_size: int = 16) -> None:
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.bucket_size = bucket_size
        self._buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def record(self, value: float) -> None:
        self._buckets[int(value) // self.bucket_size] += 1
        self.count += 1
        self.sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def min(self) -> float:
        """Smallest recorded value (0.0 while empty — never ±inf,
        which would poison means and is not JSON-serializable)."""
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        """Largest recorded value (0.0 while empty)."""
        return 0.0 if self._max is None else self._max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted (bucket_start, count) pairs."""
        return sorted(
            (bucket * self.bucket_size, count)
            for bucket, count in self._buckets.items()
        )

    def percentile(self, p: float) -> float:
        """Value at the ``p``-th percentile (0..100), resolved at
        bucket granularity: the inclusive upper edge of the bucket
        holding the ``ceil(count * p / 100)``-th sample, clamped to
        the recorded min/max. Empty histograms read 0.0."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        if p == 0:
            return self.min
        rank = max(1, -(-self.count * p // 100))  # ceil without math
        seen = 0
        for bucket, count in sorted(self._buckets.items()):
            seen += count
            if seen >= rank:
                upper = (bucket + 1) * self.bucket_size - 1
                return min(max(float(upper), self.min), self.max)
        return self.max  # unreachable, defensive

    # Serialization (interval snapshots / span latency distributions
    # ride in the disk run-cache next to Stats).
    def to_dict(self) -> Dict[str, object]:
        return {
            "bucket_size": self.bucket_size,
            "count": self.count,
            "sum": self.sum,
            "min": self._min,
            "max": self._max,
            # JSON object keys are strings; store raw bucket indices.
            "buckets": {str(b): c for b, c in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Histogram":
        hist = cls(bucket_size=int(payload["bucket_size"]))
        hist.count = int(payload["count"])
        hist.sum = float(payload["sum"])
        hist._min = payload.get("min")
        hist._max = payload.get("max")
        for bucket, count in payload.get("buckets", {}).items():
            hist._buckets[int(bucket)] = int(count)
        return hist
