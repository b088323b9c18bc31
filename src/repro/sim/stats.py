"""Statistics collection for the simulator.

All components report into one :class:`Stats` tree owned by the chip.
Counters are hierarchical dotted names (``"noc.flits.data"``); this
mirrors gem5's stats organization and makes the experiment harness's
job (grouping, normalizing against a baseline) mechanical.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple


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
