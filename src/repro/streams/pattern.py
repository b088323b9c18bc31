"""Stream access patterns: affine (up to 3 nested levels) and indirect.

The decoupled-stream ISA (SS III-A, Table I) encodes an affine stream
as a base address, up to three (stride, length) levels and an element
size. The flat element index ``i`` decomposes mixed-radix over the
level lengths (innermost level first):

    i = i2 * (len1 * len0) + i1 * len0 + i0
    addr(i) = base + i0*strd0 + i1*strd1 + i2*strd2

An indirect stream ``B[A[i] + w]`` (equation 1, SS IV-B) hangs off an
affine *index* stream over A: for each element the index value is read
from the actual workload array, scaled, and offset into B. Because the
simulator is execution-driven at the address level, the indirect
pattern holds a reference to the real (numpy or list) index array so
remote SE_L3s can chain addresses exactly like the hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.mem.addr import LINE_SIZE, line_addr


@dataclass(frozen=True)
class AffinePattern:
    """A (up to) 3-level affine access pattern."""

    base: int
    strides: Tuple[int, ...]  # bytes per step, innermost first
    lengths: Tuple[int, ...]  # trip counts, innermost first
    elem_size: int = 8

    def __post_init__(self) -> None:
        if not (1 <= len(self.strides) <= 3):
            raise ValueError("affine patterns support 1-3 levels")
        if len(self.strides) != len(self.lengths):
            raise ValueError("strides and lengths must align")
        if any(length <= 0 for length in self.lengths):
            raise ValueError("lengths must be positive")
        if self.elem_size <= 0:
            raise ValueError("elem_size must be positive")

    @cached_property
    def _size(self) -> int:
        total = 1
        for length in self.lengths:
            total *= length
        return total

    def __len__(self) -> int:
        return self._size

    def address(self, idx: int) -> int:
        """Virtual address of flat element ``idx``."""
        if not 0 <= idx < self._size:
            raise IndexError(f"element {idx} out of range ({self._size})")
        strides = self.strides
        levels = len(strides)
        if levels == 1:
            return self.base + idx * strides[0]
        lengths = self.lengths
        len0 = lengths[0]
        addr = self.base + (idx % len0) * strides[0]
        idx //= len0
        if levels == 2:
            return addr + idx * strides[1]
        len1 = lengths[1]
        return addr + (idx % len1) * strides[1] + (idx // len1) * strides[2]

    def addresses(self, start: int, count: int) -> List[int]:
        """Addresses of elements ``start .. start+count-1`` (flat order).

        Closed form, with no :meth:`address` call per element: one
        ``range`` for a 1-level pattern, one mixed-radix comprehension
        for 2 or 3 levels.
        """
        if count < 0 or not 0 <= start <= self._size - count:
            raise IndexError(
                f"elements [{start}, {start + count}) out of range "
                f"({self._size})"
            )
        base = self.base
        strides = self.strides
        stop = start + count
        strd0 = strides[0]
        if len(strides) == 1:
            if strd0 == 0:
                return [base] * count
            return list(range(base + start * strd0, base + stop * strd0, strd0))
        len0 = self.lengths[0]
        strd1 = strides[1]
        if len(strides) == 2:
            return [base + i % len0 * strd0 + i // len0 * strd1
                    for i in range(start, stop)]
        len1 = self.lengths[1]
        strd2 = strides[2]
        return [base + i % len0 * strd0 + i // len0 % len1 * strd1
                + i // len0 // len1 * strd2 for i in range(start, stop)]

    def line_run_length(self, idx: int, limit: int) -> int:
        """How many consecutive elements starting at ``idx`` sit on
        ``idx``'s cache line (at least 1, at most ``limit``).

        This is the L3 issue unit's coalescing question (one GetU can
        serve a whole line's worth of subline elements), answered
        closed-form over the innermost affine level instead of one
        :meth:`address` call per element.
        """
        if limit > self._size - idx:
            limit = self._size - idx
        if limit <= 1:
            return max(limit, 1)
        addr = self.address(idx)
        line = addr & ~(LINE_SIZE - 1)
        len0 = self.lengths[0]
        strd0 = self.strides[0]
        row_remaining = len0 - idx % len0
        if strd0 > 0:
            run = -(-(line + LINE_SIZE - addr) // strd0)
        elif strd0 < 0:
            run = (addr - line) // -strd0 + 1
        else:
            run = limit
        count = min(run, row_remaining, limit)
        # A level boundary (or stride 0) may continue on the same
        # line; finish with the generic walk for the rare tail.
        while count < limit and self.address(idx + count) & ~(LINE_SIZE - 1) == line:
            count += 1
        return count

    def footprint_bytes(self) -> int:
        """Size of the touched address range (upper bound: distinct
        bytes assuming dense innermost level)."""
        lo = hi = self.base
        # Evaluate the extreme corners of the iteration space.
        for stride, length in zip(self.strides, self.lengths):
            span = stride * (length - 1)
            if span >= 0:
                hi += span
            else:
                lo += span
        return hi - lo + self.elem_size

    def lines(self) -> List[int]:
        """Distinct cache lines in iteration order (test helper; O(n))."""
        seen: List[int] = []
        last = None
        for addr in self.addresses(0, len(self)):
            line = line_addr(addr)
            if line != last and line not in seen:
                seen.append(line)
            last = line
        return seen

    def same_shape(self, other: "AffinePattern") -> bool:
        """Identical parameters — the stream-confluence merge test
        (SS IV-C compares base, strides, lengths of candidate streams)."""
        return (
            self.base == other.base
            and self.strides == other.strides
            and self.lengths == other.lengths
            and self.elem_size == other.elem_size
        )


@dataclass(frozen=True)
class IndirectPattern:
    """An indirect pattern ``B[A[i] + w]`` chained to an affine stream.

    ``index_array`` is the actual A[] contents (any integer sequence);
    ``index_pattern`` describes how A is walked. The indirect element
    for flat index ``i`` lives at::

        base + index_array[element_index(i)] * scale + field_offset
    """

    base: int
    index_pattern: AffinePattern
    index_array: Sequence[int] = field(hash=False, compare=False)
    scale: int = 8  # B element size the index is scaled by
    field_offset: int = 0  # the "+w" field/window offset
    elem_size: int = 8  # bytes actually consumed per element

    def __post_init__(self) -> None:
        # Negative scales are legal (descending gather targets); only
        # a zero scale (every element at base) is degenerate.
        if self.scale == 0 or self.elem_size <= 0:
            raise ValueError("scale must be nonzero and elem_size positive")

    def __len__(self) -> int:
        return len(self.index_pattern)

    def element_index(self, idx: int) -> int:
        """Logical A[] index for flat element ``idx``."""
        offset = self.index_pattern.address(idx) - self.index_pattern.base
        if offset % self.index_pattern.elem_size:
            raise ValueError("index stream address not element-aligned")
        return offset // self.index_pattern.elem_size

    def index_value(self, idx: int) -> int:
        return int(self.index_array[self.element_index(idx)])

    def address(self, idx: int) -> int:
        """Virtual address of indirect element ``idx``."""
        return self.base + self.index_value(idx) * self.scale + self.field_offset
