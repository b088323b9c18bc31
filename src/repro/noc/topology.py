"""2-D mesh topology with X-Y dimension-order routing.

Tiles are numbered row-major: tile ``t`` sits at column ``t % cols``
and row ``t // cols``. Links are unidirectional; the link from tile
``a`` to an adjacent tile ``b`` is identified by the pair ``(a, b)``.

X-Y routing (the paper's Table III) routes along the X dimension first,
then Y, which is deadlock-free and deterministic — and is also what
makes the 2x2-block restriction on stream confluence sensible: streams
from nearby tiles share most of their path, so multicast saves hops.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

Link = Tuple[int, int]


class Mesh:
    """Geometry and routing for a ``cols`` x ``rows`` mesh."""

    def __init__(self, cols: int, rows: int) -> None:
        if cols <= 0 or rows <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.cols = cols
        self.rows = rows
        self.num_tiles = cols * rows
        # One tuple per physical link, shared by every route through it.
        self._links: Dict[Link, Link] = {}

    def coords(self, tile: int) -> Tuple[int, int]:
        """(x, y) coordinates of ``tile``."""
        self._check(tile)
        return tile % self.cols, tile // self.cols

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise ValueError(f"({x}, {y}) outside {self.cols}x{self.rows} mesh")
        return y * self.cols + x

    def _check(self, tile: int) -> None:
        if not (0 <= tile < self.num_tiles):
            raise ValueError(f"tile {tile} outside mesh of {self.num_tiles}")

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[Link]:
        """X-Y route as an ordered list of unidirectional links.

        Every route through a physical link holds the same tuple.
        """
        self._check(src)
        self._check(dst)
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        while x != dx:
            x += 1 if dx > x else -1
            path.append(self.tile_at(x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append(self.tile_at(x, y))
        shared = self._links
        return [shared.setdefault(link, link) for link in zip(path, path[1:])]

    def multicast_tree(self, src: int, dsts: Iterable[int]) -> Dict[int, List[Link]]:
        """Per-destination X-Y routes sharing a common prefix tree.

        Returns ``{dst: route}`` where routes follow X-Y order, so any
        two routes share their common prefix. The set of *unique* links
        across all routes is the multicast tree the router would
        traverse once per link.
        """
        return {dst: self.route(src, dst) for dst in set(dsts)}

    @staticmethod
    def unique_links(routes: Dict[int, List[Link]]) -> Set[Link]:
        """Distinct links across a multicast route set."""
        links: Set[Link] = set()
        for route in routes.values():
            links.update(route)
        return links

    @property
    def num_links(self) -> int:
        """Total unidirectional links in the mesh."""
        horizontal = 2 * (self.cols - 1) * self.rows
        vertical = 2 * (self.rows - 1) * self.cols
        return horizontal + vertical

    def corners(self) -> List[int]:
        """Corner tiles, where the memory controllers sit (Table III)."""
        return [
            self.tile_at(0, 0),
            self.tile_at(self.cols - 1, 0),
            self.tile_at(0, self.rows - 1),
            self.tile_at(self.cols - 1, self.rows - 1),
        ]

    def block_of(self, tile: int, block: int = 2) -> Tuple[int, int]:
        """Which ``block`` x ``block`` tile-block contains ``tile``.

        Stream confluence only merges streams whose requesting tiles
        fall in the same 2x2 block (SS IV-C).
        """
        x, y = self.coords(tile)
        return x // block, y // block
