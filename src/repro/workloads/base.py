"""Workload infrastructure: virtual-memory layout, the Workload base
class, and the benchmark registry.

Each workload is the hand-compiled stream program for one Table IV
benchmark (standing in for the paper's LLVM pass — see DESIGN.md's
substitution table). A workload builds one
:class:`~repro.workloads.kernel.CoreProgram` per core, parameterized
by a ``scale`` divisor applied to the paper's dataset sizes so that
simulations finish quickly while working sets still exceed the
(equally scaled) private L2.

Conventions:

- dense (vectorizable) streams use 64-byte elements — the AVX-512
  consumption granule, one cache line per ``stream_load``;
- scalar/indirect streams use their natural element size; the SE_L3
  coalesces same-line elements, and indirect responses are sublines;
- stream ids are allocated per phase starting at 0 (12 per core max).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Type

from repro.mem.addr import PAGE_SIZE
from repro.workloads.kernel import CoreProgram


class Layout:
    """Bump allocator for the workload's virtual address space.

    Base addresses are page-aligned and spaced so distinct arrays
    never share a cache line, matching what a real allocator gives
    the compiled benchmarks.
    """

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self.arrays: Dict[str, tuple] = {}

    def alloc(self, name: str, nbytes: int, align: int = PAGE_SIZE) -> int:
        if nbytes <= 0:
            raise ValueError(f"array {name!r} needs a positive size")
        addr = (self._next + align - 1) & ~(align - 1)
        self._next = addr + nbytes
        self.arrays[name] = (addr, nbytes)
        return addr

    def footprint(self) -> int:
        """Total bytes allocated so far."""
        return sum(size for _addr, size in self.arrays.values())


@dataclass
class WorkloadMeta:
    """Registry metadata, including the paper's Table IV description."""

    name: str
    table_iv: str
    has_indirect: bool = False
    has_confluence: bool = False
    stencil: bool = False


class Workload:
    """Base class: subclasses define ``META`` and ``_build``."""

    META: WorkloadMeta

    def __init__(self, num_cores: int, scale: int = 16, seed: int = 0) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.num_cores = num_cores
        self.scale = scale
        self.seed = seed
        self.layout = Layout()

    @cached_property
    def rng(self):
        """numpy generator of random inputs, built from ``seed`` on
        first read, so a workload that draws none never imports numpy."""
        import numpy as np

        return np.random.default_rng(self.seed)

    def build(self) -> Dict[int, CoreProgram]:
        """Programs for every core (same phase count everywhere)."""
        programs = self._build()
        lengths = {len(p) for p in programs.values()}
        if len(lengths) > 1:
            raise AssertionError(
                f"{self.META.name}: cores disagree on phase count ({lengths})"
            )
        return programs


_REGISTRY: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the global registry."""
    name = cls.META.name
    if name in _REGISTRY:
        raise ValueError(f"duplicate workload {name!r}")
    _REGISTRY[name] = cls
    return cls


def workload_names() -> List[str]:
    return sorted(_REGISTRY)


def get_workload(name: str) -> Type[Workload]:
    if name not in _REGISTRY:
        raise KeyError(f"unknown workload {name!r}; have {workload_names()}")
    return _REGISTRY[name]


def build_programs(
    name: str, num_cores: int, scale: int = 16, seed: int = 0,
) -> Dict[int, CoreProgram]:
    """Convenience: instantiate and build a registered workload."""
    return get_workload(name)(num_cores, scale=scale, seed=seed).build()
