"""Layers of the simulator and the grouping of a cProfile profile by them.

A layer is a set of ``repro`` modules. :data:`LAYERS` lists every module
of ``src/repro`` exactly once; ``test_bench.py`` fails when a module is
missing or listed twice, so a new module has to be placed on purpose
instead of landing in ``other`` unseen.

:func:`group_profile` charges each profiled function's self time and
call count to the layer of its module. Functions outside ``repro`` (C
builtins, the standard library, numpy) have no layer of their own: they
are charged to the layers that called them, using the per-caller split
cProfile records for every function.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

# Module patterns are dotted names; ``pkg.*`` means the package itself
# and every module under it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("repro.sim.kernel", "repro.sim.fastpath"),
    "sim.stats": ("repro.sim.stats",),
    "noc": ("repro.noc.network", "repro.noc.message", "repro.noc.topology"),
    "mem.l1": ("repro.mem.l1",),
    "mem.l2": ("repro.mem.l2",),
    "mem.l3": ("repro.mem.l3",),
    "mem.dram": ("repro.mem.dram",),
    "mem.mshr": ("repro.mem.mshr",),
    "mem.coherence": ("repro.mem.coherence",),
    "mem.cache": ("repro.mem.cache", "repro.mem.replacement",
                  "repro.mem.addr", "repro.mem.tlb"),
    "streams.se_core": ("repro.streams.se_core",),
    "streams.se_l2": ("repro.streams.se_l2",),
    "streams.se_l3": ("repro.streams.se_l3",),
    "streams.history": ("repro.streams.history",),
    "streams.pattern": ("repro.streams.pattern", "repro.streams.isa",
                        "repro.streams.messages", "repro.streams.plan"),
    "cpu": ("repro.cpu.*",),
    "prefetch": ("repro.prefetch.*",),
    # The lazy iteration generators the cores pull from while running.
    "workloads": ("repro.workloads.*",),
    "system": ("repro.system.chip", "repro.system.tile"),
    # Package re-export modules, configuration, instrumentation and the
    # experiment harness: none of it should run inside Chip.run on the
    # shipping path, so a visible share here is itself a finding.
    "other": ("repro", "repro.mem", "repro.noc", "repro.sim",
              "repro.streams", "repro.system", "repro.sim.sanitizer",
              "repro.sim.trace", "repro.system.configs",
              "repro.system.params", "repro.energy.*", "repro.harness.*",
              "repro.obs.*"),
}

OTHER = "other"


def _matches(module: str, pattern: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of(module: str) -> List[str]:
    """Every layer whose patterns match ``module`` (exactly one when the
    map is complete)."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(module, p) for p in patterns)]


def module_name(path: str, src_root: str) -> Optional[str]:
    """Dotted name of the module in source file ``path`` under
    ``src_root`` (the directory holding the ``repro`` package), or None
    for a file outside it."""
    rel = os.path.relpath(path, src_root)
    if not rel.endswith(".py") or rel.startswith(".."):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_modules(src_root: str) -> Iterable[str]:
    """The dotted name of every ``repro`` module under ``src_root``."""
    for dirpath, dirnames, filenames in os.walk(os.path.join(src_root, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield module_name(os.path.join(dirpath, name), src_root)


# pstats caller-entry fields: (primitive calls, calls, self time, cumulative time).
_CALLS, _SELF, _CUMULATIVE = 1, 2, 3


def group_profile(
    stats: Dict, src_root: str,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self seconds and call counts of a profile.

    ``stats`` is ``pstats.Stats(profile).stats``. A function outside
    ``repro`` splits its self time (calls) over its callers in the
    proportion cProfile recorded per caller. A caller that is itself
    outside ``repro`` passes its part on to its own callers, weighted by
    the cumulative time (calls) each of them spent in it. Whatever no
    ``repro`` caller accounts for (calls from outside the profile, call
    cycles among outside functions) is charged to ``other``. Both sums
    therefore equal the profile's totals.
    """
    owner: Dict[Tuple, Optional[str]] = {}
    for func in stats:
        module = module_name(func[0], src_root)
        if module is not None:
            found = layers_of(module)
            owner[func] = found[0] if len(found) == 1 else OTHER
        else:
            owner[func] = None

    def caused_by(func, field, memo, active) -> Dict[str, float]:
        """Share of outside function ``func``'s work each layer caused."""
        if func in memo:
            return memo[func]
        active.add(func)
        weights = [(caller, entry[field])
                   for caller, entry in sorted(stats[func][4].items())
                   if caller not in active and caller in stats]
        total = sum(w for _, w in weights)
        shares: Dict[str, float] = defaultdict(float)
        if total <= 0:
            shares[OTHER] = 1.0
        for caller, weight in weights:
            if weight <= 0:
                continue
            layer = owner[caller]
            if layer is not None:
                shares[layer] += weight / total
            else:
                for up, share in caused_by(
                        caller, field, memo, active).items():
                    shares[up] += weight / total * share
        active.discard(func)
        memo[func] = shares
        return shares

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    memos = {_CUMULATIVE: {}, _CALLS: {}}
    for func, (_cc, nc, tt, _ct, callers) in sorted(stats.items()):
        layer = owner[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for totals, amount, field, upstream in (
            (self_s, tt, _SELF, _CUMULATIVE), (calls, nc, _CALLS, _CALLS),
        ):
            charged = 0.0
            for caller, entry in sorted(callers.items()):
                part = entry[field]
                if part <= 0 or caller not in stats:
                    continue
                charged += part
                if owner[caller] is not None:
                    totals[owner[caller]] += part
                else:
                    for up, share in caused_by(
                            caller, upstream, memos[upstream], {func}).items():
                        totals[up] += part * share
            totals[OTHER] += amount - charged
    return self_s, calls
