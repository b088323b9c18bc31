"""Stream Floating (HPCA 2021) reproduction.

A pure-Python, discrete-event reproduction of *Stream Floating:
Enabling Proactive and Decentralized Cache Optimizations* (Wang,
Weng, Lowe-Power, Gaur, Nowatzki — HPCA 2021): a tiled-multicore
simulator whose stream engines float decoupled streams into the
shared L3 banks.

Public API tour:

- :func:`repro.system.make_config` — build any of the comparison
  systems named in :data:`repro.system.configs.CONFIG_NAMES`;
- :class:`repro.system.Chip` — assemble and run a chip;
- :func:`repro.workloads.build_programs` — the 12 Table IV
  benchmarks as stream programs;
- :func:`repro.harness.runner.run_once` — one memoized experiment
  point;
- :mod:`repro.harness.experiments` — every figure of the paper's
  evaluation;
- :class:`repro.energy.model.EnergyModel` — the McPAT-substitute
  event-energy model.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
