"""Discrete-event simulation kernel, statistics and the sanitizer."""

from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer, SanitizerError
from repro.sim.stats import Stats

__all__ = [
    "Simulator",
    "Sanitizer",
    "SanitizerError",
    "Stats",
]
