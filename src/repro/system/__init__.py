"""Chip assembly: parameters, tiles, the full system and named configs."""

# bench/run.py imports these two names through the package.
from repro.system.chip import Chip
from repro.system.configs import make_config

__all__ = ["Chip", "make_config"]
