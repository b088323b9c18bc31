"""Content-addressed on-disk cache of simulation results.

Every experiment point is a pure function of its
:class:`~repro.harness.runner.Point` (workload, config, core, geometry,
link width, interleave, **seed**, telemetry pillars, sanitizer) plus
the simulator code itself. :class:`RunCache` stores one JSON file per
point, keyed by a SHA-256 over ``dataclasses.asdict(point)``, a schema
version and a fingerprint of the ``repro`` package sources, so editing
the simulator (or bumping the schema) invalidates every stale entry
automatically, while re-running the same experiment in a later session
costs a file read instead of a simulation.

Robustness rules:

* corrupt, truncated or hand-edited cache files are treated as misses,
  never as fatal errors;
* entries written by a different code fingerprint or schema are stale
  and ignored;
* writes are atomic (temp file + ``os.replace``), so concurrent
  processes — e.g. two CLI invocations — can share one cache directory
  safely.

Only an entry point (the CLI, the benchmark suite) turns the cache on,
via :func:`repro.harness.runner.configure_disk_cache`, and only
:func:`repro.harness.runner.run_points` reads or fills it; the CLI's
``--cache-dir`` defaults to ``$REPRO_CACHE_DIR``, else
``~/.cache/repro-stream-floating``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from typing import Any, Dict, Optional

import repro

CACHE_SCHEMA = 1

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_fingerprint: Optional[str] = None


def default_cache_dir() -> str:
    """The CLI's default ``--cache-dir``: ``$REPRO_CACHE_DIR``, else an
    XDG-style per-user directory."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(xdg, "repro-stream-floating")


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (computed once per
    process).  Any change to the simulator invalidates the cache."""
    global _fingerprint
    if _fingerprint is None:
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _fingerprint = digest.hexdigest()
    return _fingerprint


def params_digest(params: Dict[str, Any], fingerprint: str) -> str:
    """Content address of one experiment point."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA, "fingerprint": fingerprint, "params": params},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class RunCache:
    """A directory of ``<sha256>.json`` run records."""

    def __init__(self, root: str, fingerprint: Optional[str] = None) -> None:
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()

    def path_for(self, point) -> str:
        return os.path.join(
            self.root, params_digest(asdict(point), self.fingerprint) + ".json"
        )

    def get(self, point):
        """The cached :class:`~repro.harness.runner.RunRecord` of
        ``point``, or ``None`` on any kind of miss."""
        from repro.harness.runner import RunRecord

        try:
            with open(self.path_for(point), "r") as fh:
                payload = json.load(fh)
            if (
                payload.get("schema") != CACHE_SCHEMA
                or payload.get("fingerprint") != self.fingerprint
            ):
                return None
            return RunRecord.from_dict(payload["record"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, corrupt or truncated entries are misses, never
            # fatal.
            return None

    def put(self, record) -> None:
        """Atomically persist ``record`` under its point's digest.
        Failures (read-only dir, disk full) are swallowed: the cache
        is an accelerator, not a correctness dependency."""
        path = self.path_for(record.point)
        payload = {
            "schema": CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "params": asdict(record.point),
            "record": record.to_dict(),
        }
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
