"""The pytest configuration keeps tier-1 and the benchmarks apart.

``pytest tests benchmarks`` is the full run. The benchmark conftest
marks its own items ``slow`` and ``no_sanitize``; tier-1 items
collected in the same session must keep their own markers, so
``-m "not slow"`` still selects them and the sanitizer still checks
them.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_markers_stay_in_benchmarks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "-m", "not slow and not no_sanitize",
         "tests/sim/test_stats.py", "benchmarks/test_tables.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    listed = [line for line in proc.stdout.splitlines() if "::" in line]
    assert any(line.startswith("tests/sim/test_stats.py::")
               for line in listed), proc.stdout + proc.stderr
    assert not [line for line in listed if line.startswith("benchmarks/")]
    assert proc.returncode == 0, proc.stdout + proc.stderr
