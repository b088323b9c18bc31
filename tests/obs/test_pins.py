"""Real-run telemetry pins: sha256 digests of everything the pillars
record on four points.

Each point runs once with spans, provenance, interval (period 1000)
and attribution on, and once on a telemetry-off chip that only logs
every stream-lifecycle kind through ``attach(sim).record()``. The
digests cover the Chrome trace events (spans plus decision instants),
the provenance rows, the interval samples, the telemetry summary and
the ``str()`` of every logged event. The points, all at 2x2: mv/sf
(the golden attribution point), stencil_tiled/sf_smart (revocations),
hotspot/sf_plan (the write-heavy workload: follower and revoke
verdicts) and conv3d/sf_plan (floats with plans, which hotspot at
this scale never attaches). Both runs of a point use the shipping
:class:`~repro.sim.kernel.Simulator`, and their digests must match
the pins.

Regenerate with ``python -m tests.obs.test_pins`` after a deliberate
change to what telemetry records.
"""

import hashlib
import json
import os
from typing import Any, Dict

import pytest

from repro.obs.export import chrome_trace_events, provenance_instant_events
from repro.obs.telemetry import TRACE_KINDS, Telemetry, TelemetryConfig, attach
from repro.system.chip import Chip
from repro.system.configs import make_config
from repro.workloads.base import build_programs

PINS = os.path.join(os.path.dirname(__file__), "golden_pins.json")

POINTS: Dict[str, Dict[str, Any]] = {
    "mv-sf": dict(workload="mv", config="sf", scale=64),
    "stencil_tiled-sf_smart": dict(workload="stencil_tiled",
                                   config="sf_smart", scale=32),
    "hotspot-sf_plan": dict(workload="hotspot", config="sf_plan", scale=64),
    "conv3d-sf_plan": dict(workload="conv3d", config="sf_plan", scale=64),
}


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(point: Dict[str, Any], observe) -> Any:
    chip = Chip(make_config(point["config"], core="ooo8", cols=2, rows=2,
                            scale=point["scale"]))
    observed = observe(chip.sim)
    chip.run(build_programs(point["workload"], chip.num_cores,
                            scale=point["scale"], seed=0))
    return observed


def point_digests(name: str) -> Dict[str, str]:
    point = POINTS[name]
    tel = _run(point, lambda sim: Telemetry(sim, TelemetryConfig(
        spans=True, interval=1000, provenance=True, attribution=True)))
    log = _run(point, lambda sim: attach(sim).record(TRACE_KINDS))
    trace = chrome_trace_events(tel.spans, pid=1, point=name)
    trace += provenance_instant_events(tel.provenance, pid=1, point=name)
    return {
        "trace": _digest(trace),
        "provenance": _digest(tel.provenance.to_rows(name)),
        "intervals": _digest(tel.sampler.samples),
        "summary": _digest(tel.summary()),
        "stream_log": _digest([str(ev) for ev in log]),
    }


@pytest.mark.parametrize("name", sorted(POINTS))
def test_real_run_telemetry_is_pinned(name):
    with open(PINS, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    assert point_digests(name) == want


def regenerate_golden() -> None:
    pins = {name: point_digests(name) for name in sorted(POINTS)}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    regenerate_golden()
