#!/usr/bin/env python3
"""Shipping-path benchmark: host time, memory and model results per workload.

Usage (from the repository root)::

    python3 bench/run.py                       # all workloads, with the traced rep
    python3 bench/run.py --workload mv-base --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh child process, one at a time, pinned to
one CPU, on the configuration that ships: calendar kernel, fast paths
and message pooling on, sanitizer and telemetry off. The child is a
closed loop: it builds a chip, runs it to completion, and repeats until
``--seconds`` have passed (at least one rep). End-to-end metrics come
only from these untraced reps. Their host times are scaled to a
reference host speed that ``hostspeed`` samples during each build and
run, so a slow spell on a shared host does not read as a regression.
With ``--trace 1`` one more rep runs under cProfile and the per-layer
metrics come only from it.

Every rep is checked: it must not raise or deadlock, must commit every
operation of the program, and must produce the first rep's cycles and
stats digest; the traced rep too, because observing a run must not
change it. Failed reps are counted and left out of the medians.

Every metric is printed with its unit, the full result is written to
``bench/out/results.json``, and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). The exit
code is 1 if any rep failed, 2 if a workload produced no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import hostspeed
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out", "results.json")

CORE = "ooo8"
# Workloads (see README.md for why each is here). The seed reaches only
# build_programs; of these, only bfs draws its input from it.
WORKLOADS: Dict[str, Dict] = {
    "mv-base": dict(workload="mv", config="base", cols=4, rows=4, scale=16),
    "bfs-sf": dict(workload="bfs", config="sf", cols=4, rows=4, scale=16),
    "hotspot-sf": dict(workload="hotspot", config="sf", cols=4, rows=4,
                       scale=16),
    "mv-sf-8x8": dict(workload="mv", config="sf", cols=8, rows=8, scale=4),
}

# setup_s is a median over at least this many builds: the timed reps'
# builds, topped up with builds that are not run.
MIN_SETUPS = 11
# A hung child is killed, so one workload never takes three minutes.
CHILD_TIMEOUT_S = 170
# Environment of the shipping path, forced on the child before it
# imports repro. A fixed hash seed removes string-hash randomization,
# one source of host-time differences between processes.
FORCED_ENV = {"REPRO_SANITIZE": "0", "PYTHONHASHSEED": "0"}
UNSET_ENV = ("REPRO_TELEMETRY", "REPRO_FASTPATH", "REPRO_KERNEL")


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stats_digest(cycles: int, stats: Dict[str, float]) -> str:
    """sha256 over the cycle count and the sorted stats tree."""
    payload = str(cycles) + json.dumps(stats, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# child: one workload in one process
# ----------------------------------------------------------------------
class Repro:
    """The public simulator API, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, SRC)
        import repro

        if not os.path.realpath(repro.__file__).startswith(
                os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"repro imported from {repro.__file__}, "
                               f"not from {SRC}")
        from repro.harness.cache import code_fingerprint
        from repro.system import Chip, make_config
        from repro.workloads import build_programs

        self.Chip = Chip
        self.make_config = make_config
        self.build_programs = build_programs
        self.fingerprint = code_fingerprint()

    def programs(self, spec: Dict, seed: int):
        return self.build_programs(spec["workload"], spec["cols"] * spec["rows"],
                                   scale=spec["scale"], seed=seed)

    def build(self, spec: Dict, seed: int):
        """A fresh chip and its programs (a chip runs once)."""
        system = self.make_config(
            spec["config"], core=CORE, cols=spec["cols"], rows=spec["rows"],
            scale=spec["scale"],
        )
        chip = self.Chip(system)
        sim = chip.sim
        if not (sim.fastpath and sim.pooling) or sim.sanitizer is not None \
                or sim.telemetry is not None:
            raise RuntimeError(
                f"not the shipping path: fastpath={sim.fastpath} "
                f"pooling={sim.pooling} sanitizer={sim.sanitizer} "
                f"telemetry={sim.telemetry}")
        return chip, self.programs(spec, seed)


def program_size(programs) -> Dict[str, int]:
    """Iterations and operations the programs hold, counted without
    simulating: the core must commit exactly these."""
    iterations = ops = 0
    for program in programs.values():
        for phase in program.phases:
            for it in phase.iterations():
                iterations += 1
                ops += len(it.ops) + it.compute_ops
    return {"core.iterations": iterations, "core.ops": ops}


def outcome(chip, result) -> Dict:
    stats = result.stats.to_dict()
    return {
        "cycles": result.cycles,
        "digest": stats_digest(result.cycles, stats),
        "stats": stats,
        "events": chip.sim.events_executed,
        "inlined": chip.sim.events_inlined,
        "noc_utilization": result.noc_utilization(),
        "cores": chip.num_cores,
    }


def check(out: Dict, expected: Dict[str, int], ref: Optional[Dict]) -> None:
    """Raise if a finished rep is not a correct, repeatable run."""
    for name, want in expected.items():
        got = out["stats"].get(name, 0)
        if got != want:
            raise RuntimeError(f"{name} = {got}, the program holds {want}")
    if ref is not None and (out["cycles"], out["digest"]) != (
            ref["cycles"], ref["digest"]):
        raise RuntimeError(
            f"cycles {out['cycles']} digest {out['digest'][:12]} differ from "
            f"the first rep's {ref['cycles']} {ref['digest'][:12]}")


def git_state() -> Dict:
    """Commit and dirty flag of the checkout, if it is a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def measure(spec: Dict, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload in this process and return its full result."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    api = Repro()
    speed = hostspeed.HostSpeed()
    expected = program_size(api.programs(spec, seed))
    failures: List[str] = []
    attempted = 0
    host_times: List[float] = []
    run_times: List[float] = []
    setups: List[float] = []
    ref: Optional[Dict] = None

    def build() -> Tuple:
        gc.collect()
        (chip, programs), _, setup_s = speed.timed(api.build, spec, seed)
        setups.append(setup_s)
        return chip, programs

    def rep(profile=None) -> Optional[Tuple[float, float]]:
        """Build and run once. Returns the run's host seconds and its
        seconds at reference speed, or None if it failed. The traced
        rep is timed without probes, which cProfile would count."""
        nonlocal attempted, ref
        chip, programs = build()
        attempted += 1
        try:
            if profile is None:
                result, host_s, run_s = speed.timed(chip.run, programs)
            else:
                t0 = time.perf_counter()
                profile.enable()
                try:
                    result = chip.run(programs)
                finally:
                    profile.disable()
                host_s = run_s = time.perf_counter() - t0
            out = outcome(chip, result)
            check(out, expected, ref)
        except Exception:  # a failed rep is counted, not fatal
            failures.append(traceback.format_exc(limit=3))
            print(f"[{spec['name']}] rep {attempted} failed:\n{failures[-1]}",
                  file=sys.stderr)
            return None
        if ref is None:
            ref = out
        return host_s, run_s

    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        timing = rep()
        if timing is not None:
            host_times.append(timing[0])
            run_times.append(timing[1])
    while len(setups) < MIN_SETUPS:
        build()
    # Before the traced rep: cProfile's own tables raise the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if ref is None:
        raise RuntimeError(f"all {attempted} reps failed")

    run_s = statistics.median(run_times)
    stats = ref["stats"]
    e2e = {
        "run_s": metric(run_s, "s"),
        "sim_ops_per_s": metric(stats["core.ops"] / run_s, "ops/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "sim_cycles": metric(ref["cycles"], "cycles"),
        "noc_flit_hops": metric(sum(
            v for k, v in stats.items() if k.startswith("noc.flit_hops.")),
            "flit-hops"),
    }
    result = {
        "name": spec["name"],
        "spec": spec,
        "seed": seed,
        "digest": ref["digest"],
        "run_s": {"median": run_s, "min": min(run_times),
                  "max": max(run_times), "n": len(run_times),
                  "host_median": statistics.median(host_times)},
        "setup_s": {"median": e2e["setup_s"]["value"], "n": len(setups)},
        "metrics": e2e,
        "provenance": {
            **git_state(),
            "code_fingerprint": api.fingerprint,
            "python": platform.python_version(),
            "nproc": len(cpus),
        },
    }
    if trace:
        import cProfile
        import pstats

        profile = cProfile.Profile()
        timing = rep(profile)
        if timing is not None:
            table = pstats.Stats(profile)
            self_s, calls = layers.group_profile(table.stats, SRC)
            result["trace"] = {"wall_s": timing[0], "total_s": table.total_tt,
                               "total_calls": table.total_calls}
            overhead = timing[0] / result["run_s"]["host_median"]
            result["per_layer"] = per_layer(ref, run_s, table, self_s, calls,
                                             overhead)
    result.update(runs_attempted=attempted, runs_failed=len(failures),
                  failures=failures)
    return result


def per_layer(ref, run_s, table, self_s, calls, overhead) -> Dict:
    """Host time and calls per layer (traced rep) and model counters
    (first untraced rep)."""
    events = ref["events"]
    out = {
        "host.calls_per_event": metric(table.total_calls / events,
                                       "calls/event"),
        "trace.overhead": metric(overhead, "ratio"),
    }
    for layer in layers.LAYERS:
        out[f"host.{layer}.self_s"] = metric(self_s[layer], "s")
        out[f"host.{layer}.share"] = metric(
            ratio(self_s[layer], table.total_tt), "share")
        out[f"host.{layer}.calls_per_event"] = metric(
            calls[layer] / events, "calls/event")

    s = ref["stats"].get

    def hit_rate(level: str) -> float:
        hits = s(f"{level}.hits", 0)
        return ratio(hits, hits + s(f"{level}.misses", 0))

    orphans = s("se_l2.orphan_data", 0)
    out.update({
        "model.kernel.events": metric(events, "events"),
        "model.kernel.events_per_s": metric(events / run_s, "events/s"),
        "model.kernel.inlined_share": metric(ratio(ref["inlined"], events),
                                             "share"),
        "model.noc.flits": metric(sum(
            v for k, v in ref["stats"].items() if k.startswith("noc.flits.")),
            "flits"),
        **{f"model.noc.flit_hops.{kind}": metric(
            s(f"noc.flit_hops.{kind}", 0), "flit-hops")
           for kind in ("data", "ctrl", "stream")},
        "model.noc.utilization": metric(ref["noc_utilization"],
                                        "flits/link/cycle"),
        "model.l1.hit_rate": metric(hit_rate("l1"), "share"),
        "model.l1.misses": metric(s("l1.misses", 0), "count"),
        "model.l1.writebacks": metric(s("l1.writebacks", 0), "count"),
        "model.l2.hit_rate": metric(hit_rate("l2"), "share"),
        "model.l2.noreuse_evict_share": metric(
            ratio(s("l2.evictions_noreuse", 0), s("l2.evictions", 0)),
            "share"),
        "model.l3.hit_rate": metric(hit_rate("l3"), "share"),
        "model.l3.mshr_full_waits": metric(s("l3.mshr_full_waits", 0),
                                           "count"),
        "model.l3.invalidations": metric(
            s("l3.invalidations", 0) + s("l3.back_invalidations", 0),
            "count"),
        "model.dram.reads": metric(s("dram.reads", 0), "count"),
        "model.se_core.floats": metric(s("se_core.floats", 0), "count"),
        "model.se_core.sink_share": metric(
            ratio(s("se_core.sinks", 0), s("se_core.floats", 0)), "share"),
        "model.se_l2.orphan_share": metric(
            ratio(orphans, orphans + s("se_l2.data_arrivals", 0)), "share"),
        "model.se_l3.migrations_out": metric(s("se_l3.migrations_out", 0),
                                             "count"),
        "model.se_l3.elements_issued": metric(
            s("se_l3.elements_issued", 0), "count"),
        "model.core.ipc": metric(
            ratio(s("core.ops", 0), ref["cycles"] * ref["cores"]),
            "ops/cycle"),
    })
    return out


# ----------------------------------------------------------------------
# parent: one child per workload, then the report
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(FORCED_ENV)
    return env


def run_workload(name: str, spec: Dict, seed: int, seconds: float,
                 trace: bool) -> Dict:
    """Measure one workload in a fresh child process and return its
    result. Raises if the child exits without one."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--child", json.dumps(dict(spec, name=name)),
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited with {proc.returncode} "
                           f"and no result")
    return json.loads(lines[-1])


def print_report(result: Dict) -> None:
    print(f"== {result['name']}  seed {result['seed']}  "
          f"digest {result['digest']}")
    print(f"   runs {result['runs_attempted']} attempted, "
          f"{result['runs_failed']} failed; run_s n={result['run_s']['n']} "
          f"min={result['run_s']['min']:.4f} max={result['run_s']['max']:.4f}; "
          f"setup_s n={result['setup_s']['n']}")
    for section in ("metrics", "per_layer"):
        for name, m in result.get(section, {}).items():
            print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")


def default_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all, one at a time)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed, passed only to build_programs")
    ap.add_argument("--seconds", type=float,
                    help="length of the timed loop per workload "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: add the traced rep and the per-layer metrics")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seconds = default_seconds() if args.seconds is None else args.seconds

    if args.child:
        print(json.dumps(measure(json.loads(args.child), args.seed, seconds,
                                 bool(args.trace))))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, WORKLOADS[name], args.seed,
                                        seconds, bool(args.trace)))
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print_report(results[-1])

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    section = "per_layer" if args.trace else "metrics"
    if len(results) == 1:
        metrics = results[0].get(section, {})
    else:
        metrics = {f"{r['name']}/{k}": v for r in results
                   for k, v in {**r["metrics"], **r.get("per_layer", {})}.items()}
    failed = sum(r["runs_failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["runs_attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
