"""CLI: regenerate any of the paper's figures from the command line.

Examples::

    python -m repro.harness fig13
    python -m repro.harness fig15 --core ooo8 --scale 16
    python -m repro.harness fig13 --cols 8 --rows 8 --scale 4   # full-size
    python -m repro.harness fig13 --jobs 4                      # parallel
    python -m repro.harness all --jobs 0                        # all CPUs
    python -m repro.harness fig13 --no-cache                    # force re-sim

``--cols``, ``--rows``, ``--scale``, ``--seed`` and ``--sanitize``
are fields of every :class:`~repro.harness.runner.Point` a figure
builds. A figure's points that are not in the in-process memo or the
content-addressed disk cache under ``--cache-dir`` (default:
``REPRO_CACHE_DIR``, else ``~/.cache/repro-stream-floating``) fan out
over ``--jobs`` worker processes (default: the ``REPRO_JOBS``
environment variable, else serial), so a rerun of the same figure
performs zero new simulations. ``--sanitize`` is part of each point,
so a sanitized run never reuses a record the sanitizer did not check.
Per-point progress (named by ``Point.slug``) and the cache hit/miss
summary go to stderr; report text goes to stdout, and is
byte-identical whatever ``--jobs`` is. Each figure's footer counts
memo hits (points an earlier figure of the same invocation ran), disk
hits and simulations. Telemetry is captured one point at a time with
``python -m repro.obs run``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import experiments, report
from repro.harness.cache import default_cache_dir
from repro.harness.runner import COUNTERS, configure_disk_cache, set_progress
from repro.workloads import ALL_WORKLOADS

FIGURES = ("fig2", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate Stream Floating (HPCA'21) figures",
    )
    parser.add_argument("figure", choices=FIGURES + ("all",))
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--scale", type=int, default=16,
                        help="capacity/dataset scale divisor (1 = paper size)")
    parser.add_argument("--core", default="ooo8",
                        choices=("io4", "ooo4", "ooo8"))
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"subset of {list(ALL_WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generation seed (part of the cache key)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel simulation workers (0 = one per CPU; "
                             "default: $REPRO_JOBS, else serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent run-cache directory (default: "
                             "$REPRO_CACHE_DIR, else "
                             "~/.cache/repro-stream-floating)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every point under the runtime "
                             "invariant sanitizer (a point parameter: "
                             "sanitized runs are cached apart from "
                             "plain ones)")
    args = parser.parse_args(argv)

    configure_disk_cache(
        None if args.no_cache else (args.cache_dir or default_cache_dir())
    )
    set_progress(lambda line: print(line, file=sys.stderr))
    try:
        return _run(args)
    finally:
        # main() is also called in-process by tests: restore the
        # module-global cache/progress configuration on the way out.
        set_progress(None)
        configure_disk_cache(None)


def _run(args) -> int:
    kw = dict(cols=args.cols, rows=args.rows, scale=args.scale,
              seed=args.seed, sanitize=args.sanitize, jobs=args.jobs)
    wl = tuple(args.workloads) if args.workloads else None
    figures = FIGURES if args.figure == "all" else (args.figure,)
    for fig in figures:
        t0 = time.time()
        c0 = (COUNTERS.memo_hits, COUNTERS.disk_hits, COUNTERS.simulated)
        print(f"=== {fig} ===")
        if fig == "fig2":
            out = report.render_fig2(experiments.fig2_motivation(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig13":
            out = report.render_fig13(experiments.fig13_speedup(
                workloads=wl or ALL_WORKLOADS, **kw))
        elif fig == "fig14":
            out = report.render_fig14(experiments.fig14_requests(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig15":
            out = report.render_fig15(experiments.fig15_traffic(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig16":
            out = report.render_sweep(
                experiments.fig16_linkwidth(
                    workloads=wl or experiments.SWEEP_WORKLOADS,
                    core=args.core, **kw),
                "Figure 16 (link width, vs bingo@128)",
                report.PAPER_NOTES["fig16"],
            )
        elif fig == "fig17":
            out = report.render_sweep(
                experiments.fig17_interleave(
                    workloads=wl or experiments.SWEEP_WORKLOADS,
                    core=args.core, **kw),
                "Figure 17 (NUCA interleave, vs bingo@64B)",
                report.PAPER_NOTES["fig17"],
            )
        elif fig == "fig18":
            out = report.render_fig18(experiments.fig18_scaling(
                workloads=wl or experiments.SWEEP_WORKLOADS,
                core=args.core, scale=args.scale, seed=args.seed,
                sanitize=args.sanitize, jobs=args.jobs))
        elif fig == "fig19":
            out = report.render_fig19(experiments.fig19_energy_scatter(
                workloads=wl or ALL_WORKLOADS, **kw))
        print(out)
        memo, disk, sim = (
            COUNTERS.memo_hits - c0[0],
            COUNTERS.disk_hits - c0[1],
            COUNTERS.simulated - c0[2],
        )
        print(
            f"[{fig} done in {time.time() - t0:.1f}s; cache: "
            f"{memo} memo hits, {disk} disk hits, {sim} simulated]\n",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
