"""The run observatory CLI: ``python -m repro.obs`` (DESIGN.md §11).

Three subcommands:

- ``run`` — simulate one point with telemetry on and capture a
  self-contained *run directory* (``record.json`` + trace/interval/
  profile/provenance artifacts) suitable as a ``diff`` input;
- ``diff`` — align two run directories (or bare RunRecord JSON
  files) and render the differential report (Markdown, optional
  HTML);
- ``attribute`` — simulate one point with the attribution (+spans)
  pillars and render the cycle-accounting report: the CPI stack and
  the critical-path bottleneck table (DESIGN.md §15).

Quick start::

    python -m repro.obs run --workload mv --config base --out runs/base
    python -m repro.obs run --workload mv --config sf   --out runs/sf
    python -m repro.obs diff runs/base runs/sf --out report.md
    python -m repro.obs attribute --workload mv --config sf
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--core", default="ooo8")
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--scale", type=int, default=16)
    parser.add_argument("--link-bits", type=int, default=256)
    parser.add_argument("--l3-interleave", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run observatory: capture, diff and attribute runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="simulate one point and capture a run directory")
    _add_point_args(run)
    run.add_argument("--out", required=True,
                     help="run directory to create/fill")
    run.add_argument(
        "--telemetry", default="all",
        help="pillars to enable (comma list or 'all'; default all)")
    run.add_argument("--interval", type=int, default=None,
                     help="interval sampler period in cycles")

    diff = sub.add_parser(
        "diff", help="differential report between two captured runs")
    diff.add_argument("run_a", help="run directory or RunRecord JSON")
    diff.add_argument("run_b", help="run directory or RunRecord JSON")
    diff.add_argument("--out", default=None,
                      help="Markdown output path (default: stdout)")
    diff.add_argument("--html", default=None,
                      help="also write an HTML report here")
    diff.add_argument("--top", type=int, default=5,
                      help="top-k streams by lifetime (default 5)")
    diff.add_argument("--label-a", default=None)
    diff.add_argument("--label-b", default=None)

    att = sub.add_parser(
        "attribute",
        help="cycle-accounting CPI stack + critical-path bottlenecks")
    _add_point_args(att)
    att.add_argument("--out", default=None,
                     help="Markdown output path (default: stdout)")
    att.add_argument("--json", dest="json_out", default=None,
                     help="also write the raw cpi.*/crit.* counters")
    att.add_argument("--top", type=int, default=10,
                     help="bottleneck edges to list (default 10)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_params, simulate
    from repro.obs.export import point_artifacts, point_slug, write_point_dir
    from repro.obs.telemetry import DEFAULT_INTERVAL, TelemetryConfig

    params = run_params(
        args.workload, args.config, core=args.core, cols=args.cols,
        rows=args.rows, scale=args.scale, link_bits=args.link_bits,
        l3_interleave=args.l3_interleave, seed=args.seed,
    )
    record, tel = simulate(params, TelemetryConfig.parse(
        args.telemetry, args.interval or DEFAULT_INTERVAL))
    write_point_dir(point_artifacts(tel, point_slug(params)), args.out)
    record_path = os.path.join(args.out, "record.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"[obs] captured {args.workload}/{args.config} "
          f"({record.cycles} cycles) -> {args.out}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import RunArtifacts, diff_runs
    from repro.obs.report import render_html, render_markdown

    a = RunArtifacts.load(args.run_a, label=args.label_a)
    b = RunArtifacts.load(args.run_b, label=args.label_b)
    diff = diff_runs(a, b, k=args.top)
    markdown = render_markdown(diff)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"[obs] wrote {args.out}")
    else:
        sys.stdout.write(markdown)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(diff))
        print(f"[obs] wrote {args.html}")
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_once
    from repro.obs.report import render_attribution

    record = run_once(
        workload=args.workload, config=args.config, core=args.core,
        cols=args.cols, rows=args.rows, scale=args.scale,
        link_bits=args.link_bits, l3_interleave=args.l3_interleave,
        seed=args.seed, obs="attribution,spans", use_cache=False,
    )
    markdown = render_attribution(record, top=args.top)
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"[obs] wrote {args.out}")
    else:
        sys.stdout.write(markdown)
    if args.json_out:
        tel = record.telemetry or {}
        payload = {
            "point": record.params,
            "cycles": record.cycles,
            "attribution": {
                name: value for name, value in sorted(tel.items())
                if name.startswith(("cpi.", "crit.", "critdom."))
            },
        }
        out_dir = os.path.dirname(args.json_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[obs] wrote {args.json_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_attribute(args)


if __name__ == "__main__":
    raise SystemExit(main())
