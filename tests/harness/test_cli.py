"""Tests for the ``python -m repro.harness`` CLI."""

import pytest

from repro.harness.__main__ import main
from repro.harness.runner import clear_cache


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def test_cli_runs_a_small_figure(capsys):
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "nn" in out
    assert "done in" in out


def test_cli_fig14(capsys):
    rc = main([
        "fig14", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "conv3d", "--no-cache",
    ])
    assert rc == 0
    assert "Figure 14" in capsys.readouterr().out


def test_cli_parallel_report_matches_serial(tmp_path, capsys):
    """--jobs 4 must render byte-identical report text, and the warm
    disk cache must satisfy the rerun without new simulations."""
    args = [
        "fig13", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", str(tmp_path / "cache"),
    ]

    def report_lines(out):
        # Everything except the timing/cache footer is the report.
        return [l for l in out.splitlines() if not l.startswith("[fig13")]

    assert main(args + ["--jobs", "4"]) == 0
    cold = capsys.readouterr().out
    assert "0 disk hits" in cold

    clear_cache()  # simulate a fresh session; only the disk remains
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert report_lines(warm) == report_lines(cold)
    assert "0 simulated" in warm

    clear_cache()
    assert main(args + ["--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert report_lines(serial) == report_lines(cold)


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_core():
    with pytest.raises(SystemExit):
        main(["fig2", "--core", "pentium"])

