"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from tests.conftest import fresh_loads

FAST = ["--population", "60", "--hours", "1", "--seed", "3"]


def test_importing_the_cli_loads_no_protocol_or_analysis():
    """Each subcommand imports what it uses: ``--help`` or a Squirrel run
    compiles neither Flower nor the chart and comparison code."""
    loaded = fresh_loads("import repro.cli")
    assert "repro.cli" in loaded
    assert [
        name
        for name in loaded
        if name.startswith(("repro.cdn.flower", "repro.analysis"))
    ] == []


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "gnutella"])


def test_run_command(capsys):
    assert main(["run", "flower", *FAST]) == 0
    out = capsys.readouterr().out
    assert "flower" in out
    assert "hit=" in out
    assert "outcome" in out


def test_run_with_plot(capsys):
    assert main(["run", "flower", "--plot", *FAST]) == 0
    out = capsys.readouterr().out
    assert "cumulative hit ratio" in out


def test_run_writes_json(tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main(["run", "squirrel", *FAST, "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["protocol"] == "squirrel"
    assert "hit_ratio" in payload


def test_compare_command(capsys):
    code = main(["compare", *FAST])
    out = capsys.readouterr().out
    assert "paper shape checks" in out
    assert code in (0, 1)  # shape checks may fail legitimately at 1 sim-hour


def test_sweep_command(capsys):
    assert (
        main(
            [
                "sweep",
                "--populations",
                "60",
                "--protocols",
                "flower",
                "--hours",
                "1",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "scalability sweep" in out
    assert "flower" in out


def test_overhead_command(capsys):
    assert main(["overhead", "flower", *FAST]) == 0
    out = capsys.readouterr().out
    assert "message overhead" in out
    assert "maintenance messages per query" in out


# ----------------------------------------------- normalized option naming
def test_option_names_are_uniform_across_subcommands():
    """``--replication``, ``--workers``, ``--overload`` and
    ``--rebalance`` parse identically on run/compare/sweep/overhead/chaos."""
    parser = build_parser()
    for command, extra in (
        ("run", ["flower"]),
        ("compare", []),
        ("sweep", []),
        ("overhead", "flower".split()),
        ("chaos", ["flower"]),
    ):
        args = parser.parse_args(
            [command, *extra, "--replication", "2", "--workers", "1", "--overload"]
        )
        assert args.replication == 2
        assert args.workers == 1
        assert args.overload is True
        assert args.rebalance is False


def test_rebalance_flag_turns_on_the_reactive_plane():
    from repro.cli import _config_from

    args = build_parser().parse_args(["run", "flower", "--rebalance"])
    config = _config_from(args)
    assert config.redirect_hints is True
    assert config.rebalance is True
    # --rebalance implies the --overload recipe.
    assert config.openloop_rate_qps > 0
    assert config.directory_queue_limit > 0
    assert config.overload_shedding is True


def test_overload_without_rebalance_keeps_the_reactive_plane_off():
    from repro.cli import _config_from

    args = build_parser().parse_args(["run", "flower", "--overload"])
    config = _config_from(args)
    assert config.redirect_hints is False
    assert config.rebalance is False
    assert config.openloop_rate_qps > 0


def test_rebalanced_run_end_to_end(capsys):
    assert main(["run", "flower", *FAST, "--rebalance"]) == 0
    out = capsys.readouterr().out
    assert "hit=" in out


def test_sharded_overload_is_refused_not_silently_plain(capsys):
    """``--workers N --overload`` used to run the plain workload and call
    it overload; it is a shape error now, like a bad worker count."""
    sharded = ["run", "flower", "--workers", "3", "--population", "96", "--hours", "0.5"]
    assert main([*sharded, "--overload"]) == 2
    err = capsys.readouterr().err
    assert "open-loop" in err and "--workers 1" in err
