"""Tests for the repository scripts (sweep runner, EXPERIMENTS renderer,
A/B pairs) and the A/B artifact emitter ``benchmarks/ab.py``."""

import importlib.util
import json
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_run_full_scale_run_one(tmp_path, monkeypatch):
    """run_one must produce a JSON file with the figure histograms and the
    standard ``extra`` block of every other run door."""
    module = load_script("run_full_scale")
    # shrink the configuration drastically for the test
    from repro.experiments.config import ExperimentConfig

    monkeypatch.setattr(
        ExperimentConfig,
        "paper",
        classmethod(
            lambda cls, population=3000, **kw: ExperimentConfig.scaled(
                population=60,
                duration_hours=1.0,
                num_websites=4,
                num_active_websites=2,
                num_localities=2,
                objects_per_website=20,
            )
        ),
    )
    payload = module.run_one("flower", 60, seed=3, out_dir=tmp_path)
    stored = json.loads((tmp_path / "full_flower_60.json").read_text())
    assert stored["protocol"] == "flower"
    assert "fig4_lookup_histogram" in stored
    assert "fig5_transfer_histogram" in stored
    assert payload["queries"] == stored["queries"]
    assert stored["extra"]["message_counts"]["flower.query"] > 0
    assert {"online_peers", "drop_counts"} <= set(stored["extra"])


def test_render_experiments_handles_missing_results(tmp_path, monkeypatch, capsys):
    module = load_script("render_experiments")
    monkeypatch.setattr(module, "RESULTS", tmp_path)  # no result files at all
    assert module.main() == 0
    out = capsys.readouterr().out
    assert "# EXPERIMENTS" in out
    assert "Table 2" in out
    assert "—" in out  # missing cells rendered as dashes


def test_render_experiments_with_one_pair(tmp_path, monkeypatch, capsys):
    module = load_script("render_experiments")
    result = {
        "hit_ratio": 0.5,
        "mean_lookup_latency_ms": 500.0,
        "mean_transfer_ms": 100.0,
        "hit_ratio_curve": [[float(h), 0.02 * h] for h in range(1, 25)],
        "lookup_cdf": [[100.0, 0.5], [2000.0, 1.0]],
        "transfer_cdf": [[50.0, 0.6], [300.0, 1.0]],
        "fig4_lookup_histogram": {"<=150": 0.5, ">1200": 0.1},
        "fig5_transfer_histogram": {"<=50": 0.6, ">300": 0.0},
        "queries": 1000,
        "arrivals": 2000,
        "events_executed": 12345,
        "wall_seconds": 9.0,
    }
    (tmp_path / "full_flower_3000.json").write_text(json.dumps(result))
    squirrel = dict(result, hit_ratio=0.3, mean_lookup_latency_ms=1500.0)
    (tmp_path / "full_squirrel_3000.json").write_text(json.dumps(squirrel))
    monkeypatch.setattr(module, "RESULTS", tmp_path)
    assert module.main() == 0
    out = capsys.readouterr().out
    assert "relative improvement" in out
    assert "| 3000 | Flower-CDN | 0.68 | 0.50 |" in out
    assert "Provenance" in out


def _worker_output(**changes):
    out = {
        "run_s": 7.5,
        "queries": 6249,
        "issued": 6300,
        "lookup_samples": 5000,
        "sim": {"hit_ratio": 0.4, "lookup_ms_p99": 900.0},
        "counts": {"sim.events": 1000, "sim.peak_pending": 60, "net.msgs": 500,
                   "host.run_wall_s": 7.9},
    }
    for key, value in changes.items():
        if key in out["counts"]:
            out["counts"][key] = value
        else:
            out[key] = value
    return out


def test_ab_pairs_compares_what_is_simulated_and_nothing_else():
    module = load_script("ab_pairs")
    parent = _worker_output()
    # Event counts, pending peaks and host clocks may move on purpose.
    same = _worker_output(**{"sim.events": 900, "sim.peak_pending": 58,
                             "host.run_wall_s": 7.0, "run_s": 7.0})
    assert module.first_difference(parent, same) is None
    moved = _worker_output(**{"net.msgs": 501})
    assert module.first_difference(parent, moved) == "counts.net.msgs: parent 500, change 501"
    sim = _worker_output(sim={"hit_ratio": 0.41, "lookup_ms_p99": 900.0})
    assert module.first_difference(parent, sim).startswith("sim.hit_ratio:")


def test_ab_pairs_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    module = load_script("ab_pairs")
    parent = [8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.1, 8.0, 7.9, 8.0]
    assert module.verdict(parent, [t - 0.5 for t in parent]) == (10, True)
    # Nine wins, but a gap inside the parent's spread: no claim.
    close = [t - 0.05 for t in parent[:9]] + [parent[9] + 0.1]
    assert module.verdict(parent, close) == (9, False)
    # A large gap won in only eight pairs: no claim either.
    eight = [t - 0.5 for t in parent[:8]] + [9.0, 9.0]
    assert module.verdict(parent, eight) == (8, False)


def test_ab_pairs_claims_nothing_below_ten_pairs():
    module = load_script("ab_pairs")
    parent = [8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.1, 8.0, 7.9, 8.0]
    faster = [t - 0.5 for t in parent]
    assert module.verdict_line(parent, faster).endswith("verdict: gain")
    # One pair has no spread to beat: a faster run is noise, not a gain.
    assert module.verdict_line(parent[:1], faster[:1]).endswith(
        "verdict: too few pairs to claim"
    )
    assert module.verdict_line(parent[:9], faster[:9]) == (
        "change wins 9/9 pairs; median -6.2%; verdict: too few pairs to claim"
    )


def test_ab_pairs_prints_every_sim_metric_of_both_sides():
    module = load_script("ab_pairs")
    parent = _worker_output()
    change = _worker_output(sim={"hit_ratio": 0.41, "lookup_ms_p99": 450.0})
    assert module.sim_table(parent, change) == [
        "sim.hit_ratio: parent 0.4  change 0.41",
        "sim.lookup_ms_p99: parent 900.0  change 450.0",
    ]


_AB_TABLE = "mode  x\n----  -\ncold  1\nwarm  2"


def _comparison(warm_wins):
    from benchmarks import ab

    return ab.Comparison(
        table=_AB_TABLE,
        payload={"seed": 3, "cold": {"x": 1}, "warm": {"x": 2}},
        gates={"cold ran": True, "warm beat cold": warm_wins},
    )


def test_ab_report_writes_the_artifact_pair_when_every_gate_holds(tmp_path, capsys):
    from benchmarks import ab

    output = tmp_path / "X.json"
    assert ab.report((_comparison(True), str(output))) == 0
    stored = json.loads(output.read_text())
    assert stored == {
        "seed": 3,
        "cold": {"x": 1},
        "warm": {"x": 2},
        "gates": {"cold ran": True, "warm beat cold": True},
        "verdict": True,
    }
    assert (tmp_path / "X.txt").read_text() == _AB_TABLE + "\n"
    out = capsys.readouterr().out
    assert _AB_TABLE in out
    assert "GATE FAILED" not in out


def test_ab_report_names_a_failed_gate_and_still_writes_the_pair(tmp_path, capsys):
    from benchmarks import ab

    output = tmp_path / "X.json"
    # A second comparison without a path is printed and judged, not written.
    assert ab.report((_comparison(False), str(output)), (_comparison(True), None)) == 1
    stored = json.loads(output.read_text())
    assert stored["verdict"] is False
    assert stored["gates"]["warm beat cold"] is False
    assert (tmp_path / "X.txt").read_text() == _AB_TABLE + "\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["X.json", "X.txt"]
    out = capsys.readouterr().out
    assert "GATE FAILED: warm beat cold" in out
    assert "GATE FAILED: cold ran" not in out
