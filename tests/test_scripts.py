"""Tests for the repository scripts (sweep runner, EXPERIMENTS renderer)."""

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
    """run_one must produce a JSON file with the figure histograms."""
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
