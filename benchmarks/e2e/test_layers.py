"""Every source file has a layer; the contract file matches the registry.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
from pathlib import Path

from benchmarks.e2e import layers, registry
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def test_every_source_file_maps_to_one_named_layer():
    unmapped = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        layer = layers.classify(relative)
        if layer is None or layer == "other" or layer not in layers.LAYERS:
            unmapped.append(relative)
    assert not unmapped, (
        f"no layer rule covers {unmapped}: add one in benchmarks/e2e/layers.py, "
        f"or their time lands in `other`"
    )


def test_every_rule_names_a_reported_layer_and_a_file_that_exists():
    for relative, layer in layers._FILE_RULES.items():
        assert layer in layers.LAYERS
        assert (PACKAGE / relative).is_file(), f"stale file rule {relative}"
    for prefix, layer in layers._DIR_RULES:
        assert layer in layers.LAYERS
        assert (PACKAGE / prefix).is_dir(), f"stale directory rule {prefix}"


def test_files_outside_the_package_belong_to_their_callers():
    root = str(PACKAGE)
    assert layers.layer_of("~", root) is None
    assert layers.layer_of("<string>", root) is None
    assert layers.layer_of("/usr/lib/python3.11/random.py", root) is None
    assert layers.layer_of(f"{root}/sim/engine.py", root) == "sim.engine"
    assert layers.layer_of(f"{root}/cdn/petalup/system.py", root) == "cdn.flower"
    assert layers.layer_of(f"{root}/brand_new/module.py", root) == "other"


def test_library_time_is_charged_to_the_calling_layer():
    root = "/pkg/repro"
    deliver = (f"{root}/net/transport.py", 10, "_deliver")
    tick = (f"{root}/dht/node.py", 20, "_tick")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    uniform = ("/usr/lib/python3.11/random.py", 5, "uniform")
    random = ("~", 0, "<method 'random' of '_random.Random' objects>")
    # (primitive calls, calls, tottime, cumtime, callers)
    stats = {
        deliver: (1, 1, 2.0, 3.0, {}),
        tick: (1, 1, 1.0, 2.0, {}),
        heappush: (
            4, 4, 1.0, 1.0,
            {deliver: (3, 3, 0.75, 0.75), tick: (1, 1, 0.25, 0.25)},
        ),
        uniform: (2, 2, 0.5, 1.0, {tick: (2, 2, 0.5, 1.0)}),
        random: (2, 2, 0.5, 0.5, {uniform: (2, 2, 0.5, 0.5)}),
    }
    totals = layers.self_times(stats, root)
    assert totals["net.transport"] == 2.0 + 0.75
    assert totals["dht"] == 1.0 + 0.25 + 0.5 + 0.5
    assert totals["other"] == 0.0
    assert abs(sum(totals.values()) - 5.0) < 1e-12


def test_benchmark_json_names_what_the_registry_names():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}
    bounds = {name: metric["bound"] for name, metric in end_to_end.items()}
    assert bounds == registry.CONTRACT_END_TO_END
    per_layer = {m["name"]: m for m in contract["per_layer"]}
    expected = [c.name for c in registry.PER_LAYER]
    expected += list(registry.CONTRACT_EXTRA_PER_LAYER)
    assert list(per_layer) == expected
    for name, metric in {**end_to_end, **per_layer}.items():
        assert metric["unit"] == registry.UNITS[name], name
    # All twelve of the issue's metrics reach the driver, bounded or not.
    reported = set(end_to_end) | set(per_layer)
    assert {metric.name for metric in registry.END_TO_END} <= reported
