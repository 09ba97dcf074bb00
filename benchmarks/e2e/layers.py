"""Which layer a source file belongs to, and whose time a profile shows.

Layers are this repository's modules.  ``cdn/flower`` and ``cdn/petalup``
are one layer on purpose: the coming ``FlowerPeer`` break-up moves code
between files of that directory and must not redefine the layer.

A file rule names one file; a directory rule covers the rest of its
package, so a module added to an existing package lands in that
package's layer.  A new top-level package has no rule: ``classify``
returns ``None`` for it, ``test_layers.py`` fails, and its time would
show up in ``other`` -- which the command caps at 5 %.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Every layer a traced run reports, in report order.  ``other`` is what
#: no rule claims: the standard library when nothing in ``repro`` called
#: it, and the benchmark's own frames.
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.process",
    "sim.trace",
    "sim.sharded",
    "net.transport",
    "net.topology",
    "net.faults",
    "net.bandwidth",
    "net.shardnet",
    "dht",
    "gossip",
    "workload",
    "cdn.base",
    "cdn.flower",
    "cdn.squirrel",
    "cdn.swarm",
    "metrics",
    "chaos",
    "experiments",
    "other",
)

#: Path relative to ``src/repro`` -> layer.
_FILE_RULES: Dict[str, str] = {
    "sim/process.py": "sim.process",
    "sim/trace.py": "sim.trace",
    "sim/sharded.py": "sim.sharded",
    "net/topology.py": "net.topology",
    "net/landmarks.py": "net.topology",
    "net/faults.py": "net.faults",
    "net/bandwidth.py": "net.bandwidth",
    "net/shardnet.py": "net.shardnet",
    "cdn/swarm.py": "cdn.swarm",
}

#: Directory relative to ``src/repro`` -> layer, longest match first.
_DIR_RULES: Tuple[Tuple[str, str], ...] = (
    ("cdn/flower/", "cdn.flower"),
    ("cdn/petalup/", "cdn.flower"),
    ("cdn/squirrel/", "cdn.squirrel"),
    ("cdn/", "cdn.base"),
    ("sim/", "sim.engine"),
    ("net/", "net.transport"),
    ("dht/", "dht"),
    ("gossip/", "gossip"),
    ("workload/", "workload"),
    ("metrics/", "metrics"),
    ("chaos/", "chaos"),
    ("experiments/", "experiments"),
    ("analysis/", "experiments"),
)


def classify(relative_path: str) -> Optional[str]:
    """The layer of the ``repro`` source file at *relative_path*
    (relative to the package directory), or None if no rule covers it."""
    path = relative_path.replace("\\", "/")
    rule = _FILE_RULES.get(path)
    if rule is not None:
        return rule
    for prefix, layer in _DIR_RULES:
        if path.startswith(prefix):
            return layer
    if "/" not in path:
        # The package root (cli, types, errors) is the front door, counted
        # with ``experiments`` like the ``analysis`` reporting helpers.
        return "experiments"
    return None


def layer_of(filename: str, package_root: str) -> Optional[str]:
    """The layer of a file as the profiler names it.

    Files outside *package_root* -- the standard library, ``~``
    built-ins, generated ``<string>`` code, the benchmark itself --
    return None: their time belongs to their callers.  A package file
    no rule covers is ``other``, where the 5 % cap will find it.
    """
    prefix = package_root.rstrip("/") + "/"
    if not filename.startswith(prefix):
        return None
    return classify(filename[len(prefix) :]) or "other"


def self_times(stats: Dict, package_root: str) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats`` table.

    A span is one call into a function; a layer's self time is the sum
    of ``tottime`` over the functions whose file lies in it.  Code
    outside ``repro`` -- C built-ins such as ``heappush`` and
    ``dict.get``, ``random.py``, generated ``NamedTuple`` constructors --
    is charged to whoever called it, read from the profile's caller
    table and followed up through library frames until a ``repro`` file
    is reached.  So the heap push inlined into ``Network._deliver``
    counts as ``net.transport``: that is the file an optimiser would
    have to edit.
    """
    totals = {layer: 0.0 for layer in LAYERS}
    memo: Dict[Tuple, Dict[str, float]] = {}

    def callers_layers(func: Tuple, active: frozenset) -> Dict[str, float]:
        """How a library function's self time splits over layers."""
        known = memo.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        weight = sum(entry[2] for entry in callers.values())
        split: Dict[str, float] = {}
        if not callers or weight <= 0.0 or func in active:
            split["other"] = 1.0
        else:
            for caller, entry in callers.items():
                share = entry[2] / weight
                if share <= 0.0:
                    continue
                layer = layer_of(caller[0], package_root)
                if layer is not None:
                    split[layer] = split.get(layer, 0.0) + share
                    continue
                for name, part in callers_layers(caller, active | {func}).items():
                    split[name] = split.get(name, 0.0) + share * part
        memo[func] = split
        return split

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        layer = layer_of(func[0], package_root)
        if layer is not None:
            totals[layer] += tottime
            continue
        for name, part in callers_layers(func, frozenset()).items():
            totals[name] += tottime * part
    return totals
