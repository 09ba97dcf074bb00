"""Fixtures shared by the whole suite."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


@pytest.fixture
def refcount_only():
    """The cyclic collector is off for this test: whatever dies in it, dies
    by refcount (see docs/PROTOCOLS.md, "Freed by refcount")."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def fresh_loads(code, *args):
    """``{module: file}`` of every ``repro`` module a fresh interpreter has
    loaded after running *code* (with ``sys.argv[1:] == args``)."""
    report = (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps({name: getattr(module, '__file__', None) "
        "for name, module in _sys.modules.items() "
        "if name.split('.')[0] == 'repro'}))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + report, *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    return json.loads(out.splitlines()[-1])
