"""Fixtures shared by the whole suite."""

import gc

import pytest


@pytest.fixture
def refcount_only():
    """The cyclic collector is off for this test: whatever dies in it, dies
    by refcount (see docs/PROTOCOLS.md, "Freed by refcount")."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
