"""Shared test helpers: every test starts and ends with no code table
installed, and `fresh_universes` runs a body against cold universes."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from randlab import machine
from randlab.machine import clear_code_table


@pytest.fixture(autouse=True)
def _clean_code_table():
    clear_code_table()
    yield
    clear_code_table()


@contextmanager
def fresh_universes(registry=None):
    """Run the body against `registry`, or else a fresh registry for the
    installed code table, so its memos, tables and replays start cold;
    yield the registry the body runs against."""
    saved = machine._REGISTRY
    machine._REGISTRY = registry or machine._Registry(saved.code_table)
    try:
        yield machine._REGISTRY
    finally:
        machine._REGISTRY = saved
