"""Shared test helpers: every test starts and ends with no code table
installed, `fresh_universes` runs a body against cold universes, and
`universe_flags` reads the universe flags each CLI subcommand takes."""

from __future__ import annotations

import argparse
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


UNIVERSE_FLAGS = ("--budget", "--len-limit", "--depth", "--stage")


def universe_flags(parser: argparse.ArgumentParser, path=()):
    """Yield (subcommand, the universe flags it takes) for every leaf
    subcommand of `parser`, the subcommand spelled as on the command line."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        taken = {option for action in parser._actions for option in action.option_strings}
        yield " ".join(path), taken & set(UNIVERSE_FLAGS)
    for action in subs:
        for name, child in action.choices.items():
            yield from universe_flags(child, (*path, name))
