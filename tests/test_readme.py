"""The README's library tour, run as a doctest, and its list of the flags
each subcommand takes, read against the parser, so that neither can drift."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

from conftest import universe_flags
from randlab.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_written() -> None:
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README library tour", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 7
    assert result.failed == 0


def test_command_line_flag_list_matches_the_parser() -> None:
    # "- `omega`: `--len-limit`, `--stage`;" lists the universe flags of each
    # report subcommand; `a b|c` spells the subcommands `a b` and `a c`
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for names, flags in re.findall(r"^- (.+?): (.+?)[;.]$", section, re.MULTILINE):
        for name in re.findall(r"`([^`]+)`", names):
            head, _, tails = name.rpartition(" ")
            for tail in tails.split("|"):
                listed[f"{head} {tail}".strip()] = set(re.findall(r"`(--[a-z-]+)`", flags))
    taken = dict(universe_flags(_build_parser()))
    assert listed == {name: flags for name, flags in taken.items() if name not in ("pfz", "kraft")}
