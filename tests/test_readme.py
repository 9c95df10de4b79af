"""The README's library tour, run as a doctest so that it cannot drift."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_written() -> None:
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README library tour", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 7
    assert result.failed == 0
