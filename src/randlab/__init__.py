"""randlab: an executable workbench for the elementary theory of random reals.

Exact dyadic arithmetic, prefix-free set algebra, a toy universal machine
pair, budgeted complexity searches, halting-mass lower bounds, and
Martin-Löf tests, plus a deterministic report-emitting CLI.
"""

from .bitstr import *
from .prefixfree import *
from .machine import *
from .complexity import *
from .omega import *
from .mltest import *

__all__ = [
    "__version__",
    *bitstr.__all__,  # exact dyadic scalars and the length-lex enumeration
    *prefixfree.__all__,  # antichains, covers, Kraft coding
    *machine.__all__,  # the machine pair and its registry
    *complexity.__all__,  # budgeted complexity searches
    *omega.__all__,  # halting-mass lower bounds
    *mltest.__all__,  # Martin-Löf tests and bridges
]

__version__ = "0.1.0"
