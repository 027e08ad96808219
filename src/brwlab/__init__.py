"""Branching random walk deviation laboratory.

Computes shift/dilation deviation rate functions over interval sets, prices
the strategies that realize rare empirical-fraction events, simulates the
particle system with one vector kernel, and verifies the decay laws at desk
scale.
"""

__version__ = "0.15.0"

from .engine import BranchingLaw, ParticleMeasure
from .intervals import IntervalSet, parse_set
from .rates import RateReport, classify

__all__ = [
    "__version__",
    "BranchingLaw",
    "ParticleMeasure",
    "IntervalSet",
    "parse_set",
    "RateReport",
    "classify",
]
