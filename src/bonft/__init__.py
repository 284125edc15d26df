"""Birkhoff coordinates for the periodic Benjamin-Ono equation.

The pipeline: truncated Lax spectra (`lax`), the coordinate map and its
scaling chain (`birkhoff`), linear evolution and Broyden inversion
(`flow`), an independent pseudospectral integrator (`pde`), the exact
residue and partition sweeps (`residues`), and modulus-of-continuity
probes at negative regularity (`continuity`).  Every public name below is
reached by a `bonft` subcommand; the reference implementations the tests
compare against live in `tests/oracles.py`.
"""

from .birkhoff import BirkhoffState, birkhoff_forward, state_from_json, state_to_json
from .errors import (BranchCutError, DegenerateProduct, DegenerateProjector,
                     InversionFailure, NumericalFailure, OutOfNeighborhood,
                     PropertyViolation, TruncationWarning)
from .flow import evolve, invert, solve_trajectory
from .hardy import Potential, potential_from_json, potential_to_json
from .lax import SpectralData, gaps, spectrum
from .residues import sweep_combi, sweep_vanishing

__version__ = "0.1.0"

__all__ = [
    "BirkhoffState", "BranchCutError", "DegenerateProduct", "DegenerateProjector",
    "InversionFailure", "NumericalFailure", "OutOfNeighborhood", "Potential",
    "PropertyViolation", "SpectralData", "TruncationWarning", "birkhoff_forward",
    "evolve", "gaps", "invert", "potential_from_json", "potential_to_json",
    "solve_trajectory", "spectrum", "state_from_json", "state_to_json",
    "sweep_combi", "sweep_vanishing",
]
