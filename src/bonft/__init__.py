"""Birkhoff coordinates for the periodic Benjamin-Ono equation.

The pipeline: truncated Lax spectra (`lax`), the coordinate map and its
scaling chain (`birkhoff`), linear evolution and Broyden inversion
(`flow`), an independent pseudospectral integrator (`pde`), the exact
residue and partition verifiers (`residues`), and modulus-of-continuity
probes at negative regularity (`continuity`).
"""

from .birkhoff import (BirkhoffState, actions, birkhoff_forward, d0_phi,
                       observables, state_from_json, state_to_json)
from .errors import (AliasingError, BranchCutError, DegenerateProduct,
                     DegenerateProjector, DivergenceError, InversionFailure,
                     NumericalFailure, OutOfNeighborhood, PropertyViolation,
                     TruncationWarning)
from .flow import FlowConfig, evolve, frequencies, invert, solve_trajectory
from .hardy import (HardyVector, Potential, SeqState, involute, pair,
                    potential_from_json, potential_to_json, sobolev_norm)
from .lax import SpectralData, assemble_lax, gaps, spectrum
from .residues import (combi_check, delta_series, residue_A, sweep_combi,
                       sweep_vanishing, vanishing_D)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "BirkhoffState", "BranchCutError", "DegenerateProduct",
    "DegenerateProjector", "DivergenceError", "FlowConfig", "HardyVector",
    "InversionFailure", "NumericalFailure", "OutOfNeighborhood", "Potential",
    "PropertyViolation", "SeqState", "SpectralData", "TruncationWarning",
    "actions", "assemble_lax", "birkhoff_forward", "combi_check", "d0_phi",
    "delta_series", "evolve", "frequencies", "gaps", "invert", "involute",
    "observables", "pair", "potential_from_json", "potential_to_json",
    "residue_A", "sobolev_norm", "solve_trajectory", "spectrum",
    "state_from_json", "state_to_json", "sweep_combi", "sweep_vanishing",
    "vanishing_D",
]
