"""Molecular-mechanics toolkit for periodic zigzag nanotubes: geometry
construction, configurational energy, reduced-energy minimization, stability
ensembles, fracture thresholds, and cell-level convexity checks."""

from . import cells, cellspec, energy, fracture, geometry, potentials, pxyz, reduced, stability
from .energy import bond_graph, family_energy, gradient, total_energy
from .geometry import Nanotube, ZigzagGeometry, build_nanotube, gamma, solve_family
from .potentials import PotentialSet, default_soft, default_stiff, validate
from .pxyz import read_pxyz, write_pxyz
from .reduced import (
    ReferenceAngles,
    beta,
    beta_derivatives,
    minimize_family,
    reduced_energy,
    reference_angles,
    sym_energy,
)
from .stability import PerturbationSpec, stability_trial

__version__ = "0.1.0"

__all__ = [
    "Nanotube",
    "PerturbationSpec",
    "PotentialSet",
    "ReferenceAngles",
    "ZigzagGeometry",
    "beta",
    "beta_derivatives",
    "bond_graph",
    "build_nanotube",
    "cells",
    "cellspec",
    "default_soft",
    "default_stiff",
    "energy",
    "family_energy",
    "fracture",
    "gamma",
    "geometry",
    "gradient",
    "minimize_family",
    "potentials",
    "pxyz",
    "read_pxyz",
    "reduced",
    "reduced_energy",
    "reference_angles",
    "solve_family",
    "stability",
    "stability_trial",
    "sym_energy",
    "total_energy",
    "validate",
    "write_pxyz",
]
