"""Exact analysis of carry Markov chains for offset and negative-base numeration systems."""

from .carries import (
    ChainSpec,
    StateSpace,
    find_system,
    p_param,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from .eulerian import (
    eulerian_array,
    row_sums,
    stationary,
    triangle_recurrence,
    v_closed,
)
from .exactmath import ExactMatrix, ExactPolynomial, char_poly, determinant
from .numeration import NumerationSystem, RepresentableClass, evaluate, expand
from .simulate import SimConfig, SimResult, run_chain, tv_distance
from .spectral import (
    ChainReport,
    chain_spectrum,
    chain_stationary,
    commutes,
    eigen_matrix,
    spectrum_probe,
    verify_diagonalization,
)
from .uniformsum import interval_prob, irwin_hall_cdf

__version__ = "0.1.0"

__all__ = [
    "ChainReport",
    "ChainSpec",
    "ExactMatrix",
    "ExactPolynomial",
    "NumerationSystem",
    "RepresentableClass",
    "SimConfig",
    "SimResult",
    "StateSpace",
    "chain_spectrum",
    "chain_stationary",
    "char_poly",
    "commutes",
    "determinant",
    "eigen_matrix",
    "eulerian_array",
    "evaluate",
    "expand",
    "find_system",
    "interval_prob",
    "irwin_hall_cdf",
    "p_param",
    "row_sums",
    "run_chain",
    "spectrum_probe",
    "state_space",
    "stationary",
    "transition_matrix",
    "transition_matrix_bruteforce",
    "triangle_recurrence",
    "tv_distance",
    "v_closed",
    "verify_diagonalization",
]
