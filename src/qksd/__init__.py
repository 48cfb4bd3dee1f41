"""Exact-simulation laboratory for sampled Krylov-pair diagonalization.

The package builds projected Hamiltonian/overlap pairs for small
Fermi-Hubbard chains, injects measurement noise that is statistically
faithful to Hadamard-test estimation under optimal shot allocations,
solves the thresholded generalized eigenvalue problem, and checks the
resulting ground-energy error against a priori bounds.

The top level re-exports the calls of the README's Python API; everything
else is imported from its module (`qksd.sampling`, `qksd.gevp`, ...).
"""

from .bounds import optimal_epsilon
from .gevp import basis_thresholding, solve_gevp
from .sampling import NoiseSpec, allocate_toeplitz, sample_ensemble, split_budget

__version__ = "0.1.0"

__all__ = [
    "NoiseSpec",
    "allocate_toeplitz",
    "basis_thresholding",
    "optimal_epsilon",
    "sample_ensemble",
    "solve_gevp",
    "split_budget",
]
