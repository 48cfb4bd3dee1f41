"""Spectra, particle sectors, and the reference state.

Everything here assumes perfectly simulated dynamics: propagation uses the
eigendecomposition of the Hamiltonian's block on the reference state's
particle-number sector, so e^{-iHt} is exact to floating precision there.
The Hubbard Hamiltonian conserves (N_up, N_down), so that block is all the
dynamics of the reference ever sees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .hamiltonian import build_hubbard_1d, pauli_sum_block


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = V diag(E) V^dag with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(h_dense: np.ndarray) -> Spectrum:
    """Hermitian eigendecomposition with ascending eigenvalues.

    A complex matrix with zero imaginary part, such as the Hubbard sector
    block, is diagonalized in real arithmetic.
    """
    if np.iscomplexobj(h_dense) and not h_dense.imag.any():
        h_dense = h_dense.real
    vals, vecs = np.linalg.eigh(h_dense)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


# ---------------------------------------------------------------------------
# Particle-number sectors and the Hartree-Fock reference
# ---------------------------------------------------------------------------

SECTOR_DIM_CAP = 2048  # admits every filling up to L = 7 (half filling: 1225)


def sector_indices(L: int, n_up: int, n_down: int) -> np.ndarray:
    """Sorted Fock-basis indices with n_up up-spins and n_down down-spins.

    Interleaved mode ordering: mode 2i (qubit 2i) is site-i spin-up, mode
    2i+1 spin-down.  Qubit q occupies bit (n_qubits - 1 - q) of the basis
    index, matching the Kronecker order of pauli_to_dense.  Sectors larger
    than SECTOR_DIM_CAP are refused before anything is allocated.
    """
    if not (0 <= n_up <= L and 0 <= n_down <= L):
        raise ValueError("filling out of range")
    dim = math.comb(L, n_up) * math.comb(L, n_down)
    if dim > SECTOR_DIM_CAP:
        raise ResourceLimitError(
            f"sector ({n_up}, {n_down}) of L = {L} has dimension {dim}, "
            f"above the cap {SECTOR_DIM_CAP}"
        )
    nq = 2 * L

    def occupations(spin: int, count: int) -> np.ndarray:
        bits = [1 << (nq - 1 - (2 * i + spin)) for i in range(L)]
        return np.array(
            [sum(c) for c in itertools.combinations(bits, count)], dtype=np.int64
        )

    return np.sort(np.add.outer(occupations(0, n_up), occupations(1, n_down)).ravel())


def sector_ground_energy(h_dense: np.ndarray, L: int, n_up: int, n_down: int) -> float:
    """Lowest eigenvalue of a dense full-space h restricted to the (n_up, n_down) sector.

    A reference for tests: the drivers take E0 from the sector spectrum.
    """
    idx = sector_indices(L, n_up, n_down)
    block = h_dense[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(block)[0])


def hartree_fock_state(
    L: int, t: float, n_up: int, n_down: int, basis: np.ndarray | None = None
) -> np.ndarray:
    """Ground state of the hopping-only Hamiltonian in the (n_up, n_down) sector.

    Computed by diagonalizing the hopping block on the sector basis; returned
    with unit norm in the coordinates of `basis`, sorted Fock indices that
    contain the sector (default: the full 2^{2L} Fock basis).
    """
    idx = sector_indices(L, n_up, n_down)
    hop = build_hubbard_1d(L, t, 0.0)
    ground = diagonalize(pauli_sum_block(hop, idx)).eigenvectors[:, 0]
    if basis is None:
        basis = np.arange(2 ** (2 * L))
    state = np.zeros(len(basis), dtype=complex)
    state[np.searchsorted(basis, idx)] = ground
    return state / np.linalg.norm(state)
