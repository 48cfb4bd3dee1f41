"""Projected matrix pairs (H, S) on the real-time Krylov basis.

The basis is |phi_k> = U(k*dt)|phi_0> over the symmetric index grid
k in {-floor(n/2), ..., +floor(n/2)}.  Because matrix entries depend only on
index differences when U commutes with H, the Toeplitz sequences

    h_k = <phi_0|H U(k*dt)|phi_0>,   s_k = <phi_0|U(k*dt)|phi_0>

for k = 0..n-1 determine the whole pair; the symmetric grid is absorbed as a
relabeling.  The non-Toeplitz mode instead fills H elementwise from the basis
states, which matters once the propagator only approximately commutes with H
(Trotterization) or when each element is sampled independently.

The exact values behind every measurement are computed in the reference
state's particle-number sector: the spectrum is that sector's block, and the
fragments U_j act on the Krylov columns as projected Pauli sums, without a
full-space operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import Spectrum
from .hamiltonian import UnitaryPartition, apply_pauli_sum

CONSTRUCTIONS = ("toeplitz", "nontoeplitz")


@dataclass(frozen=True)
class KrylovConfig:
    """Krylov order and time step; the index grid is symmetric about zero."""

    n: int
    dt: float

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError("Krylov order n must be odd and >= 1")
        if not self.dt > 0:
            raise ValueError("time step must be positive")

    @property
    def grid(self) -> np.ndarray:
        half = self.n // 2
        return np.arange(-half, half + 1)


@dataclass(frozen=True)
class ToeplitzSequences:
    """h_k and s_k for k = 0..n-1; negative indices follow by conjugation."""

    h: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class MeasurementTargets:
    """Exact values behind every Hadamard-test configuration of one system.

    s_seq[k] is the overlap sequence (k = 0..n-1).  In toeplitz mode
    frag[j, k] = <phi_0|U_j U(k*dt)|phi_0>; in nontoeplitz mode
    frag[j, k, l] = <phi_k|U_j|phi_l> over the symmetric grid.  The identity
    coefficient is carried separately: it is never sampled, its contribution
    id_coeff * s_k is added back analytically.
    """

    construction: str
    config: KrylovConfig
    betas: np.ndarray
    id_coeff: float
    s_seq: np.ndarray
    frag: np.ndarray

    @property
    def n(self) -> int:
        return self.config.n


def default_time_step(partition: UnitaryPartition) -> float:
    """dt = pi / (1-norm of partition weights), the widest aliasing-free step."""
    norm = partition.beta_norm
    if not norm > 0:
        raise ValueError("partition weight norm must be positive")
    return float(np.pi / norm)


def exact_sequences(spec: Spectrum, ref_state: np.ndarray, cfg: KrylovConfig) -> ToeplitzSequences:
    """Toeplitz sequences from the spectral decomposition (exact propagators).

    With amplitudes gamma_j = <psi_j|phi_0>, the sequences are
    s_k = sum_j |gamma_j|^2 e^{-i E_j k dt} and h_k carries an extra E_j.
    """
    amps = spec.eigenvectors.conj().T @ ref_state
    weights = np.abs(amps) ** 2
    ks = np.arange(cfg.n)
    phases = np.exp(-1j * np.outer(spec.eigenvalues * cfg.dt, ks))
    s = weights @ phases
    h = (weights * spec.eigenvalues) @ phases
    s[0] = 1.0  # normalization, exact by construction
    h[0] = h[0].real
    return ToeplitzSequences(h=h, s=s)


def toeplitz_matrix(seq: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with entry (k,l) = seq[l-k], conjugated below.

    Works over the last axis: a (..., n) stack of sequences gives a
    C-contiguous (..., n, n) stack of matrices, so each matrix has the same
    layout however many the stack holds.
    """
    n = seq.shape[-1]
    idx = np.subtract.outer(np.arange(n), np.arange(n))  # idx[k,l] = k - l
    base = np.take(seq, np.abs(idx), axis=-1)
    return np.where(idx <= 0, base, base.conj())


def measurement_targets(
    spec: Spectrum,
    partition: UnitaryPartition,
    id_coeff: float,
    ref_state: np.ndarray,
    cfg: KrylovConfig,
    construction: str,
    basis: np.ndarray | None = None,
) -> MeasurementTargets:
    """Exact per-fragment Hadamard-test values on the span of `basis`.

    `spec` and `ref_state` are in the coordinates of the sorted Fock indices
    `basis` (default: the full 2^{n_qubits} Fock basis).  Fragments U_j are
    Hermitian unitaries, so <phi|U_j U(k dt)|phi> = (U_j phi)^dag (U(k dt)
    phi); all overlaps lie in the closed unit disk.  When `basis` spans an
    H-invariant sector holding the reference, every Krylov column lies in it
    and the projected fragments P U_j P give the same values; they are applied
    matrix-free to the block of columns.
    """
    if construction == "toeplitz":
        ks = np.arange(cfg.n)
    elif construction == "nontoeplitz":
        ks = cfg.grid
    else:
        raise ValueError(f"unknown construction {construction!r}")
    if basis is None:
        basis = np.arange(2**partition.n_qubits)
    seq = exact_sequences(spec, ref_state, cfg)
    amps = spec.eigenvectors.conj().T @ ref_state
    phases = np.exp(-1j * np.outer(spec.eigenvalues * cfg.dt, ks))
    psi = spec.eigenvectors @ (phases * amps[:, None])  # columns U(k dt)|phi_0>
    groups = partition.groups
    if construction == "toeplitz":
        frag = np.array(
            [apply_pauli_sum(g.members, basis, ref_state).conj() @ psi for g in groups]
        )
    else:
        frag = np.array(
            [psi.conj().T @ apply_pauli_sum(g.members, basis, psi) for g in groups]
        )
        frag = 0.5 * (frag + np.transpose(frag, (0, 2, 1)).conj())
    return MeasurementTargets(
        construction=construction,
        config=cfg,
        betas=partition.betas,
        id_coeff=id_coeff,
        s_seq=seq.s,
        frag=frag,
    )
