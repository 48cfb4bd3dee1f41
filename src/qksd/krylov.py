"""Projected matrix pairs (H, S) on the real-time Krylov basis.

The basis is |phi_k> = U(k*dt)|phi_0> over the symmetric index grid
k in {-floor(n/2), ..., +floor(n/2)}.  Because matrix entries depend only on
index differences when U commutes with H, the Toeplitz sequences

    h_k = <phi_0|H U(k*dt)|phi_0>,   s_k = <phi_0|U(k*dt)|phi_0>

for k = 0..n-1 determine the whole pair; the symmetric grid is absorbed as a
relabeling.  The non-Toeplitz mode instead fills H elementwise from the basis
states, which matters once the propagator only approximately commutes with H
(Trotterization) or when each element is sampled independently.

The exact values behind every measurement, s_k and each fragment U_j's
overlaps, come from one pass over the spectrum of the reference's particle
sector, with U_j applied to the Krylov columns as a projected Pauli sum and
never as a full-space operator.

A Hermitian Toeplitz matrix T is centro-Hermitian, so with Q = (I + iJ)/sqrt(2),
J the exchange matrix, R = Q^H T Q is real symmetric with T's eigenvalues
(A. Lee, Linear Algebra Appl. 29 (1980) 205-210).  The package builds every
Toeplitz matrix, sampled or exact, S or H, straight from its sequence in this
real form (`toeplitz_real_form`), so its eigendecompositions and solves are
real; `from_real_form` maps R's eigenvectors to T's.  `toeplitz_matrix`
builds the complex T, which only the exact elementwise H's identity term needs.
"""

from __future__ import annotations

import math
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


def toeplitz_matrix(seq: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with entry (k,l) = seq[l-k], conjugated below.

    Works over the last axis: a (..., n) stack of sequences gives a
    C-contiguous (..., n, n) stack of matrices, so each matrix has the same
    layout however many the stack holds.  The lower triangle is conjugated in
    place, so the result is the only (..., n, n) array built.
    """
    n = seq.shape[-1]
    idx = np.subtract.outer(np.arange(n), np.arange(n))  # idx[k,l] = k - l
    out = np.take(seq, np.abs(idx), axis=-1)
    np.conjugate(out, out=out, where=idx > 0)
    return out


def toeplitz_real_form(seq: np.ndarray) -> np.ndarray:
    """Q^H T Q, real symmetric, of the Hermitian Toeplitz T = toeplitz_matrix(seq).

    Q = (I + iJ)/sqrt(2), with J the exchange matrix.  T is centro-Hermitian
    (J conj(T) J = T), so R = Q^H T Q is real: a symmetric Toeplitz matrix in
    Re t plus a Hankel matrix in Im t,

        R[k, l] = Re t_|k-l| - sgn(n-1-k-l) Im t_|n-1-k-l|,

    with T's eigenvalues; T's eigenvectors are Q w for R's eigenvectors w
    (`from_real_form`).  Works over the last axis as toeplitz_matrix does:
    both terms are length-n windows of (..., 2n - 1) sequences (`_windows`),
    so one copy and one in-place add give a C-contiguous (..., n, n) float
    stack, which owns its data, and no other (..., n, n) array is built.
    """
    n = seq.shape[-1]
    real, imag = seq.real, seq.imag
    # Re t_|m| at position n-1+m, for m = -(n-1)..n-1: row k is the window at n-1-k
    mirrored = np.concatenate([real[..., :0:-1], real], -1)
    out = _windows(mirrored, n - 1, -1).copy()
    # sgn(m) Im t_|m| at position n-1+m: row k is the window at k
    hankel = np.concatenate([-imag[..., :0:-1], np.zeros_like(imag[..., :1]), imag[..., 1:]], -1)
    out += _windows(hankel, 0, 1)
    return out


def _windows(seq: np.ndarray, first: int, step: int) -> np.ndarray:
    """The read-only (..., n, n) view of a C-contiguous (..., 2n - 1) stack
    of sequences whose row k is the length-n window at first + step k: one
    strided view, built directly."""
    n, unit = (seq.shape[-1] + 1) // 2, seq.itemsize
    strides = (*seq.strides[:-1], step * unit, unit)
    view = np.ndarray((*seq.shape[:-1], n, n), seq.dtype, seq, first * unit, strides)
    view.flags.writeable = False
    return view


def from_real_form(w: np.ndarray) -> np.ndarray:
    """Q w = (w + iJw)/sqrt(2): vectors of a real form (`toeplitz_real_form`),
    columns over axis -2 as eigh returns them, in the Toeplitz matrix's basis."""
    w = w * math.sqrt(0.5)
    out = np.empty(w.shape, dtype=complex)
    out.real, out.imag = w, w[..., ::-1, :]
    return out


def measurement_targets(
    spec: Spectrum,
    partition: UnitaryPartition,
    id_coeff: float,
    ref_state: np.ndarray,
    cfg: KrylovConfig,
    construction: str,
    basis: np.ndarray,
) -> MeasurementTargets:
    """Exact overlap sequence and per-fragment Hadamard-test values.

    `spec` and `ref_state` are in the coordinates of the sorted Fock indices
    `basis`, an H-invariant sector holding the reference.  One spectral pass,
    amplitudes gamma_j = <psi_j|phi_0> and phases e^{-i E_j k dt}, gives both
    s_k = sum_j |gamma_j|^2 e^{-i E_j k dt} and the Krylov columns U(k dt)|phi_0>.
    Fragments U_j are Hermitian unitaries, applied matrix-free to the columns
    as projected Pauli sums, so <phi|U_j U(k dt)|phi> = (U_j phi)^dag
    (U(k dt) phi); all overlaps lie in the closed unit disk.
    """
    amps = spec.eigenvectors.conj().T @ ref_state
    energies = spec.eigenvalues * cfg.dt
    phases = np.exp(-1j * np.outer(energies, np.arange(cfg.n)))  # lags 0..n-1
    s_seq = np.abs(amps) ** 2 @ phases
    s_seq[0] = 1.0  # normalization, exact by construction
    sums = [g.members for g in partition.groups]  # each fragment's Pauli terms
    if construction == "toeplitz":
        psi = spec.eigenvectors @ (phases * amps[:, None])  # columns U(k dt)|phi_0>
        frag = np.array([apply_pauli_sum(m, basis, ref_state).conj() @ psi for m in sums])
    elif construction == "nontoeplitz":
        phases = np.exp(-1j * np.outer(energies, cfg.grid))
        psi = spec.eigenvectors @ (phases * amps[:, None])
        frag = np.array([psi.conj().T @ apply_pauli_sum(m, basis, psi) for m in sums])
        frag = 0.5 * (frag + np.transpose(frag, (0, 2, 1)).conj())
    else:
        raise ValueError(f"unknown construction {construction!r}")
    return MeasurementTargets(
        construction=construction,
        config=cfg,
        betas=partition.betas,
        id_coeff=id_coeff,
        s_seq=s_seq,
        frag=frag,
    )
