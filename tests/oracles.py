"""Reference implementations kept as test oracles.

Dense full-space propagators: no driver propagates this way, since the
package evolves the reference exactly in its particle-number sector.  These
build the full 2^{2L}-dimensional unitaries, so the tests can check sector
results and Trotter products against them.

Kronecker-built fermions: Jordan-Wigner annihilators as dense products of
Z, sigma^- and I, and the Hubbard chain assembled from them, with no Pauli
string in between, so they check the closed-form Pauli terms of
`hamiltonian.build_hubbard_1d`.

Scalar largest-remainder rounding: the loop the row-wise
`sampling._largest_remainder` replaced, one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qksd.evolution import Spectrum
from qksd.hamiltonian import PauliSum, pauli_to_dense


@dataclass(frozen=True)
class Propagator:
    """Unitary time-evolution matrix with provenance metadata."""

    matrix: np.ndarray
    time: float
    kind: str  # "exact" or "trotter"
    steps: int = 0  # Trotter repetitions; 0 for exact
    n_fragments: int = 0  # non-identity terms in the Trotter product


def exact_propagator(spec: Spectrum, t: float) -> Propagator:
    """U(t) = V diag(e^{-iE t}) V^dag."""
    phases = np.exp(-1j * spec.eigenvalues * t)
    u = (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
    return Propagator(matrix=u, time=t, kind="exact")


def _term_exponential(coeff: float, dense_string: np.ndarray, t: float) -> np.ndarray:
    # exp(-i c t P) = cos(ct) I - i sin(ct) P for any Pauli string P (P^2 = I).
    angle = coeff * t
    dim = dense_string.shape[0]
    return np.cos(angle) * np.eye(dim, dtype=complex) - 1j * np.sin(angle) * dense_string


def trotter_propagator(h: PauliSum, t: float, steps: int) -> Propagator:
    """First-order product of per-Pauli-term exponentials, repeated `steps` times.

    The identity term commutes with everything and is applied as an exact
    global phase.  Error versus the exact propagator falls off as 1/steps.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    terms = h.non_identity_terms
    dim = 2**h.n_qubits
    dt = t / steps
    one_step = np.eye(dim, dtype=complex)
    for coeff, string in terms:
        one_step = _term_exponential(coeff, pauli_to_dense(string), dt) @ one_step
    u = np.linalg.matrix_power(one_step, steps)
    u = np.exp(-1j * h.identity_coefficient * t) * u
    return Propagator(
        matrix=u, time=t, kind="trotter", steps=steps, n_fragments=len(terms)
    )


_I2 = np.eye(2, dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def jw_annihilation_dense(mode: int, n_modes: int) -> np.ndarray:
    """a_p = Z^{otimes p} (x) sigma^- (x) I^{otimes rest}, qubit 0 leftmost."""
    out = np.array([[1.0 + 0j]])
    for q in range(n_modes):
        out = np.kron(out, _Z if q < mode else _LOWER if q == mode else _I2)
    return out


def hubbard_dense_oracle(L: int, t: float, u: float) -> np.ndarray:
    """The open 1D Hubbard chain from dense annihilators, spin-up on even modes."""
    n = 2 * L
    a = [jw_annihilation_dense(p, n) for p in range(n)]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(L - 1):
        for s in (0, 1):
            p, q = 2 * i + s, 2 * (i + 1) + s
            h -= t * (a[p].conj().T @ a[q] + a[q].conj().T @ a[p])
    for i in range(L):
        n_up = a[2 * i].conj().T @ a[2 * i]
        n_dn = a[2 * i + 1].conj().T @ a[2 * i + 1]
        h += u * (n_up @ n_dn)
    return h


def largest_remainder(ideals: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative ideals to integers preserving their sum exactly.

    Remainder shots go to the largest fractional parts; ties break by
    position, i.e. canonical element order.
    """
    ideals = np.asarray(ideals, dtype=float)
    floors = np.floor(ideals).astype(np.int64)
    rem = int(total - floors.sum())
    if rem < 0:
        raise ValueError("ideals exceed the total")
    if rem:
        fracs = ideals - floors
        order = sorted(range(len(ideals)), key=lambda i: (-fracs[i], i))
        for i in range(rem):
            floors[order[i % len(order)]] += 1
    return floors
