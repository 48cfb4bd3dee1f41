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

The matrix variance statistic v of a shot plan, by the diagonal-accumulation
and row-sum forms, with its closed-form minimum at the optimal plans and the
expected-norm bound sqrt(2 v log 2n) it controls.  No driver evaluates v: the
drivers' closed-form bound e_Z / sqrt(M) is at least sqrt(2 v log 2n) at the
optimal plans.  The tests check v against brute-force matrix series, the
allocators against its minimum, and the sampled norms' growth in n against
the bound.

Per-trial perturbation accounting: chi, the eigenangle assumption flags and
cond(B) of one thresholded pair at a time, the references for the stacked
`gevp.chi_between_thresholds`, `gevp.eigenangle_check` and the
perturbation-bound driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qksd.evolution import Spectrum
from qksd.hamiltonian import PauliSum, pauli_to_dense
from qksd.krylov import CONSTRUCTIONS


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


# ---------------------------------------------------------------------------
# Matrix variance statistic
# ---------------------------------------------------------------------------


def toeplitz_variance_from_counts(
    counts: np.ndarray, v_z: float, is_hamiltonian: bool
) -> float:
    """v = max_l v_l for a Toeplitz plan with per-element shot totals `counts`.

    counts[k] is the total budget (all configurations and fragments) of
    sequence element k; counts[0] is the diagonal, which S never samples.
    Element variances: sigma_0^2 = 2 V^2 / m_0 (H only), sigma_k^2 = 4 V^2 / m_k.
    The diagonal-accumulation sum counts sigma_k^2 once per index l with
    k <= n - l and once more with k <= l - 1.
    """
    counts = np.asarray(counts, dtype=float)
    n = len(counts)
    sig2 = np.zeros(n)
    if is_hamiltonian:
        sig2[0] = np.inf if counts[0] <= 0 else 2.0 * v_z**2 / counts[0]
    for k in range(1, n):
        sig2[k] = np.inf if counts[k] <= 0 else 4.0 * v_z**2 / counts[k]
    best = 0.0
    for ell in range(1, n + 1):
        v_l = sig2[0]
        for k in range(1, n):
            v_l += sig2[k] * ((k <= n - ell) + (k <= ell - 1))
        best = max(best, v_l)
    return float(best)


def nontoeplitz_variance_from_counts(counts: np.ndarray, v_z: float) -> float:
    """v = max_k of the row-sum form for elementwise sampling.

    counts is an (n, n) array of per-element totals over the upper triangle
    (k <= l); the lower triangle is ignored.  sigma_kk^2 = 2 V^2 / m_kk,
    sigma_kl^2 = 4 V^2 / m_kl for k < l.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.shape[0]
    sig2 = np.zeros((n, n))
    for k in range(n):
        for ell in range(k, n):
            m = counts[k, ell]
            factor = 2.0 if k == ell else 4.0
            val = np.inf if m <= 0 else factor * v_z**2 / m
            sig2[k, ell] = sig2[ell, k] = val
    return float(np.max(np.sum(sig2, axis=1)))


def variance_statistic(plan, v_z: float) -> float:
    """Matrix variance statistic of a ShotPlan (expected-norm control variable).

    The expected spectral norm of the error matrix obeys
    E[norm] <= sqrt(2 v log 2n).
    """
    totals = plan.counts.sum(axis=(1, 2))
    a, b = plan.elements.T
    if plan.target == "H_nontoeplitz":
        per_element = np.zeros((plan.n, plan.n))
        per_element[a, b] = totals
        return nontoeplitz_variance_from_counts(per_element, v_z)
    per_lag = np.zeros(plan.n)
    per_lag[a] = totals
    return toeplitz_variance_from_counts(
        per_lag, v_z, is_hamiltonian=plan.target == "H_toeplitz"
    )


def optimal_variance(m_budget: float, n: int, v_z: float, construction: str,
                     is_hamiltonian: bool = True) -> float:
    """Closed-form minimax value of the variance statistic at budget M."""
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}")
    if construction == "toeplitz":
        delta = 1.0 if is_hamiltonian else 0.0
        return 2.0 * v_z**2 * (math.sqrt(2.0) * (n - 1) + delta) ** 2 / m_budget
    return 2.0 * v_z**2 * n**3 / m_budget


def expected_norm_from_variance(v: float, n: int) -> float:
    """Matrix-series tail bound E[norm] <= sqrt(2 v log 2n)."""
    return math.sqrt(2.0 * v * math.log(2 * n))


# ---------------------------------------------------------------------------
# Per-trial perturbation accounting
# ---------------------------------------------------------------------------
# The chi, assumption flags and cond(B) that `gevp.chi_between_thresholds`,
# `gevp.eigenangle_check` and the perturbation-bound driver compute for whole
# stacks, one thresholded pair at a time, as the driver once computed them.


def chi_reference(ex, pe) -> float:
    """chi for two already-thresholded pairs, differenced in the exact basis.

    The perturbed reduced pair is conjugated by W = V_pert^dag V_exact before
    differencing, which removes the arbitrary basis rotation between the two
    eigendecompositions.
    """
    w = pe.V_kept.conj().T @ ex.V_kept
    da = w.conj().T @ pe.A @ w - ex.A
    db = w.conj().T @ pe.B @ w - ex.B
    return math.hypot(float(np.linalg.norm(da, 2)), float(np.linalg.norm(db, 2)))


def eigenangle_flags_reference(exact_sol, chi: float, lambda_min: float) -> tuple[bool, bool]:
    """(chi_small, angle_gap) of one trial: sqrt(2) n chi <= lambda_min, and
    the exact gap |arctan E1 - arctan E0| >= arcsin(n chi / lambda_min)."""
    n_eps = len(exact_sol.eigenvalues)
    err_ok = math.sqrt(2.0) * n_eps * chi <= lambda_min
    gap_arg = n_eps * chi / lambda_min
    if n_eps < 2:
        gap_ok = gap_arg <= 1.0  # no second angle to collide with
    elif gap_arg > 1.0:
        gap_ok = False
    else:
        angles = np.arctan(exact_sol.eigenvalues)
        gap_ok = abs(angles[1] - angles[0]) >= math.asin(gap_arg)
    return bool(err_ok), bool(gap_ok)


def cond_reference(pe) -> float:
    """cond(B) of a thresholded pair from eigh of its reduced B."""
    b_vals = np.linalg.eigh(pe.B)[0]
    return float(b_vals[-1] / b_vals[0])
