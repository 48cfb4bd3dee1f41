"""Reference implementations kept as test oracles.

Dense full-space propagators: no driver propagates this way, since the
package evolves the reference exactly in its particle-number sector.  These
build the full 2^{2L}-dimensional unitaries, so the tests can check sector
results and Trotter products against them.  With them, the full-space
Toeplitz sequences h_k and s_k from a spectral decomposition, and the
Hartree-Fock reference as a full-space vector from the dense hopping
operator; the package builds both in the reference's sector only.

Kronecker-built fermions: Jordan-Wigner annihilators as dense products of
Z, sigma^- and I, and the Hubbard chain assembled from them, with no Pauli
string in between, so they check the closed-form Pauli terms of
`hamiltonian.build_hubbard_1d`.

Scalar largest-remainder rounding: the loop the row-wise
`sampling._largest_remainder` replaced, one row at a time.  With it, the
row-wise rounding as it ranked each row's queue by a second `np.argsort`,
and the sector's Fock indices as `np.sort` ordered them.  The package
scatters the inverse of each row's order and sorts the indices with
Python's `sorted()`, so that no run touches numpy's sort kernels; it must
reproduce both exactly.

The matrix variance statistic v of a shot plan, by the diagonal-accumulation
and row-sum forms, with its closed-form minimum at the optimal plans and the
expected-norm bound sqrt(2 v log 2n) it controls; and the exact variance of
a gaussian sampler's error matrix, from its stacks at unit draws, which the
statistic bounds.  No driver evaluates v: the drivers' closed-form bound
e_Z / sqrt(M) is at least sqrt(2 v log 2n) at the optimal plans.  The tests
check v against brute-force matrix series, the allocators against its
minimum, and the sampled norms' growth in n against the bound.

Per-trial perturbation accounting: chi, the eigenangle assumption flags and
cond(B) of one thresholded pair at a time, the references for the stacked
`gevp.chi_between_thresholds`, `gevp.eigenangle_check` and the
perturbation-bound driver.

One-plan pair sampling: the (H~, S~) stacks of one budget's plans from the
one-plan ensembles, which the drivers' cells, sharing a block's draws over
their budgets, reproduce at each budget.

The per-cell trial chunk: one cell's block drawn by its own samplers, the
chunk the drivers ran before a job (a run of cells of one kind and
construction) drew each gaussian matrix once for all of its Krylov orders.

The complex path of Hermitian Toeplitz matrices: the package builds every
Toeplitz matrix, sampled or exact, in real form (`krylov.toeplitz_real_form`)
and decomposes it with real eigh.  `complex_path` runs the drivers on the
same draws with each Toeplitz matrix built as `krylov.toeplitz_matrix` of its
sequence instead, so every overlap eigh and Toeplitz solve is complex.

The gather-built real form and the grid-reduced binomial estimates: the
package builds a real form from strided windows of its sequences, and
reduces each trial's binomial fragment counts into its estimates one trial
at a time.  `take_real_form` gathers both terms through index grids into a
full (..., n, n) temporary, and `grid_binomial_estimates` draws a block's
counts into a (T, P, 2, J) float grid and reduces its complex copy in one
stacked product; the package's forms must reproduce both bit for bit.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from qksd.evolution import Spectrum, diagonalize, sector_indices
from qksd.hamiltonian import PauliSum, build_hubbard_1d, pauli_to_dense
from qksd import rngstream
from qksd.harness import drivers
from qksd.krylov import CONSTRUCTIONS, KrylovConfig, toeplitz_matrix
from qksd.sampling import (
    Sampler,
    expected_pair,
    sample_hamiltonian_ensemble,
    sample_overlap_ensemble,
)


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


@dataclass(frozen=True)
class ToeplitzSequences:
    """h_k and s_k for k = 0..n-1; negative indices follow by conjugation."""

    h: np.ndarray
    s: np.ndarray


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


def hartree_fock_full(L: int, t: float, n_up: int, n_down: int) -> np.ndarray:
    """The hopping-only ground state of the (n_up, n_down) sector as a unit
    vector of the full 2^{2L} Fock basis: the dense hopping operator's sector
    block, diagonalized and scattered onto the sector's indices."""
    idx = sector_indices(L, n_up, n_down)
    hop = pauli_to_dense(build_hubbard_1d(L, t, 0.0))[np.ix_(idx, idx)]
    state = np.zeros(4**L, dtype=complex)
    state[idx] = diagonalize(hop).eigenvectors[:, 0]
    return state / np.linalg.norm(state)


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


def argsort_largest_remainder(ideals: np.ndarray, totals) -> np.ndarray:
    """`sampling._largest_remainder` with each row's queue places ranked by
    a second argsort, the inverse of its stable order."""
    ideals = np.asarray(ideals, dtype=float)
    floors = np.floor(ideals).astype(np.int64)
    rem = np.asarray(totals, dtype=np.int64) - floors.sum(axis=-1)
    if np.any(rem < 0):
        raise ValueError("ideals exceed the total")
    order = np.argsort(-(ideals - floors), axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)
    laps, extra = np.divmod(rem[..., None], ideals.shape[-1])
    return floors + laps + (rank < extra)


def numpy_sorted_sector_indices(L: int, n_up: int, n_down: int) -> np.ndarray:
    """`evolution.sector_indices` as numpy sorted it: the outer sum of the
    up and down occupations, raveled and passed to `np.sort`."""
    nq = 2 * L

    def occupations(spin: int, count: int) -> np.ndarray:
        bits = [1 << (nq - 1 - (2 * i + spin)) for i in range(L)]
        return np.array(
            [sum(c) for c in itertools.combinations(bits, count)], dtype=np.int64
        )

    return np.sort(np.add.outer(occupations(0, n_up), occupations(1, n_down)).ravel())


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


def matrix_series_terms(sampler: Sampler, i: int) -> np.ndarray:
    """The (C, n, n) terms D_c of a gaussian sampler's error matrix at budget
    i, a Gaussian matrix series sum_c z_c D_c with one Hermitian
    D_c = sigma_c A_c per filled (element, configuration) c: the stack at the
    unit draw e_c less the stack at no draw, as `Sampler.stack` is affine in
    the draws."""
    cols = sampler.cols.size
    return sampler.stack(np.eye(cols), i) - sampler.stack(np.zeros((1, cols)), i)


def exact_matrix_variance(sampler: Sampler, i: int) -> float:
    """The exact matrix variance v = ||sum_c D_c D_c|| of a gaussian
    sampler's error matrix at budget i (`matrix_series_terms`).  D_c is
    squared as D_c D_c, not D_c D_c^T, which differs for the complex
    elementwise H.  A Toeplitz stack's real form is unitarily similar to its
    matrix, so v is the same in either form."""
    terms = matrix_series_terms(sampler, i)
    return float(np.abs(np.linalg.eigvalsh(np.einsum("cij,cjk->ik", terms, terms))).max())


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


def sample_pair(targets, plan_h, plan_s, noise, trials, first_trial=0):
    """Sample `trials` independent pairs (H~, S~) as (T, n, n) stacks."""
    return (
        sample_hamiltonian_ensemble(targets, plan_h, noise, trials, first_trial),
        sample_overlap_ensemble(targets, plan_s, noise, trials, first_trial),
    )


# ---------------------------------------------------------------------------
# The per-cell trial chunk
# ---------------------------------------------------------------------------


def per_cell_chunk(columns_of, args, rng):
    """A cell's trial chunk: draw the block (start, count) once per sampled
    matrix with the cell's own samplers, then return columns_of(args,
    stacks, i) for each feasible budget i in turn, where stacks maps "H" and
    "S" to the block's stacks at budget i."""
    start, count = rng
    samplers = args[0].samplers
    draws = {z: sampler.draw(count, start) for z, sampler in samplers.items()}
    return tuple(
        column
        for i in range(len(args[0].feasible))
        for column in columns_of(
            args, {z: sampler.stack(draws[z], i) for z, sampler in samplers.items()}, i
        )
    )


# ---------------------------------------------------------------------------
# The complex path of Hermitian Toeplitz matrices
# ---------------------------------------------------------------------------

_SAMPLER_STACK = Sampler.stack


def exchange_unitary(n: int) -> np.ndarray:
    """Q = (I + iJ)/sqrt(2), J the n x n exchange matrix: T = Q R Q^H for the
    real form R of a Hermitian Toeplitz T."""
    return (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2.0)


def complex_expected_pair(targets, hardware_lambda: float = 0.0):
    """`sampling.expected_pair` with S and the Toeplitz H as complex Hermitian
    Toeplitz matrices of their sequences, in the sampled basis."""
    decay = math.exp(-hardware_lambda)
    s_true = decay * targets.s_seq
    if targets.construction == "toeplitz":
        h_seq = targets.betas @ (decay * targets.frag) + targets.id_coeff * s_true
        h_mat = toeplitz_matrix(h_seq)
    else:
        h_mat = expected_pair(targets, hardware_lambda)[0]  # the sampled basis already
    return h_mat, toeplitz_matrix(s_true)


def complex_stack(sampler: Sampler, draws: np.ndarray, i: int) -> np.ndarray:
    """`Sampler.stack` with a Toeplitz target's stack built as toeplitz_matrix
    of its sampled sequences: the same estimates, in the sampled basis."""
    if sampler.target == "H_nontoeplitz":
        return _SAMPLER_STACK(sampler, draws, i)
    vals = sampler.estimates(draws, i)
    if sampler.target == "S_toeplitz":  # lags 1..n-1; the diagonal is known
        seq = np.tile(sampler.s_true, (len(vals), 1))
        seq[:, 1:] = vals
    else:  # lags 0..n-1
        seq = vals + sampler.shift
    return toeplitz_matrix(seq)


@contextmanager
def complex_path():
    """Drivers run on the complex path inside the block: their sampled and
    exact Toeplitz matrices are complex Hermitian Toeplitz, so every overlap
    eigh and Toeplitz solve is complex.  Forked trial children inherit the
    patch, so it holds at any worker count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sampler, "stack", complex_stack)
        patch.setattr(drivers, "expected_pair", complex_expected_pair)
        yield


# ---------------------------------------------------------------------------
# The gather-built real form and the grid-reduced binomial estimates
# ---------------------------------------------------------------------------


def take_real_form(seq: np.ndarray) -> np.ndarray:
    """`krylov.toeplitz_real_form` by two index-grid gathers: the symmetric
    Toeplitz matrix in Re t, plus a gathered (..., n, n) Hankel matrix in
    -sgn(m) Im t_|m|, m = n-1-k-l, added in place."""
    n = seq.shape[-1]
    grid = np.arange(n)
    out = np.take(seq.real, np.abs(np.subtract.outer(grid, grid)), axis=-1)
    imag = seq.imag
    # -sgn(m) Im t_|m| at position n-1+m, for m = -(n-1)..n-1
    hankel = np.concatenate([imag[..., :0:-1], np.zeros_like(imag[..., :1]), -imag[..., 1:]], -1)
    out += np.take(hankel, 2 * (n - 1) - np.add.outer(grid, grid), axis=-1)
    return out


def grid_binomial_estimates(sampler: Sampler, plan, draws: np.ndarray, i: int) -> np.ndarray:
    """A binomial `Sampler.estimates` at budget i through the whole block's
    (T, P, 2, J) float grid: each trial's counts drawn into the coordinates
    plan.counts samples, then sum_j beta_j (Re + i Im) of the grid's complex
    (T, P, J) copy."""
    sampled = plan.counts > 0
    m = sampler.shots[i]
    est = np.zeros((len(draws),) + sampled.shape)
    for row, gen in zip(est, rngstream.streams(draws)):
        row[sampled] = 2.0 * gen.binomial(m, sampler.p) / m - 1.0
    return (est[:, :, 0, :] + 1j * est[:, :, 1, :]) @ sampler.betas
