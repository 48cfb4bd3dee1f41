"""Thresholded generalized eigenvalue solving and perturbation magnitudes.

The raw pair (H, S) is ill-conditioned: S is a Gram matrix whose spectrum
decays fast, so noise in the small singular directions wrecks a direct solve.
basis_thresholding projects both matrices onto the eigenvectors of S with
eigenvalue above a cutoff, giving a reduced pair (A, B) with B diagonal and
safely positive.  solve_gevp then symmetrizes with B^{-1/2}.  When only the
ground energy is wanted, top_k_ground_energies solves a whole stack of trials
from their batched eigh(S), each reduced to its own top k directions, so one
decomposition per trial serves every k and the threshold rule.

Perturbations are compared in the eigenangle coordinate arctan(E), where the
conditioning is governed by d0 = |x0^dag (A + iB) x0|.  The deviation between
a perturbed and an exact reduced pair is measured by chi, computed after
aligning the two retained subspaces with W = V_perturbed^dag V_exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyBasisError, IllPosedError

_DEGENERACY_RTOL = 1e-10


def spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class ThresholdResult:
    """Reduced pair after discarding small overlap-matrix directions."""

    A: np.ndarray
    B: np.ndarray
    V_kept: np.ndarray  # n x n_eps, columns orthonormal
    retained_indices: tuple[int, ...]  # positions in the ascending eigh order
    epsilon: float

    @property
    def n_eps(self) -> int:
        return self.A.shape[0]

    @property
    def b_diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.B))


@dataclass(frozen=True)
class GevpSolution:
    eigenvalues: np.ndarray  # ascending
    eigenangles: np.ndarray  # arctan of eigenvalues
    eigenvectors: np.ndarray  # columns, B-orthonormal
    d0: float
    cond_s: float
    degenerate_lowest: bool

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_angle(self) -> float:
        return float(self.eigenangles[0])


def _project(
    h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, keep: np.ndarray, epsilon: float
) -> ThresholdResult:
    """Reduced pair on the overlap eigenvectors `keep`, in the order given."""
    v_kept = vecs[:, keep]
    a = _hermitize(v_kept.conj().T @ h @ v_kept)
    b = np.diag(vals[keep]).astype(complex)
    return ThresholdResult(
        A=a,
        B=b,
        V_kept=v_kept,
        retained_indices=tuple(int(i) for i in keep),
        epsilon=float(epsilon),
    )


def basis_thresholding(h: np.ndarray, s: np.ndarray, epsilon: float) -> ThresholdResult:
    """Project (H, S) onto eigenvectors of S with eigenvalue > epsilon.

    Returns A = V^dag H V and B = V^dag S V = diag of the retained eigenvalues,
    ordered descending.  Raises EmptyBasisError when nothing survives.
    """
    h = np.asarray(h)
    s = np.asarray(s)
    if h.shape != s.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H and S must be square matrices of equal size")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    vals, vecs = np.linalg.eigh(s)
    keep = np.flatnonzero(vals > epsilon)
    if keep.size == 0:
        raise EmptyBasisError(
            f"no overlap eigenvalue exceeds epsilon = {epsilon:g}"
        )
    keep = keep[::-1]  # eigh is ascending; retain descending
    return _project(h, vals, vecs, keep, epsilon)


def top_k_thresholding(h: np.ndarray, s: np.ndarray, k: int) -> ThresholdResult:
    """Keep exactly the k largest overlap directions regardless of magnitude.

    Used by the retained-dimension sweep, where the x-axis is the dimension
    itself rather than a threshold value.  Directions with nonpositive
    eigenvalue are never kept; asking for more raises EmptyBasisError if
    nothing is positive, IllPosedError if k exceeds the positive count.
    """
    h = np.asarray(h)
    s = np.asarray(s)
    if not 1 <= k <= s.shape[0]:
        raise ValueError(f"k must lie in 1..{s.shape[0]}")
    vals, vecs = np.linalg.eigh(s)
    positive = np.flatnonzero(vals > 0)
    if positive.size == 0:
        raise EmptyBasisError("overlap matrix has no positive eigenvalue")
    if positive.size < k:
        raise IllPosedError(
            f"only {positive.size} positive overlap directions, {k} requested"
        )
    keep = np.argsort(vals)[::-1][:k]
    return _project(h, vals, vecs, keep, 0.0)


def solve_gevp(a: np.ndarray, b: np.ndarray) -> GevpSolution:
    """Solve A c = B c E for a positive definite B via B^{-1/2} symmetrization.

    Eigenvalues ascend; eigenvectors are B-orthonormal columns.  d0 is
    |x0^dag (A + iB) x0| for the unit-Euclidean-norm lowest eigenvector.
    Raises IllPosedError when B^{-1/2} A B^{-1/2} overflows, which an
    eigenvalue of B below about 1e-150 can cause.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of equal size")
    b_vals, b_vecs = np.linalg.eigh(b)
    if b_vals[0] <= 0:
        raise IllPosedError(
            f"B is not positive definite (min eigenvalue {b_vals[0]:.3e}); "
            "threshold before solving"
        )
    inv_sqrt = (b_vecs * (b_vals**-0.5)) @ b_vecs.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        sym = _hermitize(inv_sqrt @ a @ inv_sqrt)
    if not np.isfinite(sym).all():
        raise IllPosedError(
            f"B^-1/2 A B^-1/2 is not finite (min eigenvalue of B {b_vals[0]:.3e})"
        )
    energies, y = np.linalg.eigh(sym)
    vectors = inv_sqrt @ y
    x0 = vectors[:, 0]
    x0 = x0 / np.linalg.norm(x0)
    z0 = x0.conj() @ a @ x0 + 1j * (x0.conj() @ b @ x0)
    d0 = float(abs(z0))
    cond_s = float(b_vals[-1] / b_vals[0])
    degenerate = False
    if len(energies) >= 2:
        scale = max(1.0, abs(float(energies[0])))
        degenerate = float(energies[1] - energies[0]) <= _DEGENERACY_RTOL * scale
    return GevpSolution(
        eigenvalues=energies,
        eigenangles=np.arctan(energies),
        eigenvectors=vectors,
        d0=d0,
        cond_s=cond_s,
        degenerate_lowest=degenerate,
    )


# ---------------------------------------------------------------------------
# Ground energies from a given overlap eigendecomposition
# ---------------------------------------------------------------------------


def top_k_ground_energies(
    h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Ground energy of each trial's pair reduced to its top k[t] overlap directions.

    (vals, vecs) = eigh of the (T, n, n) overlap stack, so the top k
    directions are the columns n - 1, ..., n - k, kept in that order as
    basis_thresholding keeps them (top_k_thresholding too, except on exact
    ties).  The reduced B is diag(w) of the kept eigenvalues, so B^{-1/2} is
    the diagonal d and the symmetrized pair is (d A) d: the same
    floating-point operations as solve_gevp's products with its diagonal
    inv_sqrt, without eigh(B).  The trials sharing a k are solved as one
    stack, and a trial gets the same bits in a stack of any size.  Entry t
    equals top_k_thresholding(h[t], s[t], k[t]) then solve_gevp, bit for bit,
    when S's largest eigenvalue is of order 1, as for every sampled S~
    (diagonal e^{-lambda}).  It is nan where k[t] = 0 and where the
    symmetrized pair is not finite: a kept eigenvalue <= 0 makes d inf or
    nan, and one below about 1e-150 overflows the pair (solve_gevp raises
    IllPosedError).
    """
    energies = np.full(len(k), math.nan)
    n = vals.shape[1]
    for dim in set(k.tolist()) - {0}:
        rows = np.flatnonzero(k == dim)
        keep = np.arange(n - 1, n - 1 - dim, -1)
        vh = vecs[rows[:, None], :, keep].conj()  # (g, k, n): V^dag per trial
        with np.errstate(all="ignore"):
            a = _hermitize(vh @ h[rows] @ vh.conj().swapaxes(1, 2))
            d = vals[rows[:, None], keep] ** -0.5
            sym = _hermitize((d[:, :, None] * a) * d[:, None, :])
        ok = np.isfinite(sym).all(axis=(1, 2))
        if ok.any():
            energies[rows[ok]] = np.linalg.eigh(sym[ok])[0][:, 0]
    return energies


# ---------------------------------------------------------------------------
# Perturbation magnitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiResult:
    chi: float
    n_eps_exact: int
    n_eps_perturbed: int

    @property
    def dim_mismatch(self) -> bool:
        return self.n_eps_exact != self.n_eps_perturbed


def chi_between_thresholds(ex: ThresholdResult, pe: ThresholdResult) -> ChiResult:
    """chi for two already-thresholded pairs, differenced in the exact basis.

    The perturbed reduced pair is conjugated by W = V_pert^dag V_exact before
    differencing, which removes the arbitrary basis rotation between the two
    eigendecompositions.  A retained-dimension mismatch is reported via the
    result, not raised.
    """
    w = pe.V_kept.conj().T @ ex.V_kept
    da = w.conj().T @ pe.A @ w - ex.A
    db = w.conj().T @ pe.B @ w - ex.B
    chi = math.hypot(spectral_norm(da), spectral_norm(db))
    return ChiResult(chi=chi, n_eps_exact=ex.n_eps, n_eps_perturbed=pe.n_eps)


# ---------------------------------------------------------------------------
# Eigenangle perturbation theorem bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenangleCheck:
    """One trial's eigenangle-perturbation accounting.

    The error-bound and gap assumptions are evaluated with exact-side
    quantities (lambda_min of the exact reduced B, exact gap).  `bound` is
    None when the arcsine argument exceeds 1.  Which trials qualify is the
    perturbation-bound driver's rule, which adds its own flags to these.
    """

    err_assumption: bool
    gap_assumption: bool
    bound: Optional[float]
    observed: float
    degenerate: bool


def eigenangle_check(
    exact_sol: GevpSolution,
    pert_sol: GevpSolution,
    chi: float,
    lambda_min: float,
) -> EigenangleCheck:
    """Evaluate the perturbation theorem's assumptions and conclusion.

    Assumptions: sqrt(2) n chi <= lambda_min, and the exact eigenangle gap
    |arctan E1 - arctan E0| >= arcsin(n chi / lambda_min).  Conclusion:
    |arctan E0 - arctan E0~| <= arcsin(n chi / d0) with the exact pair's d0.
    """
    n_eps = len(exact_sol.eigenvalues)
    observed = abs(exact_sol.ground_angle - pert_sol.ground_angle)
    err_ok = math.sqrt(2.0) * n_eps * chi <= lambda_min
    gap_arg = n_eps * chi / lambda_min
    if n_eps < 2:
        gap_ok = gap_arg <= 1.0  # no second angle to collide with
    elif gap_arg > 1.0:
        gap_ok = False
    else:
        gap = abs(exact_sol.eigenangles[1] - exact_sol.eigenangles[0])
        gap_ok = gap >= math.asin(gap_arg)
    bound_arg = n_eps * chi / exact_sol.d0
    bound = math.asin(bound_arg) if bound_arg <= 1.0 else None
    return EigenangleCheck(
        err_assumption=bool(err_ok),
        gap_assumption=bool(gap_ok),
        bound=bound,
        observed=float(observed),
        degenerate=exact_sol.degenerate_lowest,
    )
