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
aligning the two retained subspaces with W = V_perturbed^dag V_exact;
chi_between_thresholds takes the same stacks as top_k_ground_energies, and
eigenangle_check evaluates the theorem's assumptions for a whole chi array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBasisError, IllPosedError

_DEGENERACY_RTOL = 1e-10


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class ThresholdResult:
    """Reduced pair after discarding small overlap-matrix directions."""

    A: np.ndarray
    B: np.ndarray
    V_kept: np.ndarray  # n x n_eps, columns orthonormal

    @property
    def n_eps(self) -> int:
        return self.A.shape[0]

    @property
    def b_diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.B))


@dataclass(frozen=True)
class GevpSolution:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, B-orthonormal
    d0: float
    degenerate_lowest: bool

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def _project(
    h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, keep: np.ndarray
) -> ThresholdResult:
    """Reduced pair on the overlap eigenvectors `keep`, in the order given."""
    v_kept = vecs[:, keep]
    a = _hermitize(v_kept.conj().T @ h @ v_kept)
    b = np.diag(vals[keep]).astype(complex)
    return ThresholdResult(A=a, B=b, V_kept=v_kept)


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
    return _project(h, vals, vecs, keep)


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
    return _project(h, vals, vecs, keep)


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
    degenerate = False
    if len(energies) >= 2:
        scale = max(1.0, abs(float(energies[0])))
        degenerate = float(energies[1] - energies[0]) <= _DEGENERACY_RTOL * scale
    return GevpSolution(
        eigenvalues=energies,
        eigenvectors=vectors,
        d0=d0,
        degenerate_lowest=degenerate,
    )


# ---------------------------------------------------------------------------
# Stacks of trials from a given overlap eigendecomposition
# ---------------------------------------------------------------------------


def _reduced_groups(h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, k: np.ndarray):
    """(rows, w, V^dag, A) per retained dimension of a (T, n, n) stack.

    (vals, vecs) = eigh of the overlap stack, so trial t's top k[t]
    directions are the columns n - 1, ..., n - k[t], kept in that order as
    basis_thresholding keeps them (top_k_thresholding too, except on exact
    ties).  The trials `rows` share one k > 0: w holds their (g, k) kept
    eigenvalues, V^dag the (g, k, n) adjoints of the kept columns, and
    A = herm(V^dag H V) their reduced H.  Trials with k = 0 are in no group.
    """
    n = vals.shape[1]
    for dim in set(k.tolist()) - {0}:
        rows = np.flatnonzero(k == dim)
        keep = np.arange(n - 1, n - 1 - dim, -1)
        vh = vecs[rows[:, None], :, keep].conj()
        with np.errstate(all="ignore"):
            a = _hermitize(vh @ h[rows] @ vh.conj().swapaxes(1, 2))
        yield rows, vals[rows[:, None], keep], vh, a


def top_k_ground_energies(
    h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Ground energy of each trial's pair reduced to its top k[t] overlap directions.

    The reduced B is diag(w) of the kept eigenvalues, so B^{-1/2} is the
    diagonal d and the symmetrized pair is (d A) d: the same floating-point
    operations as solve_gevp's products with its diagonal inv_sqrt, without
    eigh(B).  The trials sharing a k are solved as one stack, and a trial gets
    the same bits in a stack of any size.  Entry t equals
    top_k_thresholding(h[t], s[t], k[t]) then solve_gevp, bit for bit, when
    S's largest eigenvalue is of order 1, as for every sampled S~ (diagonal
    e^{-lambda}).  It is nan where k[t] = 0 and where the symmetrized pair is
    not finite: a kept eigenvalue <= 0 makes d inf or nan, and one below about
    1e-150 overflows the pair (solve_gevp raises IllPosedError).
    """
    energies = np.full(len(k), math.nan)
    for rows, w, _, a in _reduced_groups(h, vals, vecs, k):
        with np.errstate(all="ignore"):
            d = w**-0.5
            sym = _hermitize((d[:, :, None] * a) * d[:, None, :])
        ok = np.isfinite(sym).all(axis=(1, 2))
        if ok.any():
            energies[rows[ok]] = np.linalg.eigh(sym[ok])[0][:, 0]
    return energies


def chi_between_thresholds(
    ex: ThresholdResult, h: np.ndarray, vals: np.ndarray, vecs: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """chi of each trial's pair reduced to its top k[t] directions, against `ex`.

    Trial t's reduced pair (A~, B~ = diag(w)) is conjugated by W = V~^dag V,
    with V = ex.V_kept, before differencing in the exact basis, which removes
    the arbitrary basis rotation between the two eigendecompositions:
    chi = hypot(|W^dag A~ W - A|_2, |W^dag B~ W - B|_2).  k[t] may differ
    from ex.n_eps.  nan where k[t] = 0.
    """
    chi = np.full(len(k), math.nan)
    for rows, w, vh, a in _reduced_groups(h, vals, vecs, k):
        x = vh @ ex.V_kept  # W per trial, (g, k, n_eps)
        xh = x.conj().swapaxes(1, 2)
        da = np.linalg.norm(xh @ a @ x - ex.A, 2, axis=(1, 2))
        db = np.linalg.norm((xh * w[:, None, :]) @ x - ex.B, 2, axis=(1, 2))
        chi[rows] = [math.hypot(*pair) for pair in zip(da.tolist(), db.tolist())]
    return chi


# ---------------------------------------------------------------------------
# Eigenangle perturbation theorem bookkeeping
# ---------------------------------------------------------------------------


def eigenangle_check(
    exact_sol: GevpSolution, chi: np.ndarray, lambda_min: float
) -> tuple[np.ndarray, np.ndarray]:
    """The perturbation theorem's two assumptions, per entry of a chi array.

    chi_small: sqrt(2) n chi <= lambda_min.  angle_gap: the exact eigenangle
    gap |arctan E1 - arctan E0| >= arcsin(n chi / lambda_min); with n = 1
    there is no second angle to collide with, and only the arcsine argument
    must be at most 1.  n, E0, E1 and lambda_min (the smallest eigenvalue of
    the reduced B) are the exact pair's.  Both flags are False where chi is
    nan.  Under them the theorem bounds |arctan E0 - arctan E0~| by
    arcsin(n chi / d0); which trials qualify is the perturbation-bound
    driver's rule, which adds its own flags to these.
    """
    n_eps = len(exact_sol.eigenvalues)
    chi_small = math.sqrt(2.0) * n_eps * chi <= lambda_min
    gap_arg = n_eps * chi / lambda_min
    if n_eps < 2:
        return chi_small, gap_arg <= 1.0
    angles = np.arctan(exact_sol.eigenvalues)
    gap = abs(angles[1] - angles[0])
    with np.errstate(invalid="ignore"):  # arcsin of an argument above 1
        return chi_small, (gap_arg <= 1.0) & (gap >= np.arcsin(gap_arg))
