"""Closed-form bounds and diagnostics for sampled Krylov matrix pairs.

All formulas are exact evaluations of the non-asymptotic expressions used by
the experiment drivers: expected spectral-norm bounds for the sampling error
matrices, the matrix variance statistic behind them, the optimal truncation
threshold, concentration tails, and the post-threshold eigenvalue perturbation
bound.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .krylov import CONSTRUCTIONS


def _check_construction(construction: str) -> None:
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}")


def error_norm_bound(n: int, v_z: float, construction: str) -> float:
    """Expected-spectral-norm bound e_Z for the optimally sampled error matrix.

    Toeplitz: 2 n V_Z sqrt(2 log 2n).  Non-Toeplitz: 2 n V_Z sqrt(n log 2n).
    The bound on E[norm] is e_Z / sqrt(M_Z) at total budget M_Z.
    """
    _check_construction(construction)
    if n < 1 or v_z <= 0:
        raise ValueError("need n >= 1 and V_Z > 0")
    log2n = math.log(2 * n)
    if construction == "toeplitz":
        return 2.0 * n * v_z * math.sqrt(2.0 * log2n)
    return 2.0 * n * v_z * math.sqrt(n * log2n)


def norm_bound_pair(n: int, beta_norm: float, construction: str) -> tuple[float, float]:
    """(e_H, e_S) with V_H = beta_norm and V_S = 1; S is always Toeplitz."""
    e_h = error_norm_bound(n, beta_norm, construction)
    e_s = error_norm_bound(n, 1.0, "toeplitz")
    return e_h, e_s


def optimal_epsilon(n: int, m_s: float) -> float:
    """Truncation threshold eps = e_S(n) / sqrt(M_S)."""
    if not m_s > 0:
        raise ValueError("M_S must be positive")
    return error_norm_bound(n, 1.0, "toeplitz") / math.sqrt(m_s)


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
    elements, counts = plan.grid()
    totals = counts.sum(axis=(1, 2))
    a, b = elements[:, 0], elements[:, 1]
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
    _check_construction(construction)
    if construction == "toeplitz":
        delta = 1.0 if is_hamiltonian else 0.0
        return 2.0 * v_z**2 * (math.sqrt(2.0) * (n - 1) + delta) ** 2 / m_budget
    return 2.0 * v_z**2 * n**3 / m_budget


def expected_norm_from_variance(v: float, n: int) -> float:
    """Matrix-series tail bound E[norm] <= sqrt(2 v log 2n)."""
    return math.sqrt(2.0 * v * math.log(2 * n))


def concentration_tail(n: int, kappa: float) -> float:
    """Tail probability (1/2n)^{(1+1/kappa)^{-2}} of exceeding (1+kappa) E[norm]."""
    if kappa <= 0 or n < 1:
        raise ValueError("need kappa > 0 and n >= 1")
    return float((1.0 / (2 * n)) ** ((1.0 + 1.0 / kappa) ** -2))


# ---------------------------------------------------------------------------
# Post-threshold perturbation bounds
# ---------------------------------------------------------------------------


def sampling_perturbation_bound(
    n_eps: int, e_h: float, e_s: float, m_total: float, crawford: float, e0: float
) -> Optional[float]:
    """Post-threshold eigenvalue perturbation bound at total budget M.

    (1 + E0^2) * asin(sqrt(2) n_eps (e_H + e_S) / (crawford * sqrt(M))), or
    None (not applicable) when the arcsine argument exceeds 1.
    """
    if min(n_eps, e_h, e_s, m_total, crawford) <= 0:
        raise ValueError("all arguments must be positive")
    arg = math.sqrt(2.0) * n_eps * (e_h + e_s) / (crawford * math.sqrt(m_total))
    if arg > 1.0:
        return None
    return (1.0 + e0**2) * math.asin(arg)


def crawford_inverse_upper(eps: float, e0: float) -> float:
    """Upper bound 1/(eps sqrt(E0^2 + 1)) on the inverse Crawford number."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return 1.0 / (eps * math.sqrt(e0**2 + 1.0))
