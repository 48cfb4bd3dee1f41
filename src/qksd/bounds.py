"""Closed-form bounds for sampled Krylov matrix pairs.

All formulas are exact evaluations of the non-asymptotic expressions used by
the experiment drivers: expected spectral-norm bounds for the sampling error
matrices, the optimal truncation threshold, the concentration tail, and the
post-threshold eigenvalue perturbation bound.  Natural logarithms throughout.
The matrix variance statistic behind the norm bounds, and its closed-form
minimum at the optimal plans, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from typing import Optional

from .krylov import CONSTRUCTIONS


def error_norm_bound(n: int, v_z: float, construction: str) -> float:
    """Expected-spectral-norm bound e_Z for the optimally sampled error matrix.

    Toeplitz: 2 n V_Z sqrt(2 log 2n).  Non-Toeplitz: 2 n V_Z sqrt(n log 2n).
    The bound on E[norm] is e_Z / sqrt(M_Z) at total budget M_Z.
    """
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}")
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
