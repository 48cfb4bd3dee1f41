"""Closed-form bound formulas checked against brute-force matrix algebra.

The matrix variance statistic has an independent oracle here: assemble
E[Delta^2] = sum_k sigma_k^2 A_k^2 from the explicit Hermitian basis matrices
and take its spectral norm. The accumulation forms in oracles.py must agree.
"""

import math

import numpy as np
import pytest

from oracles import (
    expected_norm_from_variance,
    nontoeplitz_variance_from_counts,
    optimal_variance,
    toeplitz_variance_from_counts,
    variance_statistic,
)

from qksd import bounds
from qksd.sampling import allocate_nontoeplitz, allocate_toeplitz


def brute_force_toeplitz_variance(counts, v_z, is_hamiltonian):
    """Spectral norm of sum sigma^2 A^2 over the Hermitian Toeplitz basis."""
    n = len(counts)
    total = np.zeros((n, n), dtype=complex)
    if is_hamiltonian:
        if counts[0] <= 0:
            return np.inf
        total += (2.0 * v_z**2 / counts[0]) * np.eye(n)
    for k in range(1, n):
        if counts[k] <= 0:
            return np.inf
        sig2_half = 2.0 * v_z**2 / counts[k]
        c_up = np.eye(n, k=k, dtype=complex)
        c_dn = np.eye(n, k=-k, dtype=complex)
        a_re = c_up + c_dn
        a_im = 1j * (c_up - c_dn)
        total += sig2_half * (a_re @ a_re + a_im @ a_im)
    return np.linalg.norm(total, 2)


def test_error_norm_bound_formulas():
    n, v = 9, 0.7
    log2n = math.log(2 * n)
    assert bounds.error_norm_bound(n, v, "toeplitz") == pytest.approx(
        2 * n * v * math.sqrt(2 * log2n)
    )
    assert bounds.error_norm_bound(n, v, "nontoeplitz") == pytest.approx(
        2 * n * v * math.sqrt(n * log2n)
    )
    with pytest.raises(ValueError):
        bounds.error_norm_bound(0, 1.0, "toeplitz")
    with pytest.raises(ValueError):
        bounds.error_norm_bound(5, 1.0, "hankel")


def test_norm_bound_pair_s_always_toeplitz():
    e_h, e_s = bounds.norm_bound_pair(7, 2.5, "nontoeplitz")
    assert e_h == pytest.approx(bounds.error_norm_bound(7, 2.5, "nontoeplitz"))
    assert e_s == pytest.approx(bounds.error_norm_bound(7, 1.0, "toeplitz"))


def test_optimal_epsilon_definition():
    assert bounds.optimal_epsilon(9, 1e8) == pytest.approx(
        bounds.error_norm_bound(9, 1.0, "toeplitz") / 1e4
    )


@pytest.mark.parametrize("is_h", [True, False])
def test_toeplitz_variance_matches_brute_force(is_h):
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        counts = rng.integers(50, 500, size=n).astype(float)
        if not is_h:
            counts[0] = 0.0
        got = toeplitz_variance_from_counts(counts, 1.4, is_hamiltonian=is_h)
        want = brute_force_toeplitz_variance(counts, 1.4, is_h)
        assert got == pytest.approx(want, rel=1e-12)


def test_nontoeplitz_variance_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 5
    counts = np.triu(rng.integers(20, 300, size=(n, n)).astype(float))
    got = nontoeplitz_variance_from_counts(counts, 0.9)
    total = np.zeros((n, n), dtype=complex)
    v = 0.9
    for k in range(n):
        for l in range(k, n):
            e_kl = np.zeros((n, n))
            e_kl[k, l] = 1.0
            e_lk = e_kl.T
            if k == l:
                total += (2 * v**2 / counts[k, k]) * (e_kl @ e_kl)
            else:
                sig2_half = 2 * v**2 / counts[k, l]
                a_re = e_kl + e_lk
                a_im = 1j * (e_kl - e_lk)
                total += sig2_half * (a_re @ a_re + a_im @ a_im)
    assert got == pytest.approx(np.linalg.norm(total, 2), rel=1e-12)


@pytest.mark.parametrize(
    "target,n,m,is_h,construction",
    [
        ("S_toeplitz", 7, 10**6, False, "toeplitz"),
        ("H_toeplitz", 7, 10**6, True, "toeplitz"),
        ("H_nontoeplitz", 6, 10**6, True, "nontoeplitz"),
    ],
)
def test_optimal_plan_achieves_closed_form_minimum(target, n, m, is_h, construction):
    if target == "H_nontoeplitz":
        plan = allocate_nontoeplitz(m, n, betas=[1.0])
    else:
        plan = allocate_toeplitz(m, n, is_h, betas=[1.0] if is_h else None)
    got = variance_statistic(plan, 1.0)
    want = optimal_variance(m, n, 1.0, construction, is_hamiltonian=is_h)
    # integer rounding keeps the plan within a whisker of the continuous optimum
    assert got >= want - 1e-15
    assert got == pytest.approx(want, rel=1e-3)


def test_expected_norm_from_variance():
    assert expected_norm_from_variance(0.04, 8) == pytest.approx(
        math.sqrt(2 * 0.04 * math.log(16))
    )


def test_concentration_tail():
    assert bounds.concentration_tail(8, 1.0) == pytest.approx((1 / 16) ** 0.25)
    with pytest.raises(ValueError):
        bounds.concentration_tail(8, 0.0)


def test_sampling_perturbation_bound():
    val = bounds.sampling_perturbation_bound(3, 2.0, 1.0, 1e8, 0.5, -0.35)
    arg = math.sqrt(2) * 3 * 3.0 / (0.5 * 1e4)
    assert val == pytest.approx((1 + 0.35**2) * math.asin(arg))
    # arcsine argument above 1 is not applicable, reported as None
    assert bounds.sampling_perturbation_bound(3, 2.0, 1.0, 1.0, 1e-6, 0.0) is None
    with pytest.raises(ValueError):
        bounds.sampling_perturbation_bound(0, 2.0, 1.0, 1e8, 0.5, 0.0)


def test_crawford_inverse_upper():
    assert bounds.crawford_inverse_upper(0.2, -0.35) == pytest.approx(
        1.0 / (0.2 * math.sqrt(0.35**2 + 1))
    )
