"""Thresholded GEVP solving checked against scipy and hand-sized cases."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qksd.errors import EmptyBasisError, IllPosedError
from qksd.gevp import (
    basis_thresholding,
    chi_between_thresholds,
    eigenangle_check,
    epsilon_energy,
    solve_gevp,
    spectral_norm,
    threshold_and_solve,
    top_k_energies,
    top_k_thresholding,
)


def random_pair(n, rng, s_floor=1e-3):
    """Random Hermitian H and positive definite S with known spectral decay."""
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    s_vals = np.sort(rng.uniform(s_floor, 1.0, size=n))[::-1]
    s = (q * s_vals) @ q.conj().T
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (g + g.conj().T)
    return h, s


def test_thresholding_identity_overlap_reduces_to_eigh():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = 0.5 * (g + g.conj().T)
    s = np.eye(5, dtype=complex)
    thr = basis_thresholding(h, s, 0.5)
    assert thr.n_eps == 5
    assert np.allclose(thr.B, np.eye(5))
    sol = solve_gevp(thr.A, thr.B)
    assert np.allclose(sol.eigenvalues, np.linalg.eigvalsh(h), atol=1e-12)


def test_thresholding_retains_descending_above_epsilon():
    rng = np.random.default_rng(1)
    h, s = random_pair(6, rng)
    eps = np.median(np.linalg.eigvalsh(s))
    thr = basis_thresholding(h, s, eps)
    diag = thr.b_diagonal
    assert np.all(diag > eps)
    assert np.all(np.diff(diag) <= 0)
    assert thr.A.shape == (thr.n_eps, thr.n_eps)
    assert np.allclose(thr.A, thr.A.conj().T)
    # projector columns orthonormal
    v = thr.V_kept
    assert np.allclose(v.conj().T @ v, np.eye(thr.n_eps), atol=1e-12)


def test_thresholding_empty_raises():
    h = np.eye(3, dtype=complex)
    s = 0.1 * np.eye(3, dtype=complex)
    with pytest.raises(EmptyBasisError):
        basis_thresholding(h, s, 0.5)
    with pytest.raises(ValueError):
        basis_thresholding(h, s, -1.0)
    with pytest.raises(ValueError):
        basis_thresholding(h, np.eye(4), 0.1)


def test_top_k_matches_epsilon_cut():
    rng = np.random.default_rng(2)
    h, s = random_pair(6, rng)
    vals = np.linalg.eigvalsh(s)
    eps = 0.5 * (vals[2] + vals[3])  # keeps exactly the top 3
    thr_eps = basis_thresholding(h, s, eps)
    thr_k = top_k_thresholding(h, s, 3)
    assert thr_eps.n_eps == thr_k.n_eps == 3
    assert np.allclose(thr_eps.b_diagonal, thr_k.b_diagonal)
    assert np.allclose(
        np.linalg.eigvalsh(thr_eps.A), np.linalg.eigvalsh(thr_k.A), atol=1e-12
    )


def test_top_k_validation():
    h = np.eye(3, dtype=complex)
    s = np.diag([1.0, 0.5, -0.1]).astype(complex)
    with pytest.raises(IllPosedError):
        top_k_thresholding(h, s, 3)  # only 2 positive directions
    with pytest.raises(ValueError):
        top_k_thresholding(h, s, 0)
    with pytest.raises(EmptyBasisError):
        top_k_thresholding(h, -np.eye(3, dtype=complex), 3)


def test_solve_gevp_matches_scipy():
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        h, s = random_pair(n, rng, s_floor=0.05)
        sol = solve_gevp(h, s)
        ref = scipy.linalg.eigh(h, s, eigvals_only=True)
        assert np.allclose(sol.eigenvalues, ref, atol=1e-10)
        assert np.allclose(sol.eigenangles, np.arctan(sol.eigenvalues))


def test_solve_gevp_vectors_b_orthonormal():
    rng = np.random.default_rng(4)
    h, s = random_pair(5, rng, s_floor=0.05)
    sol = solve_gevp(h, s)
    x = sol.eigenvectors
    assert np.allclose(x.conj().T @ s @ x, np.eye(5), atol=1e-10)
    # generalized eigenvalue equation itself
    for i in range(5):
        lhs = h @ x[:, i]
        rhs = sol.eigenvalues[i] * (s @ x[:, i])
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_solve_gevp_one_by_one_d0():
    sol = solve_gevp(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert sol.ground_energy == pytest.approx(1.0)
    assert sol.d0 == pytest.approx(math.sqrt(2.0))
    assert sol.ground_angle == pytest.approx(math.pi / 4)
    assert not sol.degenerate_lowest


def test_solve_gevp_rejects_indefinite_b():
    h = np.eye(2, dtype=complex)
    b = np.diag([1.0, -0.2]).astype(complex)
    with pytest.raises(IllPosedError):
        solve_gevp(h, b)


def test_degenerate_lowest_flag():
    a = np.diag([1.0, 1.0, 3.0]).astype(complex)
    b = np.eye(3, dtype=complex)
    assert solve_gevp(a, b).degenerate_lowest
    a2 = np.diag([1.0, 1.1, 3.0]).astype(complex)
    assert not solve_gevp(a2, b).degenerate_lowest


def test_threshold_and_solve_pipeline():
    rng = np.random.default_rng(5)
    h, s = random_pair(7, rng)
    thr, sol = threshold_and_solve(h, s, 1e-2)
    assert sol.cond_s == pytest.approx(thr.b_diagonal[0] / thr.b_diagonal[-1])
    assert len(sol.eigenvalues) == thr.n_eps


def per_trial_energies(h, s, epsilon):
    """The oracle: threshold and solve_gevp afresh for every k and the eps rule."""
    top_k = np.full(len(s), math.nan)
    for k in range(1, len(s) + 1):
        try:
            thr = top_k_thresholding(h, s, k)
        except (EmptyBasisError, IllPosedError):
            continue
        top_k[k - 1] = solve_gevp(thr.A, thr.B).ground_energy
    try:
        thr = basis_thresholding(h, s, epsilon)
    except EmptyBasisError:
        return top_k, (math.nan, 0)
    try:
        return top_k, (solve_gevp(thr.A, thr.B).ground_energy, thr.n_eps)
    except IllPosedError:
        return top_k, (math.nan, thr.n_eps)


def random_stack(spectrum, trials, seed):
    """Random Hermitian H and Hermitian S with the given overlap spectrum."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    h_stack, s_stack = [], []
    for _ in range(trials):
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        s = (q * np.array(spectrum)) @ q.conj().T
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_stack.append(0.5 * (g + g.conj().T))
        s_stack.append(0.5 * (s + s.conj().T))
    return np.array(h_stack), np.array(s_stack)


@settings(max_examples=80, deadline=None)
@given(
    # every sampled S~ a driver solves has diagonal e^{-lambda}, so its largest
    # eigenvalue is of order 1; the strategy pins it at 1.0
    spectrum=st.lists(
        st.one_of(st.floats(-0.5, 1.0), st.sampled_from([0.0, 1e-14, 1.0])),
        min_size=0,
        max_size=5,
    ).map(lambda rest: [1.0] + rest),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.0, 1.2),
)
@example(spectrum=[0.7], trials=1, seed=0, epsilon=0.1)  # n = 1
@example(spectrum=[0.4, 0.0, -0.3, 1e-3], trials=2, seed=1, epsilon=0.0)  # k > positives
@example(spectrum=[-0.2, -0.1], trials=1, seed=2, epsilon=0.0)  # nothing positive
@example(spectrum=[0.3, 0.5, 0.9], trials=2, seed=3, epsilon=1.1)  # eps above all
def test_shared_decomposition_matches_per_trial_solve(spectrum, trials, seed, epsilon):
    """One batched eigh(S) shared by every k and the eps rule gives the oracle's bits.

    Energies are finite wherever every kept overlap eigenvalue is >= 1e-150;
    below that, B^{-1/2} A B^{-1/2} can overflow, and both paths give nan.
    """
    h_stack, s_stack = random_stack(spectrum, trials, seed)
    vals, vecs = np.linalg.eigh(s_stack)
    for h, s, w, v in zip(h_stack, s_stack, vals, vecs):
        top_k, rule = per_trial_energies(h, s, epsilon)
        assert np.array_equal(top_k_energies(h, w, v), top_k, equal_nan=True)
        assert np.array_equal(epsilon_energy(h, w, v, epsilon), rule, equal_nan=True)
        positives = int(np.count_nonzero(w > 0))
        representable = int(np.count_nonzero(w >= 1e-150))
        assert np.isfinite(top_k[:representable]).all()
        assert np.isnan(top_k[positives:]).all()
        if rule[1] == 0:
            assert not (w > epsilon).any() and math.isnan(rule[0])


def test_shared_decomposition_tiny_overlap_spectrum():
    """Every overlap eigenvalue tiny: the shared path agrees to 1e-12 relative.

    Here the oracle's eigh(B) of the reduced B = diag(vals) returns entries
    that differ from vals in the last bits, so the bitwise claim does not hold.
    """
    h_stack, s_stack = random_stack([0.0, 3.06e-217], trials=3, seed=2)
    vals, vecs = np.linalg.eigh(s_stack)
    for h, s, w, v in zip(h_stack, s_stack, vals, vecs):
        top_k, (e_rule, n_rule) = per_trial_energies(h, s, 0.0)
        shared = top_k_energies(h, w, v)
        assert np.array_equal(np.isnan(shared), np.isnan(top_k))
        np.testing.assert_allclose(shared, top_k, rtol=1e-12, atol=0)
        e_shared, n_shared = epsilon_energy(h, w, v, 0.0)
        assert n_shared == n_rule
        assert e_shared == pytest.approx(e_rule, rel=1e-12, abs=0)


def test_overflowing_reduced_pair_is_ill_posed():
    """A kept overlap eigenvalue too small to invert: IllPosedError or nan, no warning.

    At 5e-320, B^{-1/2} A B^{-1/2} overflows; both paths agree on refusing it.
    """
    rng = np.random.default_rng(4)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (g + g.conj().T)
    vals = np.array([5e-320, 1.0])
    s = np.diag(vals).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thr = top_k_thresholding(h, s, 2)
        assert thr.b_diagonal.tolist() == [1.0, 5e-320]
        with pytest.raises(IllPosedError, match="not finite"):
            solve_gevp(thr.A, thr.B)
        energies = top_k_energies(h, vals, np.eye(2))
        assert math.isfinite(energies[0]) and math.isnan(energies[1])
        energy, n_eps = epsilon_energy(h, vals, np.eye(2), 0.0)
        assert math.isnan(energy) and n_eps == 2


def chi_at(h_exact, s_exact, h_pert, s_pert, epsilon):
    """chi between the two pairs, each thresholded at the same epsilon."""
    return chi_between_thresholds(
        basis_thresholding(h_exact, s_exact, epsilon),
        basis_thresholding(h_pert, s_pert, epsilon),
    )


def test_chi_zero_for_identical_pairs():
    rng = np.random.default_rng(6)
    h, s = random_pair(5, rng)
    res = chi_at(h, s, h, s, 1e-2)
    assert res.chi == pytest.approx(0.0, abs=1e-12)
    assert not res.dim_mismatch


def test_chi_dim_mismatch_reported():
    h = np.eye(3, dtype=complex)
    s1 = np.diag([1.0, 0.6, 0.3]).astype(complex)
    s2 = np.diag([1.0, 0.6, 0.01]).astype(complex)
    res = chi_at(h, s1, h, s2, 0.1)
    assert res.n_eps_exact == 3 and res.n_eps_perturbed == 2
    assert res.dim_mismatch


def test_chi_small_for_small_perturbations():
    rng = np.random.default_rng(7)
    h, s = random_pair(5, rng, s_floor=0.2)
    dh = 1e-6 * np.eye(5)
    res = chi_at(h, s, h + dh, s, 1e-2)
    assert res.chi < 1e-4
    ex = basis_thresholding(h, s, 1e-2)
    pe = basis_thresholding(h + dh, s, 1e-2)
    again = chi_between_thresholds(ex, pe)
    assert again.chi == pytest.approx(res.chi)


def test_chi_invariant_to_basis_rotation():
    """Conjugating by W removes the eigenbasis phase ambiguity exactly."""
    from qksd.gevp import ThresholdResult

    rng = np.random.default_rng(8)
    h, s = random_pair(6, rng, s_floor=0.2)
    ex = basis_thresholding(h, s, 1e-2)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=ex.n_eps))
    d = np.diag(phases)
    rotated = ThresholdResult(
        A=d.conj().T @ ex.A @ d,
        B=ex.B,  # diagonal, commutes with d
        V_kept=ex.V_kept @ d,
        retained_indices=ex.retained_indices,
        epsilon=ex.epsilon,
    )
    # raw difference is large, aligned chi vanishes
    assert spectral_norm(rotated.A - ex.A) > 0.1
    assert chi_between_thresholds(ex, rotated).chi == pytest.approx(0.0, abs=1e-12)
    assert spectral_norm(np.zeros((0, 0))) == 0.0  # empty difference, zero norm


def test_eigenangle_check_logic():
    mk = lambda e0, e1, d0: type(
        "S",
        (),
        {
            "eigenvalues": np.array([e0, e1]),
            "eigenangles": np.arctan(np.array([e0, e1])),
            "ground_angle": math.atan(e0),
            "d0": d0,
            "degenerate_lowest": False,
        },
    )()
    exact = mk(-1.0, 1.0, 0.8)
    pert = mk(-1.05, 1.0, 0.8)
    chk = eigenangle_check(exact, pert, chi=0.05, lambda_min=0.5)
    assert chk.err_assumption  # sqrt(2)*2*0.05 = 0.1414 <= 0.5
    assert chk.gap_assumption  # gap pi/2 >= asin(0.2)
    assert chk.bound == pytest.approx(math.asin(2 * 0.05 / 0.8))
    assert chk.qualifies
    assert chk.satisfied is (chk.observed <= chk.bound + 1e-9)

    # chi too large: fails the error assumption and the arcsine domain
    chk2 = eigenangle_check(exact, pert, chi=1.0, lambda_min=0.5)
    assert not chk2.err_assumption
    assert chk2.bound is None
    assert not chk2.qualifies and chk2.satisfied is None


def test_eigenangle_check_single_dimension():
    sol = solve_gevp(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
    chk = eigenangle_check(sol, sol, chi=0.1, lambda_min=1.0)
    assert chk.gap_assumption
    assert chk.qualifies


def test_decay_leaves_gevp_invariant():
    rng = np.random.default_rng(9)
    h, s = random_pair(5, rng, s_floor=0.1)
    decay = math.exp(-0.9)
    a = solve_gevp(h, s)
    b = solve_gevp(decay * h, decay * s)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
