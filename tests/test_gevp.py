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
    solve_gevp,
    top_k_ground_energies,
    top_k_thresholding,
)

from oracles import chi_reference, eigenangle_flags_reference


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
    thr = basis_thresholding(h, s, 1e-2)
    sol = solve_gevp(thr.A, thr.B)
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


def shared_energies(h_stack, vals, vecs, epsilon):
    """From one batched eigh(S): the (T, n) top-k energies, k = 1..n, as the
    sweep driver solves them, and the eps rule's (energies, n_eps) per trial."""
    trials, n = vals.shape
    sweep = np.stack(
        [
            top_k_ground_energies(h_stack, vals, vecs, np.full(trials, k))
            for k in range(1, n + 1)
        ],
        axis=1,
    )
    dims = np.count_nonzero(vals > epsilon, axis=1)
    return sweep, top_k_ground_energies(h_stack, vals, vecs, dims), dims


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep, rule_energies, dims = shared_energies(h_stack, vals, vecs, epsilon)
    for h, s, w, shared, e_rule, n_rule in zip(
        h_stack, s_stack, vals, sweep, rule_energies, dims
    ):
        top_k, rule = per_trial_energies(h, s, epsilon)
        assert np.array_equal(shared, top_k, equal_nan=True)
        assert np.array_equal((e_rule, n_rule), rule, equal_nan=True)
        positives = int(np.count_nonzero(w > 0))
        representable = int(np.count_nonzero(w >= 1e-150))
        assert np.isfinite(top_k[:representable]).all()
        assert np.isnan(top_k[positives:]).all()
        if rule[1] == 0:
            assert not (w > epsilon).any() and math.isnan(rule[0])
        else:  # the rule keeps the top n_eps directions, as the sweep's k = n_eps
            assert np.array_equal(e_rule, shared[n_rule - 1], equal_nan=True)


def test_shared_decomposition_tiny_overlap_spectrum():
    """Every overlap eigenvalue tiny: the shared path agrees to 1e-12 relative.

    Here the oracle's eigh(B) of the reduced B = diag(vals) returns entries
    that differ from vals in the last bits, so the bitwise claim does not hold.
    """
    h_stack, s_stack = random_stack([0.0, 3.06e-217], trials=3, seed=2)
    vals, vecs = np.linalg.eigh(s_stack)
    sweep, rule_energies, dims = shared_energies(h_stack, vals, vecs, 0.0)
    for h, s, shared, e_shared, n_shared in zip(
        h_stack, s_stack, sweep, rule_energies, dims
    ):
        top_k, (e_rule, n_rule) = per_trial_energies(h, s, 0.0)
        assert np.array_equal(np.isnan(shared), np.isnan(top_k))
        np.testing.assert_allclose(shared, top_k, rtol=1e-12, atol=0)
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
        energies, (energy,), (n_eps,) = shared_energies(
            h[None], vals[None], np.eye(2)[None], 0.0
        )
        assert math.isfinite(energies[0, 0]) and math.isnan(energies[0, 1])
        assert math.isnan(energy) and n_eps == 2


def test_mixed_stack_solves_each_trial_alone():
    """Trials of one stack with different retained dimensions get the bits
    each gets when solved alone, so no neighbour in the batch shows.

    Forced k = (4, 4, 0, 2, 4) puts a finite trial in one group with a k
    above the positive count and an overflowing kept eigenvalue (5e-320); the
    eps rule gives n_eps = (2, 1, 0, 3, 2) at eps = 0.4 and (4, 2, 4, 4, 4)
    at eps = 0, where the last trial overflows.
    """
    spectra = [
        [1.0, 0.5, 0.1, 0.01],
        [1.0, 0.3, 0.0, -0.2],
        [0.3, 0.02, 0.01, 1e-3],
        [1.0, 0.6, 0.45, 0.05],
    ]
    h_stack, vals, vecs = [], [], []
    for seed, spectrum in enumerate(spectra):
        h, s = random_stack(spectrum, trials=1, seed=seed)
        w, v = np.linalg.eigh(s)
        h_stack.append(h[0])
        vals.append(w[0])
        vecs.append(v[0])
    h_stack.append(h_stack[0])
    vals.append(np.array([5e-320, 0.2, 0.5, 1.0]))
    vecs.append(np.eye(4, dtype=complex))
    h_stack, vals, vecs = map(np.array, (h_stack, vals, vecs))
    cases = [
        (np.array([4, 4, 0, 2, 4]), [False, True, True, False, True]),
        (np.count_nonzero(vals > 0.4, axis=1), [False, False, True, False, False]),
        (np.count_nonzero(vals > 0.0, axis=1), [False, False, False, False, True]),
    ]
    assert cases[1][0].tolist() == [2, 1, 0, 3, 2]
    assert cases[2][0].tolist() == [4, 2, 4, 4, 4]
    for k, nan in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = top_k_ground_energies(h_stack, vals, vecs, k)
            alone = [
                top_k_ground_energies(
                    h_stack[t : t + 1], vals[t : t + 1], vecs[t : t + 1], k[t : t + 1]
                )[0]
                for t in range(len(k))
            ]
        assert np.array_equal(batch, alone, equal_nan=True), k
        assert np.isnan(batch).tolist() == nan, k


def chi_at(h_exact, s_exact, h_pert, s_pert, epsilon):
    """chi between the two pairs, each thresholded at the same epsilon, from a
    one-trial stack; and the perturbed pair's retained dimension."""
    vals, vecs = np.linalg.eigh(s_pert[None])
    dims = np.count_nonzero(vals > epsilon, axis=1)
    ex = basis_thresholding(h_exact, s_exact, epsilon)
    (chi,) = chi_between_thresholds(ex, h_pert[None], vals, vecs, dims)
    return chi, int(dims[0])


def test_chi_zero_for_identical_pairs():
    rng = np.random.default_rng(6)
    h, s = random_pair(5, rng)
    chi, n_eps = chi_at(h, s, h, s, 1e-2)
    assert chi == pytest.approx(0.0, abs=1e-12)
    assert n_eps == basis_thresholding(h, s, 1e-2).n_eps


def test_chi_dim_mismatch_reported():
    """A perturbed pair keeping fewer directions still gets a finite chi, the
    oracle's, differenced in the exact pair's basis."""
    h = np.eye(3, dtype=complex)
    s1 = np.diag([1.0, 0.6, 0.3]).astype(complex)
    s2 = np.diag([1.0, 0.6, 0.01]).astype(complex)
    chi, n_eps = chi_at(h, s1, h, s2, 0.1)
    assert basis_thresholding(h, s1, 0.1).n_eps == 3 and n_eps == 2
    expected = chi_reference(basis_thresholding(h, s1, 0.1), basis_thresholding(h, s2, 0.1))
    assert math.isfinite(chi) and chi == expected


def test_chi_small_for_small_perturbations():
    rng = np.random.default_rng(7)
    h, s = random_pair(5, rng, s_floor=0.2)
    dh = 1e-6 * np.eye(5)
    chi, _ = chi_at(h, s, h + dh, s, 1e-2)
    assert chi < 1e-4
    ex = basis_thresholding(h, s, 1e-2)
    pe = basis_thresholding(h + dh, s, 1e-2)
    assert chi == chi_reference(ex, pe)


def test_chi_invariant_to_basis_rotation():
    """Conjugating by W removes the eigenbasis phase ambiguity exactly."""
    rng = np.random.default_rng(8)
    h, s = random_pair(6, rng, s_floor=0.2)
    ex = basis_thresholding(h, s, 1e-2)
    vals, vecs = np.linalg.eigh(s[None])
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=6))
    rotated = vecs * phases  # each overlap eigenvector times its own phase
    keep = np.arange(5, 5 - ex.n_eps, -1)
    v_rot = rotated[0][:, keep]
    # raw difference is large, aligned chi vanishes
    assert np.linalg.norm(v_rot.conj().T @ h @ v_rot - ex.A, 2) > 0.1
    dims = np.array([ex.n_eps])
    (chi,) = chi_between_thresholds(ex, h[None], vals, rotated, dims)
    assert chi == pytest.approx(0.0, abs=1e-12)


def test_chi_stack_with_empty_basis_trial():
    """A trial that keeps nothing is nan; its neighbours get the oracle's bits,
    whatever dimension they keep."""
    rng = np.random.default_rng(10)
    n = 5

    def pair(spectrum, q):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (g + g.conj().T), (q * np.array(spectrum)) @ q.conj().T

    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    h, s = pair([1.0, 0.6, 0.4, 0.2, 0.05], q)
    ex = basis_thresholding(h, s, 0.1)
    spectra = [
        [1.0, 0.6, 0.4, 0.2, 0.05],
        [0.05, 0.03, 0.02, 0.01, 0.0],  # nothing above 0.1
        [1.0, 0.6, 0.4, 0.2, 0.05],
        [1.0, 0.6, 0.4, 0.08, 0.05],  # one direction fewer than the exact pair
    ]
    h_stack, s_stack = [], []
    for spectrum in spectra:
        near = q + 1e-3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        dh, s_pe = pair(spectrum, np.linalg.qr(near)[0])
        h_stack.append(h + 1e-3 * dh)
        s_stack.append(s_pe)
    h_stack, s_stack = np.array(h_stack), np.array(s_stack)
    vals, vecs = np.linalg.eigh(s_stack)
    dims = np.count_nonzero(vals > 0.1, axis=1)
    assert ex.n_eps == 4 and dims.tolist() == [4, 0, 4, 3]
    chi = chi_between_thresholds(ex, h_stack, vals, vecs, dims)
    assert math.isnan(chi[1])
    for t in (0, 2, 3):
        pe = basis_thresholding(h_stack[t], s_stack[t], 0.1)
        assert pe.n_eps == dims[t] and chi[t] == chi_reference(ex, pe)
    sol_ex = solve_gevp(ex.A, ex.B)
    lam_min = float(np.min(ex.b_diagonal))
    chi_small, angle_gap = eigenangle_check(sol_ex, chi, lam_min)
    assert not chi_small[1] and not angle_gap[1]
    for t in (0, 2, 3):
        assert (chi_small[t], angle_gap[t]) == eigenangle_flags_reference(
            sol_ex, chi[t], lam_min
        )


def exact_solution(e0, e1):
    return type(
        "S", (), {"eigenvalues": np.array([e0, e1]), "degenerate_lowest": False}
    )()


def test_eigenangle_check_logic():
    chi = np.array([0.05, 1.0, math.nan])
    chi_small, angle_gap = eigenangle_check(exact_solution(-1.0, 1.0), chi, lambda_min=0.5)
    # chi = 0.05: sqrt(2)*2*0.05 = 0.1414 <= 0.5, and gap pi/2 >= asin(0.2);
    # chi = 1.0 fails the error assumption and the arcsine domain; nan fails both
    assert chi_small.tolist() == [True, False, False]
    assert angle_gap.tolist() == [True, False, False]

    # a narrow exact gap, atan(0.1) < asin(0.2): only the gap assumption fails
    chi_small, angle_gap = eigenangle_check(exact_solution(0.0, 0.1), chi[:1], 0.5)
    assert chi_small.tolist() == [True] and angle_gap.tolist() == [False]


def test_eigenangle_check_single_dimension():
    sol = solve_gevp(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
    chi_small, angle_gap = eigenangle_check(sol, np.array([0.1, 2.0]), lambda_min=1.0)
    assert chi_small.tolist() == [True, False]  # sqrt(2) * 0.1 <= 1 < sqrt(2) * 2
    assert angle_gap.tolist() == [True, False]  # no second angle: argument <= 1


def test_decay_leaves_gevp_invariant():
    rng = np.random.default_rng(9)
    h, s = random_pair(5, rng, s_floor=0.1)
    decay = math.exp(-0.9)
    a = solve_gevp(h, s)
    b = solve_gevp(decay * h, decay * s)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
