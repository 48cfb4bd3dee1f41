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
    _reduced_groups,
    basis_thresholding,
    chi_between_thresholds,
    eigenangle_check,
    overlap_eigh,
    solve_gevp,
    top_k_ground_energies,
    top_k_sweep,
    top_k_thresholding,
)
from qksd.krylov import toeplitz_real_form

from oracles import chi_reference, eigenangle_flags_reference, exchange_unitary


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


def overlap_case(basis, spectrum, seed):
    """(H, S, S in H's basis) of one basis case: a real H beside S in real
    form (the Toeplitz construction), a complex H in its sampled basis beside
    S in real form (elementwise), or complex H and S both in the sampled
    basis.  A `spectrum` makes the S passed diagonal with exactly those
    eigenvalues; without one, S is the real form of a random positive definite
    Hermitian Toeplitz matrix T, or T itself."""
    rng = np.random.default_rng(seed)
    n = 5 if spectrum is None else len(spectrum)
    if spectrum is None:
        seq = rng.uniform(-0.1, 0.1, size=n) + 1j * rng.uniform(-0.1, 0.1, size=n)
        seq[0] = 1.0  # diagonally dominant, so every eigenvalue is positive
        real_s = toeplitz_real_form(seq)
    else:
        real_s = np.diag(spectrum)
    q = exchange_unitary(n)
    sampled_s = q @ real_s @ q.conj().T  # T, in the sampled basis
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (g + g.conj().T)
    if basis == "real":
        return 0.5 * (h.real + h.real.T), real_s, real_s
    if basis == "complex_h":
        return h, real_s, sampled_s
    if spectrum is not None:
        sampled_s = real_s.astype(complex)
    return h, sampled_s, sampled_s


@pytest.mark.parametrize("basis", ("real", "complex_h", "complex"))
@pytest.mark.parametrize(
    "spectrum", (None, [0.5, 1.0, 0.5, 0.1, 0.5]), ids=("toeplitz", "repeated")
)
def test_overlap_eigh_kept_order(basis, spectrum):
    """overlap_eigh gives S's eigenpairs in kept order, largest first, with
    S v = lambda v in H's basis; both thresholdings return the one-trial
    stacked reduction of a prefix, bit for bit, with a cut inside a repeated
    eigenvalue too (k = 2, 3 of the repeated spectrum)."""
    h, s, s_in_h_basis = overlap_case(basis, spectrum, seed=13)
    vals, vecs = overlap_eigh(h, s)
    n = len(vals)
    assert vecs.dtype == h.dtype and vals.flags.c_contiguous
    assert np.all(np.diff(vals) <= 0)
    if spectrum is not None:
        assert vals.tolist() == sorted(spectrum, reverse=True)
    residual = s_in_h_basis @ vecs - vecs * vals
    assert np.abs(residual).max() <= 1e-14 * n * vals[0]
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() <= 1e-14 * n

    def stacked(dim):
        ((rows, w, vh, a),) = _reduced_groups(
            h[None], vals[None], vecs[None], np.array([dim])
        )
        assert rows.tolist() == [0]
        return a[0], np.diag(w[0]), vh[0].conj().T

    cuts = [(top_k_thresholding(h, s, k), k) for k in range(1, n + 1)]
    for eps in (0.0, *(0.5 * (vals[:-1] + vals[1:]))):
        cuts.append((basis_thresholding(h, s, eps), int(np.count_nonzero(vals > eps))))
    for thr, dim in cuts:
        assert thr.n_eps == dim
        for got, want in zip((thr.A, thr.B, thr.V_kept), stacked(dim)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(thr.V_kept, vecs[:, :dim])


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
    sweep driver solves them, and the eps rule's (energies, n_eps) per trial,
    as the scan solves them."""
    dims = np.count_nonzero(vals > epsilon, axis=1)
    rule = top_k_ground_energies(h_stack, vals, vecs, dims)
    return top_k_sweep(h_stack, vals, vecs), rule, dims


def rounding_bound(h, w, k):
    """First-order rounding bound of a reduced pair's ground energy:
    8 k eps_mach ||H||_2 / w_k, with w_k the k-th largest overlap eigenvalue
    of w (in kept order, as overlap_eigh returns it), the smallest one kept."""
    return 8 * k * np.finfo(float).eps * np.linalg.norm(h, 2) / w[k - 1]


def assert_energy_agrees(got, want, h, w, k):
    """Ground energies of one pair reduced to its top k directions: both nan,
    or within rounding_bound of each other."""
    assert math.isnan(got) == math.isnan(want), (k, got, want)
    if not math.isnan(want):
        assert abs(got - want) <= rounding_bound(h, w, k), (k, got, want)


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
    """One batched eigh(S) shared by every k and the eps rule agrees with the
    oracle, which thresholds and solves each trial and k afresh: the same nan
    pattern and n_eps, and energies within the reduced pair's first-order
    rounding bound (`rounding_bound`).

    Energies are finite wherever every kept overlap eigenvalue is >= 1e-150;
    below that, B^{-1/2} A B^{-1/2} can overflow, and both paths give nan.
    """
    h_stack, s_stack = random_stack(spectrum, trials, seed)
    vals, vecs = overlap_eigh(h_stack, s_stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep, rule_energies, dims = shared_energies(h_stack, vals, vecs, epsilon)
    for h, s, w, shared, e_rule, n_rule in zip(
        h_stack, s_stack, vals, sweep, rule_energies, dims
    ):
        top_k, rule = per_trial_energies(h, s, epsilon)
        for k, (got, want) in enumerate(zip(shared, top_k), 1):
            assert_energy_agrees(got, want, h, w, k)
        assert n_rule == rule[1]
        positives = int(np.count_nonzero(w > 0))
        representable = int(np.count_nonzero(w >= 1e-150))
        assert np.isfinite(top_k[:representable]).all()
        assert np.isnan(top_k[positives:]).all()
        if rule[1] == 0:
            assert not (w > epsilon).any() and math.isnan(rule[0]) and math.isnan(e_rule)
        else:  # the rule keeps the top n_eps directions, as the sweep's k = n_eps
            assert_energy_agrees(e_rule, rule[0], h, w, n_rule)
            assert_energy_agrees(e_rule, shared[n_rule - 1], h, w, n_rule)


def test_shared_decomposition_tiny_overlap_spectrum():
    """Every overlap eigenvalue tiny: the shared path agrees to 1e-12 relative.

    Here the oracle's eigh(B) of the reduced B = diag(vals) returns entries
    that differ from vals in the last bits, so the bitwise claim does not hold.
    """
    h_stack, s_stack = random_stack([0.0, 3.06e-217], trials=3, seed=2)
    vals, vecs = overlap_eigh(h_stack, s_stack)
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
        energies, (energy,), (n_eps,) = shared_energies(  # in kept order
            h[None], vals[None, ::-1], np.eye(2)[None, :, ::-1], 0.0
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
        w, v = overlap_eigh(h, s)
        h_stack.append(h[0])
        vals.append(w[0])
        vecs.append(v[0])
    h_stack.append(h_stack[0])
    vals.append(np.array([1.0, 0.5, 0.2, 5e-320]))
    vecs.append(np.eye(4, dtype=complex)[:, ::-1])
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


def sweep_block(dtype):
    """A block of nine trials of n = 6: six with a positive definite overlap,
    then one whose overlap has no positive eigenvalue, one with a zero and a
    negative one, and one whose smallest kept eigenvalue (5e-320) overflows
    its pair.  Real stacks are the Toeplitz real form's case, complex ones
    the elementwise."""
    rng = np.random.default_rng(21)
    n = 6
    spectra = [
        *(np.append(1.0, rng.uniform(1e-3, 1.0, size=n - 1)) for _ in range(6)),
        [-0.2, -0.1, -0.3, -0.05, -0.4, -0.01],
        [1.0, 0.3, 0.5, 0.2, 0.0, -0.2],
        [5e-320, 0.1, 0.2, 0.4, 0.5, 1.0],
    ]
    h_stack, vals, vecs = [], [], []
    for spectrum in spectra:
        g = rng.normal(size=(n, n)).astype(dtype)
        q = rng.normal(size=(n, n)).astype(dtype)
        if dtype is complex:
            g += 1j * rng.normal(size=(n, n))
            q += 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(q)[0]
        s = (q * np.array(spectrum)) @ q.conj().T
        h_stack.append(0.5 * (g + g.conj().T))
        vals.append(np.sort(spectrum)[::-1])  # exactly, so the zero stays zero
        vecs.append(overlap_eigh(h_stack[-1], 0.5 * (s + s.conj().T))[1])
    vecs[-1] = np.eye(n, dtype=dtype)[:, ::-1]
    return np.array(h_stack), np.array(vals), np.array(vecs)


@pytest.mark.parametrize("dtype", (float, complex))
def test_sweep_solves_each_trial_alone(dtype):
    """A trial's top-k energies, k = 1..n, get the same bits alone and inside
    a block whose neighbours keep nothing, hold non-positive overlap
    eigenvalues or overflow; nan exactly where a kept eigenvalue is <= 0 or
    overflows the pair."""
    h_stack, vals, vecs = sweep_block(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = top_k_sweep(h_stack, vals, vecs)
        alone = [
            top_k_sweep(h_stack[t : t + 1], vals[t : t + 1], vecs[t : t + 1])[0]
            for t in range(len(h_stack))
        ]
    assert np.array_equal(block, alone, equal_nan=True)
    assert np.isnan(block).tolist() == [[False] * 6] * 6 + [
        [True] * 6,
        [False] * 4 + [True] * 2,
        [False] * 5 + [True],
    ]


@pytest.mark.parametrize("dtype", (float, complex))
def test_sweep_matches_uniform_k_solves(dtype):
    """Each sweep entry (t, k - 1) agrees with top_k_ground_energies at a
    uniform k: the same nan pattern, and energies within the reduced pair's
    first-order rounding bound."""
    h_stack, vals, vecs = sweep_block(dtype)
    sweep = top_k_sweep(h_stack, vals, vecs)
    for k in range(1, vals.shape[1] + 1):
        uniform = top_k_ground_energies(h_stack, vals, vecs, np.full(len(vals), k))
        for h, w, got, want in zip(h_stack, vals, sweep[:, k - 1], uniform):
            assert_energy_agrees(got, want, h, w, k)


def chi_at(h_exact, s_exact, h_pert, s_pert, epsilon):
    """chi between the two pairs, each thresholded at the same epsilon, from a
    one-trial stack; and the perturbed pair's retained dimension."""
    vals, vecs = overlap_eigh(h_pert[None], s_pert[None])
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
    vals, vecs = overlap_eigh(h[None], s[None])
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=6))
    rotated = vecs * phases  # each overlap eigenvector times its own phase
    v_rot = rotated[0][:, : ex.n_eps]
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
    vals, vecs = overlap_eigh(h_stack, s_stack)
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


@pytest.mark.parametrize("k", ([3] * 6, [3, 3, 2, 3, 4, 3]), ids=("uniform_k", "mixed_k"))
def test_whole_stack_group_matches_gathered_rows(k):
    """A group holding every trial takes the stack as it is, not a gathered
    copy, and gets the gathered form's bits: those of the same stack with one
    more trial that keeps nothing (k = 0), so that no group holds every trial."""
    h_stack, s_stack = random_stack([1.0, 0.6, 0.3, 0.1, 0.02], trials=6, seed=12)
    vals, vecs = overlap_eigh(h_stack, s_stack)
    k = np.array(k)
    ex = basis_thresholding(h_stack[0], s_stack[0], 0.2)
    gathered = [np.concatenate([a, a[:1]]) for a in (h_stack, vals, vecs)]
    for solve in (top_k_ground_energies, lambda *a: chi_between_thresholds(ex, *a)):
        whole = solve(h_stack, vals, vecs, k)
        rows = solve(*gathered, np.append(k, 0))
        assert np.isfinite(whole).all() and np.isnan(rows[-1])
        assert np.array_equal(whole, rows[:-1])


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
