"""Shot allocation and Hadamard-test noise injection.

Allocation tests pin the worked integer splits; noise tests verify the
estimator's first two moments against the binomial law it simulates, using
synthetic measurement targets whose variances are known in closed form.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    argsort_largest_remainder,
    exchange_unitary,
    grid_binomial_estimates,
    largest_remainder,
    sample_pair,
)

from qksd import rngstream
from qksd.errors import InfeasibleBudgetError
from qksd.krylov import KrylovConfig, MeasurementTargets, toeplitz_matrix, toeplitz_real_form
from qksd.sampling import (
    MODES,
    TARGETS,
    NoiseSpec,
    Sampler,
    ShotPlan,
    allocate_nontoeplitz,
    allocate_toeplitz,
    expected_pair,
    sample_hamiltonian_ensemble,
    sample_overlap_ensemble,
    split_budget,
)
from qksd.sampling import _largest_remainder


def synthetic_targets(n, betas, s_seq, frag, construction="toeplitz", id_coeff=0.0):
    return MeasurementTargets(
        construction=construction,
        config=KrylovConfig(n=n, dt=1.0),
        betas=np.asarray(betas, dtype=float),
        id_coeff=id_coeff,
        s_seq=np.asarray(s_seq, dtype=complex),
        frag=np.asarray(frag, dtype=complex),
    )


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


def test_overlap_plan_n3():
    plan = allocate_toeplitz(1000, 3, is_h=False)
    assert plan.target == "S_toeplitz"
    assert plan.elements.tolist() == [[1, 0], [2, 0]]  # S's diagonal is not sampled
    assert plan.counts.shape == (2, 2, 1)
    assert plan.counts[:, :, 0].tolist() == [[250, 250], [250, 250]]


def test_hamiltonian_plan_n3():
    plan = allocate_toeplitz(10_000, 3, is_h=True)
    counts = plan.counts[:, :, 0]  # (lag, configuration)
    assert counts[0].tolist() == [2612, 0]  # the diagonal has no imag part
    assert counts[1:].tolist() == [[1847, 1847], [1847, 1847]]
    assert plan.counts.sum() == 10_000


def test_hamiltonian_plan_n1_all_diagonal():
    plan = allocate_toeplitz(100, 1, is_h=True)
    assert plan.elements.tolist() == [[0, 0]]
    assert plan.counts.tolist() == [[[100], [0]]]


def test_overlap_plan_n1_infeasible():
    with pytest.raises(InfeasibleBudgetError):
        allocate_toeplitz(100, 1, is_h=False)


def test_toeplitz_budget_floor():
    with pytest.raises(InfeasibleBudgetError):
        allocate_toeplitz(9, 5, is_h=True)  # need 2n = 10
    allocate_toeplitz(10, 5, is_h=True)


def test_elementwise_plan_uniform():
    plan = allocate_nontoeplitz(400, 2)
    assert plan.elements.tolist() == [[0, 0], [0, 1], [1, 1]]
    # real and imag of (0, 1), real only on the diagonal
    assert plan.counts[:, :, 0].tolist() == [[100, 0], [100, 100], [100, 0]]


def test_elementwise_plan_n1():
    plan = allocate_nontoeplitz(7, 1)
    assert plan.counts.tolist() == [[[7], [0]]]


def test_elementwise_budget_floor():
    with pytest.raises(InfeasibleBudgetError):
        allocate_nontoeplitz(24, 5)  # need n^2 = 25


def test_fragment_split_proportional():
    plan = allocate_toeplitz(10_000, 3, is_h=True, betas=np.array([1.0, 3.0]))
    assert plan.counts[0, 0].tolist() == [653, 1959]
    for lag, cfg in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1)):
        shots = plan.counts[lag, cfg]
        assert abs(shots[1] - 3 * shots[0]) <= 3  # rounding only
        assert shots.sum() in (2612, 1847)


@given(
    n=st.integers(min_value=1, max_value=9),
    m=st.integers(min_value=200, max_value=10_000),
    j=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_allocation_totals_exact(n, m, j):
    betas = np.linspace(1.0, 2.0, j)
    plan_h = allocate_toeplitz(m, n, is_h=True, betas=betas)
    assert plan_h.counts.sum() == m
    if n * n <= m:
        # near M = n^2 a row's few shots can leave a light fragment at zero
        per_row, lightest = m // (n * n), betas[0] / betas.sum()
        try:
            plan_e = allocate_nontoeplitz(m, n, betas=betas)
        except InfeasibleBudgetError as exc:
            assert "without shots" in str(exc)
            assert per_row * lightest < 1
        else:
            assert plan_e.counts.sum() == m
    if n > 1:
        plan_s = allocate_toeplitz(m, n, is_h=False)
        assert plan_s.counts.sum() == m


# ideals with exact ties (quarters), integer ideals and arbitrary fractions
_IDEAL = st.one_of(
    st.integers(0, 40).map(float),
    st.integers(0, 160).map(lambda q: q / 4),
    st.floats(0.0, 40.0),
)


@given(
    rows=st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.tuples(st.lists(_IDEAL, min_size=k, max_size=k), st.integers(0, 3 * k)),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_largest_remainder_matches_scalar_oracle(rows):
    """Row-wise rounding gives the scalar loop's counts row by row, ties and
    remainders of K or more (wrapping round the row) included."""
    ideals = np.array([r[0] for r in rows])
    totals = np.array([int(np.floor(r[0]).sum()) + r[1] for r in rows])
    expected = [largest_remainder(i, t) for i, t in zip(ideals, totals)]
    assert np.array_equal(_largest_remainder(ideals, totals), expected)
    assert np.array_equal(_largest_remainder(ideals[0], totals[0]), expected[0])
    short = totals.copy()
    short[-1] = np.floor(ideals[-1]).sum() - 1
    with pytest.raises(ValueError, match="exceed the total"):
        _largest_remainder(ideals, short)


@given(
    rows=st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.tuples(st.lists(_IDEAL, min_size=k, max_size=k), st.integers(0, 3 * k)),
            min_size=1,
            max_size=6,
        )
    ),
    one_d=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_largest_remainder_ranks_match_argsort_oracle(rows, one_d):
    """Queue places scattered from each row's order give the double argsort's
    counts exactly (dtype and bytes), on 1-D and 2-D ideals, with ties,
    integer ideals (zero remainder) and remainders of K or more (laps)."""
    ideals = np.array([r[0] for r in rows])
    totals = np.array([int(np.floor(r[0]).sum()) + r[1] for r in rows])
    if one_d:
        ideals, totals = ideals[0], int(totals[0])
    got = _largest_remainder(ideals, totals)
    want = argsort_largest_remainder(ideals, totals)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_allocation_deterministic():
    a = allocate_toeplitz(12_345, 7, is_h=True, betas=np.array([0.3, 0.5, 0.2]))
    b = allocate_toeplitz(12_345, 7, is_h=True, betas=np.array([0.3, 0.5, 0.2]))
    assert (a.target, a.n) == (b.target, b.n)
    assert np.array_equal(a.counts, b.counts)


def test_split_budget_equal_norms():
    assert split_budget(10**6, 9, "toeplitz", 1.0) == (500_000, 500_000)


def test_split_budget_weighted():
    m_h, m_s = split_budget(4 * 10**8, 9, "toeplitz", 3.0)
    assert (m_h, m_s) == (3 * 10**8, 10**8)


def test_split_budget_elementwise_ratio():
    # e_H/e_S = sqrt(n/2) = 2 at n = 8
    m_h, m_s = split_budget(3 * 10**6, 8, "nontoeplitz", 1.0)
    assert m_h == 2 * m_s
    assert m_h + m_s == 3 * 10**6


def test_plan_validation():
    plan = ShotPlan("S_toeplitz", 3, np.full((2, 2, 1), 4))
    assert plan.counts.sum() == 16
    with pytest.raises(ValueError):
        plan.counts[0, 0, 0] = 5  # stored read-only
    assert plan.elements is plan.elements  # built once, not per access
    with pytest.raises(ValueError):
        plan.elements[0, 0] = 2  # stored read-only
    with pytest.raises(ValueError):
        ShotPlan("X", 3, np.full((2, 2, 1), 4))


def test_plan_rejects_off_grid_entry():
    """The counts array must fit its target's grid, shot for shot."""
    off_grid = [
        ("S_toeplitz", (3, 2, 1)),  # S's diagonal is known: lags 1..n-1 only
        ("H_toeplitz", (2, 2, 1)),  # H's lags are 0..n-1
        ("H_nontoeplitz", (9, 2, 1)),  # upper triangle only: 6 elements at n = 3
        ("H_nontoeplitz", (6, 3, 1)),  # real and imag only
        ("H_toeplitz", (3, 2, 0)),  # no fragment
        ("H_toeplitz", (3, 2)),  # no fragment axis
    ]
    for target, shape in off_grid:
        with pytest.raises(ValueError, match="off the"):
            ShotPlan(target, 3, np.ones(shape, dtype=np.int64))
    counts = np.full((3, 2, 2), 4)
    counts[0, 1] = 0  # the diagonal (lag 0) has no imag part
    ShotPlan("H_toeplitz", 3, counts)
    negative = counts.copy()
    negative[1, 0, 1] = -1
    with pytest.raises(ValueError, match="negative"):
        ShotPlan("H_toeplitz", 3, negative)
    diagonal_imag = counts.copy()
    diagonal_imag[0, 1, 1] = 1
    with pytest.raises(ValueError, match="imaginary"):
        ShotPlan("H_toeplitz", 3, diagonal_imag)
    starved = counts.copy()
    starved[2, 0, 1] = 0
    with pytest.raises(
        InfeasibleBudgetError,
        match=r"^budget 36 leaves H_toeplitz element \(2, 0\) real fragment 1 without",
    ):
        ShotPlan("H_toeplitz", 3, starved)
    elementwise = np.full((6, 2, 1), 3)
    elementwise[[0, 3, 5], 1] = 0  # diagonal (0, 0), (1, 1), (2, 2)
    ShotPlan("H_nontoeplitz", 3, elementwise)
    elementwise[4, 1] = 0
    with pytest.raises(InfeasibleBudgetError, match=r"\(1, 2\) imag fragment 0"):
        ShotPlan("H_nontoeplitz", 3, elementwise)


@given(
    n=st.integers(min_value=1, max_value=15),
    betas=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    m_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_allocators_cover_every_required_coordinate(n, betas, m_frac):
    """Each allocator refuses the budget or covers every required coordinate.

    A covered plan sums to M, gives >= 1 shot to every required coordinate
    and none to a diagonal element's imaginary part.
    """
    betas = np.array(betas)
    m = int(round(n * n + m_frac * (100_000 - n * n)))
    allocators = (
        lambda: allocate_toeplitz(m, n, is_h=True, betas=betas),
        lambda: allocate_toeplitz(m, n, is_h=False),
        lambda: allocate_nontoeplitz(m, n, betas=betas),
    )
    for allocate in allocators:
        try:
            plan = allocate()
        except InfeasibleBudgetError:
            continue
        counts = plan.counts
        diagonal = plan.elements[:, 0] == plan.elements[:, 1]
        assert counts.sum() == m
        assert np.all(counts[~diagonal] >= 1)
        assert np.all(counts[diagonal, 0] >= 1)
        assert np.all(counts[diagonal, 1] == 0)


# ---------------------------------------------------------------------------
# Ensemble sampling against synthetic targets
# ---------------------------------------------------------------------------


def hand_plan_toeplitz_h(n, m_diag, m_off):
    counts = np.full((n, 2, 1), m_off)
    counts[0] = [[m_diag], [0]]  # the diagonal has no imag part
    return ShotPlan("H_toeplitz", n, counts)


@pytest.mark.parametrize("mode,trials", [("gaussian", 10_000), ("binomial", 4000)])
def test_offdiagonal_variance_matches_model(mode, trials):
    """Var of a sampled off-diagonal H element is 4 beta^2 / m_k.

    Zero-mean fragment overlaps make the per-part binomial variance exactly
    1/m, so the closed-form element variance is exact, not an upper bound.
    """
    beta = 0.7
    m_cfg = 400
    targets = synthetic_targets(
        n=3,
        betas=[beta],
        s_seq=[1.0, 0.0, 0.0],
        frag=[[0.2, 0.0, 0.0]],
    )
    plan = hand_plan_toeplitz_h(3, m_diag=500, m_off=m_cfg)
    noise = NoiseSpec(mode=mode, rng_seed=321)
    h_exp, _ = expected_pair(targets)
    h_stack = sample_hamiltonian_ensemble(targets, plan, noise, trials)
    delta = h_stack[:, 0, 1] - h_exp[0, 1]
    var = np.mean(np.abs(delta) ** 2)
    assert var == pytest.approx(4 * beta**2 / (2 * m_cfg), rel=0.05)
    assert abs(np.mean(delta)) < 4 * math.sqrt(var / trials)


def test_diagonal_variance_within_model():
    # the variance model books 2 V^2/m_0 for the diagonal; the faithful
    # estimator achieves V^2/m_0 at a zero-mean target, so model >= actual
    beta = 0.5
    targets = synthetic_targets(
        n=3, betas=[beta], s_seq=[1.0, 0.0, 0.0], frag=[[0.0, 0.0, 0.0]]
    )
    plan = hand_plan_toeplitz_h(3, m_diag=400, m_off=300)
    noise = NoiseSpec(mode="gaussian", rng_seed=99)
    h_stack = sample_hamiltonian_ensemble(targets, plan, noise, 10_000)
    var = np.var(h_stack[:, 1, 1].real)
    assert var == pytest.approx(beta**2 / 400, rel=0.06)
    assert var <= 2 * beta**2 / 400


def test_binomial_endpoint_exact():
    """A part of mean exactly 1 draws Bin(m, 1) = m: every estimate is exactly 1."""
    targets = synthetic_targets(n=1, betas=[1.0], s_seq=[1.0], frag=[[1.0]])
    plan = allocate_toeplitz(100, 1, is_h=True)  # the diagonal: real part only
    noise = NoiseSpec(mode="binomial", rng_seed=11)
    stack = sample_hamiltonian_ensemble(targets, plan, noise, 5)
    assert np.all(stack == 1.0 + 0.0j)


def test_zero_shot_flag_from_hand_plan():
    """A hand plan that never samples lag 2 is refused, not sampled biased."""
    counts = np.array([[[5], [5]], [[0], [0]]])
    with pytest.raises(
        InfeasibleBudgetError,
        match=r"budget 10 leaves S_toeplitz element \(2, 0\) real fragment 0",
    ):
        ShotPlan("S_toeplitz", 3, counts)


def test_unsampled_overlap_element_is_zero():
    """An overlap element without shots is refused; the known diagonal stays exact."""
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    counts = np.array([[[5], [5]], [[5], [0]]])  # lag 2 imag never sampled
    with pytest.raises(InfeasibleBudgetError, match=r"\(2, 0\) imag fragment 0"):
        ShotPlan("S_toeplitz", 3, counts)
    counts[1, 1] = 5
    plan_s = ShotPlan("S_toeplitz", 3, counts)
    plan_h = hand_plan_toeplitz_h(3, 4, 4)
    noise = NoiseSpec(mode="gaussian", rng_seed=0)
    s_stack = sample_pair(targets, plan_h, plan_s, noise, 1)[1]
    # the real-form stack is built from the sequence (1, lag 1, lag 2): S's
    # diagonal takes no shots
    sampler = Sampler(targets, [plan_s], noise)
    seq = np.concatenate([[1.0], sampler.estimates(sampler.draw(1, 0), 0)[0]])
    assert np.array_equal(s_stack[0], toeplitz_real_form(seq))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("construction", ("toeplitz", "nontoeplitz"))
def test_sampler_budgets_match_one_plan_ensembles(construction, mode):
    """A Sampler over three budgets draws a block once and gives each budget's
    stacks bit for bit as the one-plan ensemble at that budget."""
    n, betas = 3, np.array([0.4, 0.6])
    rng = np.random.default_rng(7)
    shape = (2, n) if construction == "toeplitz" else (2, n, n)
    frag = 0.3 * (rng.random(shape) + 1j * rng.random(shape))
    targets = synthetic_targets(
        n, betas, [1.0, 0.3 + 0.1j, 0.1 - 0.2j], frag, construction, id_coeff=0.25
    )
    noise = NoiseSpec(mode=mode, hardware_lambda=0.1, rng_seed=9)
    budgets = (400, 5_000, 80_000)
    if construction == "toeplitz":
        plans = {"S": [allocate_toeplitz(m, n, is_h=False) for m in budgets]}
        plans["H"] = [allocate_toeplitz(m, n, is_h=True, betas=betas) for m in budgets]
    else:
        plans = {"H": [allocate_nontoeplitz(m, n, betas) for m in budgets]}
    one_plan = {"S": sample_overlap_ensemble, "H": sample_hamiltonian_ensemble}
    for matrix, matrix_plans in plans.items():
        sampler = Sampler(targets, matrix_plans, noise)
        draws = sampler.draw(4, 6)
        for i, plan in enumerate(matrix_plans):
            want = one_plan[matrix](targets, plan, noise, 4, 6)
            assert np.array_equal(sampler.stack(draws, i), want), (matrix, i)


def test_sampler_rejects_fragment_count_mismatch():
    targets = synthetic_targets(
        n=3, betas=[0.5, 0.5], s_seq=[1.0, 0.1, 0.2], frag=np.full((2, 3), 0.1)
    )
    plan = hand_plan_toeplitz_h(3, 4, 4)  # one fragment
    with pytest.raises(ValueError, match="plan has 1 fragments, the targets have 2"):
        sample_hamiltonian_ensemble(targets, plan, NoiseSpec(), 2)


def test_sample_structure_toeplitz():
    targets = synthetic_targets(
        n=5,
        betas=[0.4, 0.6],
        s_seq=[1.0, 0.2 + 0.1j, 0.05, 0.01j, 0.0],
        frag=np.array(
            [
                [0.3, 0.1, 0.05, 0.02, 0.01],
                [0.2, -0.1, 0.03j, 0.0, 0.005],
            ]
        ),
        id_coeff=0.25,
    )
    plan_h = allocate_toeplitz(20_000, 5, is_h=True, betas=targets.betas)
    plan_s = allocate_toeplitz(20_000, 5, is_h=False)
    for mode in ("gaussian", "binomial"):
        noise = NoiseSpec(mode=mode, rng_seed=3)
        h_stack, s_stack = sample_pair(targets, plan_h, plan_s, noise, 1)
        for stack, plan in ((h_stack, plan_h), (s_stack, plan_s)):
            # the stack is the real form of the sampled sequence, bit for bit
            sampler = Sampler(targets, [plan], noise)
            seq = sampler.estimates(sampler.draw(1, 0), 0)[0]
            if plan is plan_s:
                seq = np.concatenate([[1.0], seq])  # S's diagonal takes no shots
            else:
                seq = seq + sampler.shift
            assert stack.dtype == np.float64
            assert np.array_equal(stack[0], toeplitz_real_form(seq))
            assert np.array_equal(stack[0], stack[0].T)
            m = toeplitz_matrix(seq)  # the Hermitian Toeplitz matrix it stands for
            assert np.array_equal(m, m.conj().T)
            # constant diagonals: exact Toeplitz structure
            for k in range(1, 5):
                assert len(set(np.diag(m, k).tolist())) == 1


def test_sample_structure_elementwise():
    rng = np.random.default_rng(8)
    n = 5
    frag = rng.normal(size=(2, n, n)) * 0.1 + 1j * rng.normal(size=(2, n, n)) * 0.1
    frag = 0.5 * (frag + np.transpose(frag, (0, 2, 1)).conj())
    targets = synthetic_targets(
        n=n,
        betas=[0.5, 0.5],
        s_seq=[1.0, 0.1, 0.05, 0.0, 0.02],
        frag=frag,
        construction="nontoeplitz",
        id_coeff=0.1,
    )
    plan_h = allocate_nontoeplitz(5000, n, betas=targets.betas)
    plan_s = allocate_toeplitz(5000, n, is_h=False)
    noise = NoiseSpec(mode="gaussian", rng_seed=4)
    h = sample_pair(targets, plan_h, plan_s, noise, 1)[0][0]
    assert np.array_equal(h, h.conj().T)


def test_ensemble_chunks_reproduce_full_run():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_h = allocate_toeplitz(600, 3, is_h=True)
    plan_s = allocate_toeplitz(600, 3, is_h=False)
    noise = NoiseSpec(mode="gaussian", rng_seed=12)
    h_all, s_all = sample_pair(targets, plan_h, plan_s, noise, trials=8)
    h_tail, s_tail = sample_pair(
        targets, plan_h, plan_s, noise, trials=3, first_trial=5
    )
    assert np.array_equal(h_all[5:], h_tail)
    assert np.array_equal(s_all[5:], s_tail)


# ---------------------------------------------------------------------------
# Draw order in both modes, chunk invariance and the binomial range guard
# ---------------------------------------------------------------------------


def _binomial_reference(seed, trial, target, means, counts, betas):
    """The (P,) binomial estimates of one trial, one count at a time.

    The trial's stream (seed, trial, target) draws one count per sampled
    (element, configuration, fragment) in the grid's C order; zero-count
    coordinates draw nothing and stay 0.  Fragments are summed with weights
    betas.
    """
    gen = rngstream.generator(rngstream.stream_key(seed, trial, TARGETS.index(target)))
    est = np.zeros(means.shape)
    for p, c, j in np.ndindex(means.shape):
        m = int(counts[p, c, j])
        if m == 0:
            continue
        prob = 0.5 * (1.0 + min(1.0, max(-1.0, float(means[p, c, j]))))
        est[p, c, j] = 2.0 * gen.binomial(m, prob) / m - 1.0
    return (est[:, 0, :] + 1j * est[:, 1, :]) @ betas


def _gaussian_reference(seed, trial, target, means, counts, betas):
    """The (P,) gaussian estimates of one trial, one configuration at a time.

    The trial's stream draws one standard normal per filled (element,
    configuration) in the grid's C order; each filled part is
    sum_j beta_j mu_j + sqrt(sum_j beta_j^2 (1 - mu_j^2)/m_j) z, and an
    unfilled part (a diagonal's imag) stays 0.
    """
    filled = [(p, c) for p, c in np.ndindex(counts.shape[:2]) if counts[p, c].any()]
    keys = rngstream.stream_keys(seed, trial, TARGETS.index(target))
    z = rngstream.normals(keys, len(filled))[0]
    est = np.zeros(counts.shape[:2])
    for (p, c), z_pc in zip(filled, z):
        mu, m = means[p, c], counts[p, c]
        var = sum(bj * bj * (1.0 - x * x) / mj for bj, x, mj in zip(betas, mu, m))
        est[p, c] = float(betas @ mu) + math.sqrt(var) * z_pc
    return est[:, 0] + 1j * est[:, 1]


REFERENCE = {"binomial": _binomial_reference, "gaussian": _gaussian_reference}


def _hand_plan(target, n, positions, n_frag):
    """Mixed shot counts over the (position, config, fragment) grid.

    Every required coordinate gets shots; a diagonal imag part gets none.
    """
    counts = np.zeros((len(positions), 2, n_frag), dtype=np.int64)
    i = 0
    for p, (a, b) in enumerate(positions):
        for c in (0, 1) if a != b else (0,):
            counts[p, c] = 7 + 11 * i + 5 * np.arange(n_frag)
            i += 1
    return ShotPlan(target, n, counts)


def _random_overlaps(rng, shape):
    return rng.uniform(-0.9, 0.9, size=shape) + 1j * rng.uniform(-0.9, 0.9, size=shape)


def test_binomial_toeplitz_h_matches_scalar_draw_order():
    """Both noise modes; the test keeps its first name.  Gaussian mode draws one
    normal per (lag, configuration) for the fragment sum, binomial one count per
    fragment."""
    rng = np.random.default_rng(17)
    n, betas = 5, np.array([0.5, 0.3, 0.2])
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.2, 0.1, 0.05, 0.02],
        frag=_random_overlaps(rng, (3, n)), id_coeff=0.25,
    )
    positions = [(k, 0) for k in range(n)]
    plan = _hand_plan("H_toeplitz", n, positions, 3)
    counts = plan.counts
    assert not counts[0, 1].any() and counts[1:].all()  # zero mid-grid
    f = targets.frag
    means = np.stack([f.real.T, f.imag.T], axis=1)  # (n, 2, J)
    q = exchange_unitary(n)
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=29)
        stack = sample_hamiltonian_ensemble(targets, plan, noise, 3, first_trial=4)
        for t in range(3):
            h_seq = REFERENCE[mode](29, 4 + t, "H_toeplitz", means, counts, betas)
            h_seq = h_seq + 0.25 * targets.s_seq
            expected = np.array(
                [[h_seq[l - k] if l >= k else h_seq[k - l].conj() for l in range(n)]
                 for k in range(n)]
            )
            got = q @ stack[t] @ q.conj().T  # from real form to the sampled basis
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_binomial_elementwise_h_matches_scalar_draw_order():
    """Both noise modes, as in the Toeplitz test; the test keeps its first name."""
    rng = np.random.default_rng(18)
    n, betas = 3, np.array([0.6, 0.4])
    frag = _random_overlaps(rng, (2, n, n))
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.1, 0.05], frag=frag,
        construction="nontoeplitz", id_coeff=0.1,
    )
    positions = [(a, b) for a in range(n) for b in range(a, n)]
    plan = _hand_plan("H_nontoeplitz", n, positions, 2)
    counts = plan.counts
    assert not counts[3, 1].any() and counts[4].all()  # (1, 1) imag: zero mid-grid
    tri = np.array([[frag[j, a, b] for j in range(2)] for a, b in positions])  # (P, J)
    means = np.stack([tri.real, tri.imag], axis=1)  # (P, 2, J)
    s_mat = expected_pair(targets)[1]
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=31)
        stack = sample_hamiltonian_ensemble(targets, plan, noise, 2, first_trial=9)
        for t in range(2):
            vals = REFERENCE[mode](31, 9 + t, "H_nontoeplitz", means, counts, betas)
            expected = np.zeros((n, n), dtype=complex)
            for (a, b), v in zip(positions, vals):
                expected[a, b] = v + 0.1 * s_mat[a, b]
                expected[b, a] = expected[a, b].conj()
            np.testing.assert_allclose(stack[t], expected, rtol=0, atol=1e-12)


def test_binomial_overlap_matches_scalar_draw_order():
    """Both noise modes; the test keeps its first name."""
    n = 5
    s_seq = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.4j, 0.05j, -0.6])
    targets = synthetic_targets(n=n, betas=[1.0], s_seq=s_seq, frag=np.zeros((1, n)))
    positions = [(k, 0) for k in range(1, n)]  # S's diagonal is known
    plan = _hand_plan("S_toeplitz", n, positions, 1)
    counts = plan.counts
    means = np.stack([s_seq.real, s_seq.imag], axis=1)[1:, :, None]  # (n - 1, 2, 1)
    q = exchange_unitary(n)
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=37)
        stack = sample_overlap_ensemble(targets, plan, noise, 2, first_trial=3)
        for t in range(2):
            est = REFERENCE[mode](37, 3 + t, "S_toeplitz", means, counts, np.ones(1))
            seq = np.concatenate([[1.0], est])
            expected = np.array(
                [[seq[l - k] if l >= k else seq[k - l].conj() for l in range(n)]
                 for k in range(n)]
            )
            got = q @ stack[t] @ q.conj().T  # from real form to the sampled basis
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    construction=st.sampled_from(["toeplitz", "nontoeplitz"]),
    trials=st.integers(2, 9),
    split=st.integers(1, 8),
    first=st.integers(0, 40),
    seed=st.integers(0, 2**31),
)
def test_binomial_chunks_reproduce_full_run(construction, trials, split, first, seed):
    """Both noise modes; the test keeps its first name."""
    split = min(split, trials - 1)
    n, betas = 3, np.array([0.7, 0.3])
    frag_shape = (2, n) if construction == "toeplitz" else (2, n, n)
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.1, 0.2],
        frag=_random_overlaps(np.random.default_rng(seed), frag_shape),
        construction=construction,
    )
    if construction == "toeplitz":
        plan_h = allocate_toeplitz(900, n, is_h=True, betas=betas)
    else:
        plan_h = allocate_nontoeplitz(900, n, betas=betas)
    plan_s = allocate_toeplitz(900, n, is_h=False)
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=seed)
        h_all, s_all = sample_pair(targets, plan_h, plan_s, noise, trials, first)
        h_a, s_a = sample_pair(targets, plan_h, plan_s, noise, split, first)
        h_b, s_b = sample_pair(
            targets, plan_h, plan_s, noise, trials - split, first + split
        )
        assert np.array_equal(h_all, np.concatenate([h_a, h_b]))
        assert np.array_equal(s_all, np.concatenate([s_a, s_b]))


def _guard_targets(frag):
    return synthetic_targets(n=3, betas=[0.5, 0.5], s_seq=[1.0, 0.1, 0.2], frag=frag)


def _guard_plan():
    return _hand_plan("H_toeplitz", 3, [(0, 0), (1, 0), (2, 0)], 2)


def test_binomial_ensemble_rejects_sampled_out_of_range_mean():
    noise = NoiseSpec(mode="binomial", rng_seed=0)
    frag = np.full((2, 3), 0.2 + 0.1j)
    frag[1, 1] = 1.01 + 0.1j
    with pytest.raises(ValueError, match=r"binomial mode needs \|part\| <= 1, got 1.01"):
        sample_hamiltonian_ensemble(_guard_targets(frag), _guard_plan(), noise, 2)
    frag[1, 1] = complex(1.0 + 1e-10, 0.1)  # within clipping tolerance: fine
    sample_hamiltonian_ensemble(_guard_targets(frag), _guard_plan(), noise, 2)


def test_binomial_ensemble_ignores_out_of_range_mean_without_shots():
    noise = NoiseSpec(mode="binomial", rng_seed=0)
    frag = np.full((2, 3), 0.2 + 0.1j)
    frag[0, 0] = 0.2 + 1.01j  # diagonal imag is never sampled
    stack = sample_hamiltonian_ensemble(_guard_targets(frag), _guard_plan(), noise, 2)
    assert np.all(np.isfinite(stack))
    counts = _guard_plan().counts.copy()
    counts[2, 0, 1] = 0  # no other coordinate may go without shots
    with pytest.raises(InfeasibleBudgetError):
        ShotPlan("H_toeplitz", 3, counts)


def _binomial_sampler(target, fragments, n, budgets, decay=0.0, seed=0):
    """A binomial Sampler of one target over random overlaps, and its plans."""
    rng = np.random.default_rng(fragments * 100 + n)
    betas = rng.uniform(0.2, 1.0, fragments)
    elementwise = target == "H_nontoeplitz"
    s_seq = np.concatenate([[1.0], _random_overlaps(rng, n - 1)])
    frag = _random_overlaps(rng, (fragments, n, n) if elementwise else (fragments, n))
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=s_seq, frag=frag,
        construction="nontoeplitz" if elementwise else "toeplitz", id_coeff=0.2,
    )
    if elementwise:
        plans = [allocate_nontoeplitz(m, n, betas=betas) for m in budgets]
    else:
        plans = [allocate_toeplitz(m, n, target == "H_toeplitz", betas) for m in budgets]
    noise = NoiseSpec(mode="binomial", hardware_lambda=decay, rng_seed=seed)
    return Sampler(targets, plans, noise), plans


@pytest.mark.parametrize("decay", (0.0, 0.3))
@pytest.mark.parametrize(
    "target, fragments",
    [("S_toeplitz", 1), ("H_toeplitz", 1), ("H_toeplitz", 4),
     ("H_nontoeplitz", 1), ("H_nontoeplitz", 4)],
)
def test_binomial_estimates_match_grid_oracle(target, fragments, decay):
    """Reducing each trial's fragment counts into its row reproduces, bit for
    bit, the whole block's (T, P, 2, J) grid reduced in one stacked product
    (`oracles.grid_binomial_estimates`): at one and several fragments, in
    one-trial and several-trial blocks, at each of two budgets, with and
    without decay."""
    sampler, plans = _binomial_sampler(target, fragments, 5, (4000, 90_000), decay, seed=41)
    for trials, first in ((1, 7), (6, 0)):
        draws = sampler.draw(trials, first)
        for i, plan in enumerate(plans):
            got = sampler.estimates(draws, i)
            want = grid_binomial_estimates(sampler, plan, draws, i)
            assert got.shape == want.shape == (trials, plan.counts.shape[0])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_binomial_stack_peak_does_not_scale_with_fragments():
    """A binomial block's traced peak in `Sampler.stack` grows with the
    fragment count J by less than one float per (trial, element, fragment):
    counts are drawn into one trial's (P, J) grid at a time and reduced into
    the block's (T, P) estimates, never held as a (T, P, 2, J) grid.  An
    elementwise n = 9 block of 64 trials at J = 2 and 34 fragments."""
    n, trials, small, large = 9, 64, 2, 34
    peaks = {}
    for fragments in (small, large):
        sampler, _ = _binomial_sampler("H_nontoeplitz", fragments, n, (10**7,))
        draws = sampler.draw(trials, 0)
        sampler.stack(draws, 0)  # warm up: lazy imports and caches
        tracemalloc.start()
        try:
            sampler.stack(draws, 0)
            peaks[fragments] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    elements = n * (n + 1) // 2
    assert peaks[large] - peaks[small] < 8 * trials * elements * (large - small), peaks


def test_seed_changes_samples():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_h = allocate_toeplitz(600, 3, is_h=True)
    plan_s = allocate_toeplitz(600, 3, is_h=False)
    a, b = (
        sample_pair(targets, plan_h, plan_s, NoiseSpec(rng_seed=seed), 1)[0]
        for seed in (1, 2)
    )
    assert not np.array_equal(a, b)


def test_gaussian_binomial_same_mean_and_spread():
    targets = synthetic_targets(
        n=3, betas=[0.6], s_seq=[1.0, 0.0, 0.0], frag=[[0.1, 0.0, 0.0]]
    )
    plan = hand_plan_toeplitz_h(3, m_diag=500, m_off=500)
    trials = 3000
    second = {}
    for mode in ("gaussian", "binomial"):
        stack = sample_hamiltonian_ensemble(
            targets, plan, NoiseSpec(mode=mode, rng_seed=55), trials
        )
        d = stack[:, 0, 1]  # zero-mean element
        second[mode] = np.mean(np.abs(d) ** 2)
        assert abs(np.mean(d)) < 4 * math.sqrt(second[mode] / trials)
    g, b = second["gaussian"], second["binomial"]
    assert abs(g - b) < 0.1 * max(g, b)


# trials per mode, standard errors allowed, and one seed per mode, so that the
# two ensembles share no stream
MOMENT_TRIALS, MOMENT_K, MOMENT_SEEDS = 4000, 5.0, {"gaussian": 601, "binomial": 602}


@pytest.mark.parametrize("construction", ["toeplitz", "nontoeplitz"])
def test_collapsed_gaussian_matches_per_fragment_binomial(construction):
    """At J = 3 unequal weights, the gaussian draw of each (element,
    configuration) has the law of the beta-weighted sum of per-fragment
    binomial estimates.  Per sampled part, the mean and the second moment about
    sum_j beta_j mu_j agree between the two modes, and each agrees with the
    closed forms: zero, and sum_j beta_j^2 (1 - mu_j^2)/m_j.  Some fragment
    overlaps sit near +/-1, where the binomial law is most skewed.
    """
    n, betas = 3, np.array([0.55, 0.3, 0.15])
    rng = np.random.default_rng(19)
    if construction == "toeplitz":
        frag = _random_overlaps(rng, (3, n))
        frag[0, 0], frag[1, 1], frag[2, 2] = 0.98, -0.96 + 0.3j, 0.2 + 0.97j
        plan = allocate_toeplitz(2400, n, is_h=True, betas=betas)
        cells = [(0, k) for k in range(n)]  # lag k sits in row 0
        mu = frag.T.copy()  # (P, J)
    else:
        frag = _random_overlaps(rng, (3, n, n))
        frag[:, 1, 1], frag[:, 0, 2], frag[:, 0, 1] = 0.97, 0.98 - 0.1j, 0.1 - 0.97j
        plan = allocate_nontoeplitz(2700, n, betas=betas)
        cells = [(a, b) for a in range(n) for b in range(a, n)]
        mu = np.array([frag[:, a, b] for a, b in cells])
    diagonal = [a == b for a, b in cells]
    mu[diagonal] = mu[diagonal].real  # a diagonal's imag is never sampled
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.0, 0.0], frag=frag, construction=construction
    )
    moments = {}
    for mode, seed in MOMENT_SEEDS.items():
        sampler = Sampler(targets, [plan], NoiseSpec(mode=mode, rng_seed=seed))
        draws = sampler.draw(MOMENT_TRIALS, 0)
        if construction == "toeplitz":  # the real-form stack mixes lags: read them
            parts = sampler.estimates(draws, 0) + sampler.shift
        else:
            stack = sampler.stack(draws, 0)
            parts = np.stack([stack[:, a, b] for a, b in cells], axis=1)
        for p in range(len(cells)):
            d = parts[:, p] - betas @ mu[p]
            for c, x in enumerate((d.real, d.imag)):
                if not plan.counts[p, c].any():
                    assert not x.any()  # a diagonal's imag takes no draw
                    continue
                sq = x * x
                root_t = math.sqrt(MOMENT_TRIALS)
                moments[mode, p, c] = (
                    (x.mean(), x.std() / root_t), (sq.mean(), sq.std() / root_t)
                )
    assert len(moments) == 2 * int((plan.counts[:, :, 0] > 0).sum())
    for (mode, p, c), ((mean, se_mean), (second, se_second)) in moments.items():
        mu_pc = (mu[p].real, mu[p].imag)[c]
        var = float(np.sum(betas**2 * (1.0 - mu_pc**2) / plan.counts[p, c]))
        assert abs(mean) < MOMENT_K * se_mean, (mode, p, c)
        assert abs(second - var) < MOMENT_K * se_second, (mode, p, c)
        if mode == "gaussian":
            (b_mean, b_se_mean), (b_second, b_se_second) = moments["binomial", p, c]
            assert abs(mean - b_mean) < MOMENT_K * math.hypot(se_mean, b_se_mean)
            assert abs(second - b_second) < MOMENT_K * math.hypot(se_second, b_se_second)


# ---------------------------------------------------------------------------
# Hardware decay
# ---------------------------------------------------------------------------


def test_decay_scales_expected_pair():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]], id_coeff=0.2
    )
    h0, s0 = expected_pair(targets)
    h1, s1 = expected_pair(targets, hardware_lambda=0.5)
    f = math.exp(-0.5)
    assert np.allclose(h1, f * h0, atol=1e-15)
    assert np.allclose(s1, f * s0, atol=1e-15)


def test_sampling_centers_on_decayed_pair():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_h = allocate_toeplitz(400_000, 3, is_h=True)
    plan_s = allocate_toeplitz(400_000, 3, is_h=False)
    noise = NoiseSpec(mode="gaussian", hardware_lambda=0.7, rng_seed=9)
    h_stack, s_stack = sample_pair(targets, plan_h, plan_s, noise, trials=400)
    h_exp, s_exp = expected_pair(targets, hardware_lambda=0.7)
    assert np.abs(h_stack.mean(axis=0) - h_exp).max() < 5e-3
    assert np.abs(s_stack.mean(axis=0) - s_exp).max() < 5e-3
