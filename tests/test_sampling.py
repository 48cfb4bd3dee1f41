"""Shot allocation and Hadamard-test noise injection.

Allocation tests pin the worked integer splits; noise tests verify the
estimator's first two moments against the binomial law it simulates, using
synthetic measurement targets whose variances are known in closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qksd import rngstream
from qksd.errors import InfeasibleBudgetError
from qksd.krylov import KrylovConfig, MeasurementTargets
from qksd.sampling import (
    MODES,
    TARGETS,
    NoiseSpec,
    ShotEntry,
    ShotPlan,
    allocate_nontoeplitz,
    allocate_toeplitz,
    decay_exponent,
    expected_pair,
    hadamard_estimate,
    sample_ensemble,
    sample_hamiltonian_ensemble,
    sample_overlap_ensemble,
    sample_pair,
    split_budget,
)


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
    counts = {(e.a, e.config): e.shots for e in plan.entries}
    assert counts == {
        (1, "real"): 250,
        (1, "imag"): 250,
        (2, "real"): 250,
        (2, "imag"): 250,
    }
    elements, counts = plan.grid()
    assert elements.tolist() == [[1, 0], [2, 0]]  # S's diagonal is not sampled
    assert counts[:, :, 0].tolist() == [[250, 250], [250, 250]]


def test_hamiltonian_plan_n3():
    plan = allocate_toeplitz(10_000, 3, is_h=True)
    counts = {(e.a, e.config): e.shots for e in plan.entries}
    assert counts[(0, "real")] == 2612
    for key in ((1, "real"), (1, "imag"), (2, "real"), (2, "imag")):
        assert counts[key] == 1847
    assert sum(counts.values()) == 10_000


def test_hamiltonian_plan_n1_all_diagonal():
    plan = allocate_toeplitz(100, 1, is_h=True)
    assert plan.entries == (ShotEntry(0, 0, "real", 0, 100),)


def test_overlap_plan_n1_infeasible():
    with pytest.raises(InfeasibleBudgetError):
        allocate_toeplitz(100, 1, is_h=False)


def test_toeplitz_budget_floor():
    with pytest.raises(InfeasibleBudgetError):
        allocate_toeplitz(9, 5, is_h=True)  # need 2n = 10
    allocate_toeplitz(10, 5, is_h=True)


def test_elementwise_plan_uniform():
    plan = allocate_nontoeplitz(400, 2)
    assert all(e.shots == 100 for e in plan.entries)
    assert {(e.a, e.b, e.config) for e in plan.entries} == {
        (0, 0, "real"),
        (0, 1, "real"),
        (0, 1, "imag"),
        (1, 1, "real"),
    }


def test_elementwise_plan_n1():
    plan = allocate_nontoeplitz(7, 1)
    assert plan.entries == (ShotEntry(0, 0, "real", 0, 7),)


def test_elementwise_budget_floor():
    with pytest.raises(InfeasibleBudgetError):
        allocate_nontoeplitz(24, 5)  # need n^2 = 25


def test_fragment_split_proportional():
    plan = allocate_toeplitz(10_000, 3, is_h=True, betas=np.array([1.0, 3.0]))
    by_frag = {}
    for e in plan.entries:
        by_frag.setdefault((e.a, e.config), {})[e.fragment] = e.shots
    assert by_frag[(0, "real")] == {0: 653, 1: 1959}
    for key, shots in by_frag.items():
        total = sum(shots.values())
        assert abs(shots[1] - 3 * shots[0]) <= 3  # rounding only
        assert total in (2612, 1847)


@given(
    n=st.integers(min_value=1, max_value=9),
    m=st.integers(min_value=200, max_value=10_000),
    j=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_allocation_totals_exact(n, m, j):
    betas = np.linspace(1.0, 2.0, j)
    plan_h = allocate_toeplitz(m, n, is_h=True, betas=betas)
    assert sum(e.shots for e in plan_h.entries) == m
    if n * n <= m:
        plan_e = allocate_nontoeplitz(m, n, betas=betas)
        assert sum(e.shots for e in plan_e.entries) == m
    if n > 1:
        plan_s = allocate_toeplitz(m, n, is_h=False)
        assert sum(e.shots for e in plan_s.entries) == m


def test_allocation_deterministic():
    a = allocate_toeplitz(12_345, 7, is_h=True, betas=np.array([0.3, 0.5, 0.2]))
    b = allocate_toeplitz(12_345, 7, is_h=True, betas=np.array([0.3, 0.5, 0.2]))
    assert a == b


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
    with pytest.raises(ValueError):
        ShotPlan("S_toeplitz", 3, 10, (ShotEntry(1, 0, "real", 0, 4),))
    with pytest.raises(ValueError):
        ShotPlan("X", 3, 4, (ShotEntry(1, 0, "real", 0, 4),))


def test_plan_rejects_off_grid_entry():
    off_grid = [
        ("S_toeplitz", ShotEntry(0, 0, "real", 0, 4)),  # S's diagonal is known
        ("S_toeplitz", ShotEntry(3, 0, "real", 0, 4)),  # lag beyond n - 1
        ("H_toeplitz", ShotEntry(1, 1, "real", 0, 4)),  # Toeplitz keys are (a, 0)
        ("H_nontoeplitz", ShotEntry(1, 0, "real", 0, 4)),  # below the diagonal
        ("H_nontoeplitz", ShotEntry(0, 1, "phase", 0, 4)),  # unknown configuration
        ("H_toeplitz", ShotEntry(1, 0, "imag", -1, 4)),  # negative fragment
    ]
    for target, entry in off_grid:
        with pytest.raises(ValueError, match="off the"):
            ShotPlan(target, 3, 4, (entry,))


# ---------------------------------------------------------------------------
# Single-element estimator
# ---------------------------------------------------------------------------


def test_binomial_endpoint_exact():
    noise = NoiseSpec(mode="binomial", rng_seed=11)
    est = hadamard_estimate(1.0 + 0.0j, 100, 0, noise, (11, 0, 1, 0, 0, 0))
    assert est.value == 1.0 + 0.0j
    assert est.re_sampled and not est.im_sampled


def test_binomial_rejects_out_of_range_mean():
    noise = NoiseSpec(mode="binomial", rng_seed=0)
    with pytest.raises(ValueError):
        hadamard_estimate(complex(1.01, 0.0), 10, 10, noise, (0, 0, 1, 0, 0, 0))
    # within clipping tolerance: fine
    hadamard_estimate(complex(1.0 + 1e-10, 0.0), 10, 0, noise, (0, 0, 1, 0, 0, 0))


def test_zero_shot_parts_flagged():
    noise = NoiseSpec(mode="gaussian", rng_seed=5)
    est = hadamard_estimate(0.3 + 0.4j, 0, 50, noise, (5, 0, 1, 2, 0, 0))
    assert est.value.real == 0.0
    assert not est.re_sampled and est.im_sampled


def test_gaussian_part_variance():
    noise = NoiseSpec(mode="gaussian", rng_seed=77)
    vals = [
        hadamard_estimate(0.0j, 100, 0, noise, (77, t, 1, 0, 0, 0)).value.real
        for t in range(4000)
    ]
    assert np.var(vals) == pytest.approx(0.01, rel=0.05)
    assert abs(np.mean(vals)) < 4 * 0.1 / math.sqrt(4000)


def test_binomial_part_variance():
    noise = NoiseSpec(mode="binomial", rng_seed=78)
    vals = [
        hadamard_estimate(0.0j, 100, 0, noise, (78, t, 1, 0, 0, 0)).value.real
        for t in range(4000)
    ]
    assert np.var(vals) == pytest.approx(0.01, rel=0.05)


# ---------------------------------------------------------------------------
# Ensemble sampling against synthetic targets
# ---------------------------------------------------------------------------


def hand_plan_toeplitz_h(n, m_diag, m_off):
    entries = [ShotEntry(0, 0, "real", 0, m_diag)]
    for k in range(1, n):
        entries.append(ShotEntry(k, 0, "real", 0, m_off))
        entries.append(ShotEntry(k, 0, "imag", 0, m_off))
    budget = m_diag + 2 * (n - 1) * m_off
    return ShotPlan("H_toeplitz", n, budget, tuple(entries))


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
    h_stack, zero_shot = sample_hamiltonian_ensemble(targets, plan, noise, trials)
    assert not zero_shot
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
    h_stack, _ = sample_hamiltonian_ensemble(targets, plan, noise, 10_000)
    var = np.var(h_stack[:, 1, 1].real)
    assert var == pytest.approx(beta**2 / 400, rel=0.06)
    assert var <= 2 * beta**2 / 400


def test_zero_shot_flag_from_hand_plan():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    entries = (
        ShotEntry(1, 0, "real", 0, 5),
        ShotEntry(1, 0, "imag", 0, 5),
    )
    plan_s = ShotPlan("S_toeplitz", 3, 10, entries)  # lag 2 never sampled
    plan_h = hand_plan_toeplitz_h(3, 4, 4)
    noise = NoiseSpec(mode="gaussian", rng_seed=0)
    pair = sample_pair(targets, plan_h, plan_s, noise)
    assert pair.zero_shot


def test_unsampled_overlap_element_is_zero():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_s = ShotPlan(
        "S_toeplitz",
        3,
        10,
        (ShotEntry(1, 0, "real", 0, 5), ShotEntry(1, 0, "imag", 0, 5)),
    )
    plan_h = hand_plan_toeplitz_h(3, 4, 4)
    noise = NoiseSpec(mode="gaussian", rng_seed=0)
    pair = sample_pair(targets, plan_h, plan_s, noise)
    assert pair.S[0, 2] == 0.0  # zero shots, no information


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
        pair = sample_pair(targets, plan_h, plan_s, NoiseSpec(mode=mode, rng_seed=3))
        for m in (pair.H, pair.S):
            assert np.array_equal(m, m.conj().T)
            # constant diagonals: exact Toeplitz structure
            for k in range(1, 5):
                assert len(set(np.diag(m, k).tolist())) == 1
        assert np.all(np.diag(pair.S) == 1.0)
        assert not pair.zero_shot


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
    pair = sample_pair(targets, plan_h, plan_s, NoiseSpec(mode="gaussian", rng_seed=4))
    assert pair.construction == "nontoeplitz"
    assert np.array_equal(pair.H, pair.H.conj().T)


def test_ensemble_chunks_reproduce_full_run():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_h = allocate_toeplitz(600, 3, is_h=True)
    plan_s = allocate_toeplitz(600, 3, is_h=False)
    noise = NoiseSpec(mode="gaussian", rng_seed=12)
    h_all, s_all, _ = sample_ensemble(targets, plan_h, plan_s, noise, trials=8)
    h_tail, s_tail, _ = sample_ensemble(
        targets, plan_h, plan_s, noise, trials=3, first_trial=5
    )
    assert np.array_equal(h_all[5:], h_tail)
    assert np.array_equal(s_all[5:], s_tail)


# ---------------------------------------------------------------------------
# Draw order in both modes, chunk invariance and the binomial range guard
# ---------------------------------------------------------------------------


def _scalar_reference(mode, seed, trial, target, positions, means, counts):
    """One scalar draw at a time over the (position, config, fragment) grid.

    Binomial draws come in C order of the grid from the trial's stream;
    gaussian draws are keyed per coordinate (seed, trial, target, a, b,
    fragment, config).  Zero-count coordinates draw nothing and stay 0.
    """
    code = TARGETS.index(target)
    gen = rngstream.generator(rngstream.stream_key(seed, trial, code))
    est = np.zeros(means.shape)
    for p, c, j in np.ndindex(means.shape):
        m = int(counts[p, c, j])
        if m == 0:
            continue
        mean = float(means[p, c, j])
        if mode == "binomial":
            prob = 0.5 * (1.0 + min(1.0, max(-1.0, mean)))
            est[p, c, j] = 2.0 * gen.binomial(m, prob) / m - 1.0
        else:
            key = rngstream.stream_key(seed, trial, code, *positions[p], j, c)
            z = float(rngstream.normals(np.uint64(key)))
            est[p, c, j] = mean + math.sqrt(max(1.0 - mean * mean, 0.0) / m) * z
    return est


def _grid_counts(plan, positions, n_frag):
    """Counts on the (position, config, fragment) grid; positions are (a, b)."""
    row = {pos: i for i, pos in enumerate(positions)}
    counts = np.zeros((len(positions), 2, n_frag), dtype=np.int64)
    for e in plan.entries:
        counts[row[(e.a, e.b)], ("real", "imag").index(e.config), e.fragment] += e.shots
    return counts


def _hand_plan(target, n, configs, n_frag, zero):
    """Mixed shot counts over (a, b, config) x fragment, one zero at `zero`."""
    entries = []
    for i, (a, b, cfg) in enumerate(configs):
        for j in range(n_frag):
            shots = 0 if (a, b, cfg, j) == zero else 7 + 11 * i + 5 * j
            entries.append(ShotEntry(a, b, cfg, j, shots))
    budget = sum(e.shots for e in entries)
    return ShotPlan(target, n, budget, tuple(entries))


def _random_overlaps(rng, shape):
    return rng.uniform(-0.9, 0.9, size=shape) + 1j * rng.uniform(-0.9, 0.9, size=shape)


def test_binomial_toeplitz_h_matches_scalar_draw_order():
    """Both noise modes; the test keeps its first name."""
    rng = np.random.default_rng(17)
    n, betas = 5, np.array([0.5, 0.3, 0.2])
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.2, 0.1, 0.05, 0.02],
        frag=_random_overlaps(rng, (3, n)), id_coeff=0.25,
    )
    configs = [(0, 0, "real")] + [
        (k, 0, cfg) for k in range(1, n) for cfg in ("real", "imag")
    ]
    plan = _hand_plan("H_toeplitz", n, configs, 3, zero=(2, 0, "imag", 1))
    positions = [(k, 0) for k in range(n)]
    counts = _grid_counts(plan, positions, 3)
    assert counts[2, 1, 1] == 0 and counts[3, 1, 2] > 0  # zero mid-grid
    f = targets.frag
    means = np.stack([f.real.T, f.imag.T], axis=1)  # (n, 2, J)
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=29)
        stack, zero_shot = sample_hamiltonian_ensemble(
            targets, plan, noise, 3, first_trial=4
        )
        assert zero_shot
        for t in range(3):
            est = _scalar_reference(
                mode, 29, 4 + t, "H_toeplitz", positions, means, counts
            )
            h_seq = (est[:, 0, :] + 1j * est[:, 1, :]) @ betas + 0.25 * targets.s_seq
            expected = np.array(
                [[h_seq[l - k] if l >= k else h_seq[k - l].conj() for l in range(n)]
                 for k in range(n)]
            )
            np.testing.assert_allclose(stack[t], expected, rtol=0, atol=1e-12)


def test_binomial_elementwise_h_matches_scalar_draw_order():
    """Both noise modes; the test keeps its first name."""
    rng = np.random.default_rng(18)
    n, betas = 3, np.array([0.6, 0.4])
    frag = _random_overlaps(rng, (2, n, n))
    targets = synthetic_targets(
        n=n, betas=betas, s_seq=[1.0, 0.1, 0.05], frag=frag,
        construction="nontoeplitz", id_coeff=0.1,
    )
    positions = [(a, b) for a in range(n) for b in range(a, n)]
    configs = [
        (a, b, cfg) for a, b in positions for cfg in ("real", "imag") if cfg == "real" or a < b
    ]
    plan = _hand_plan("H_nontoeplitz", n, configs, 2, zero=(0, 2, "real", 0))
    counts = _grid_counts(plan, positions, 2)
    tri = np.array([[frag[j, a, b] for j in range(2)] for a, b in positions])  # (P, J)
    means = np.stack([tri.real, tri.imag], axis=1)  # (P, 2, J)
    s_mat = expected_pair(targets)[1]
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=31)
        stack, zero_shot = sample_hamiltonian_ensemble(
            targets, plan, noise, 2, first_trial=9
        )
        assert zero_shot
        for t in range(2):
            est = _scalar_reference(
                mode, 31, 9 + t, "H_nontoeplitz", positions, means, counts
            )
            vals = (est[:, 0, :] + 1j * est[:, 1, :]) @ betas
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
    configs = [(k, 0, cfg) for k in range(1, n) for cfg in ("real", "imag")]
    plan = _hand_plan("S_toeplitz", n, configs, 1, zero=(2, 0, "imag", 0))
    positions = [(k, 0) for k in range(n)]
    counts = _grid_counts(plan, positions, 1)
    means = np.stack([s_seq.real, s_seq.imag], axis=1)[:, :, None]  # (n, 2, 1)
    for mode in MODES:
        noise = NoiseSpec(mode=mode, rng_seed=37)
        stack, zero_shot = sample_overlap_ensemble(
            targets, plan, noise, 2, first_trial=3
        )
        assert zero_shot
        for t in range(2):
            est = _scalar_reference(
                mode, 37, 3 + t, "S_toeplitz", positions, means, counts
            )
            seq = est[:, 0, 0] + 1j * est[:, 1, 0]
            seq[0] = 1.0
            expected = np.array(
                [[seq[l - k] if l >= k else seq[k - l].conj() for l in range(n)]
                 for k in range(n)]
            )
            np.testing.assert_allclose(stack[t], expected, rtol=0, atol=1e-12)


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
        h_all, s_all, _ = sample_ensemble(targets, plan_h, plan_s, noise, trials, first)
        h_a, s_a, _ = sample_ensemble(targets, plan_h, plan_s, noise, split, first)
        h_b, s_b, _ = sample_ensemble(
            targets, plan_h, plan_s, noise, trials - split, first + split
        )
        assert np.array_equal(h_all, np.concatenate([h_a, h_b]))
        assert np.array_equal(s_all, np.concatenate([s_a, s_b]))


def _guard_targets(frag):
    return synthetic_targets(n=3, betas=[0.5, 0.5], s_seq=[1.0, 0.1, 0.2], frag=frag)


def _guard_plan():
    configs = [(0, 0, "real")] + [(k, 0, cfg) for k in (1, 2) for cfg in ("real", "imag")]
    return _hand_plan("H_toeplitz", 3, configs, 2, zero=(2, 0, "real", 1))


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
    frag[1, 2] = 1.01 + 0.1j  # (element 2, real, fragment 1) has zero shots
    frag[0, 0] = 0.2 + 1.01j  # diagonal imag is never sampled
    stack, zero_shot = sample_hamiltonian_ensemble(
        _guard_targets(frag), _guard_plan(), noise, 2
    )
    assert zero_shot and np.all(np.isfinite(stack))


def test_seed_changes_samples():
    targets = synthetic_targets(
        n=3, betas=[1.0], s_seq=[1.0, 0.1, 0.2], frag=[[0.3, 0.1, 0.05]]
    )
    plan_h = allocate_toeplitz(600, 3, is_h=True)
    plan_s = allocate_toeplitz(600, 3, is_h=False)
    a = sample_pair(targets, plan_h, plan_s, NoiseSpec(mode="gaussian", rng_seed=1))
    b = sample_pair(targets, plan_h, plan_s, NoiseSpec(mode="gaussian", rng_seed=2))
    assert not np.array_equal(a.H, b.H)


def test_gaussian_binomial_same_mean_and_spread():
    targets = synthetic_targets(
        n=3, betas=[0.6], s_seq=[1.0, 0.0, 0.0], frag=[[0.1, 0.0, 0.0]]
    )
    plan = hand_plan_toeplitz_h(3, m_diag=500, m_off=500)
    trials = 3000
    second = {}
    for mode in ("gaussian", "binomial"):
        stack, _ = sample_hamiltonian_ensemble(
            targets, plan, NoiseSpec(mode=mode, rng_seed=55), trials
        )
        d = stack[:, 0, 1]  # zero-mean element
        second[mode] = np.mean(np.abs(d) ** 2)
        assert abs(np.mean(d)) < 4 * math.sqrt(second[mode] / trials)
    g, b = second["gaussian"], second["binomial"]
    assert abs(g - b) < 0.1 * max(g, b)


# ---------------------------------------------------------------------------
# Hardware decay
# ---------------------------------------------------------------------------


def test_decay_exponent_example():
    lam = decay_exponent(0.999, 8, 100)
    assert lam == pytest.approx(0.80040, abs=5e-6)
    assert math.exp(-lam) == pytest.approx(0.449149, abs=1e-6)


def test_decay_exponent_validation():
    with pytest.raises(ValueError):
        decay_exponent(0.0, 8, 100)
    with pytest.raises(ValueError):
        decay_exponent(1.2, 8, 100)
    assert decay_exponent(1.0, 8, 100) == 0.0


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
    h_stack, s_stack, _ = sample_ensemble(targets, plan_h, plan_s, noise, trials=400)
    h_exp, s_exp = expected_pair(targets, hardware_lambda=0.7)
    assert np.abs(h_stack.mean(axis=0) - h_exp).max() < 5e-3
    assert np.abs(s_stack.mean(axis=0) - s_exp).max() < 5e-3
