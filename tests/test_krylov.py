"""Projected pair construction: sequences, Toeplitz filling, targets."""

import numpy as np
import pytest

from qksd.evolution import (
    diagonalize,
    hartree_fock_state,
    sector_ground_energy,
    sector_indices,
)
from qksd.hamiltonian import (
    build_hubbard_1d,
    fragment_dense,
    pauli_to_dense,
    sorted_insertion_partition,
)
from qksd.harness import ExperimentConfig, build_system, targets_for
from qksd.krylov import (
    KrylovConfig,
    default_time_step,
    exact_sequences,
    measurement_targets,
    toeplitz_matrix,
)
from qksd.sampling import expected_pair

from oracles import exact_propagator


@pytest.fixture(scope="module")
def system():
    spec = build_hubbard_1d(2, 0.2, 0.1)
    part = sorted_insertion_partition(spec)
    h = pauli_to_dense(spec)
    sp = diagonalize(h)
    ref = hartree_fock_state(2, 0.2, 1, 1)
    return spec, part, h, sp, ref


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(n=4, dt=0.1)  # even order has no symmetric grid
    with pytest.raises(ValueError):
        KrylovConfig(n=5, dt=0.0)
    cfg = KrylovConfig(n=5, dt=0.3)
    np.testing.assert_array_equal(cfg.grid, [-2, -1, 0, 1, 2])


def test_default_time_step(system):
    _spec, part, *_ = system
    assert abs(default_time_step(part) - np.pi / part.beta_norm) < 1e-14


def test_toeplitz_matrix_structure():
    seq = np.array([1.0 + 0j, 2.0 + 1.0j, 3.0 - 2.0j])
    m = toeplitz_matrix(seq)
    np.testing.assert_allclose(m[0], seq)  # first row is the sequence
    assert np.abs(m - m.conj().T).max() == 0.0
    for k in range(3):
        for l in range(3):
            want = seq[l - k] if l >= k else np.conj(seq[k - l])
            assert m[k, l] == want
    # a stack of sequences along the last axis gives a stack of matrices
    other = np.array([0.5 + 0j, -1.0j, 0.25 + 0.75j])
    stack = toeplitz_matrix(np.stack([seq, other]))
    assert stack.shape == (2, 3, 3)
    np.testing.assert_array_equal(stack[0], m)
    np.testing.assert_array_equal(stack[1], toeplitz_matrix(other))


def test_exact_sequences_match_direct_overlaps(system):
    _spec, part, h, sp, ref = system
    cfg = KrylovConfig(n=7, dt=default_time_step(part))
    seqs = exact_sequences(sp, ref, cfg)
    for k in range(cfg.n):
        u = exact_propagator(sp, k * cfg.dt).matrix
        s_direct = ref.conj() @ u @ ref
        h_direct = ref.conj() @ h @ u @ ref
        assert abs(seqs.s[k] - s_direct) < 1e-12
        assert abs(seqs.h[k] - h_direct) < 1e-12
    assert seqs.s[0] == 1.0
    assert seqs.h[0].imag == 0.0


def test_pair_builders_agree_for_exact_evolution():
    """With the exact propagator the elementwise H equals the Toeplitz H."""
    for sites in (2, 3, 4):
        system = build_system(ExperimentConfig(sites=sites))
        tp_h, tp_s = expected_pair(targets_for(system, 7, "toeplitz"))
        ntp_h, ntp_s = expected_pair(targets_for(system, 7, "nontoeplitz"))
        assert np.abs(tp_h - ntp_h).max() < 1e-10
        assert np.abs(tp_s - ntp_s).max() < 1e-10
        assert np.abs(tp_s - tp_s.conj().T).max() == 0.0


def test_pair_overlap_matrix_is_psd(system):
    spec, part, _h, sp, ref = system
    cfg = KrylovConfig(n=9, dt=default_time_step(part))
    targets = measurement_targets(sp, part, spec.identity_coefficient, ref, cfg, "toeplitz")
    _, s = expected_pair(targets)
    vals = np.linalg.eigvalsh(s)
    assert vals.min() > -1e-12
    assert vals.max() <= cfg.n + 1e-9  # Gram matrix of unit vectors


def test_measurement_targets_argument_validation(system):
    spec, part, _h, sp, ref = system
    cfg = KrylovConfig(n=3, dt=0.2)
    with pytest.raises(ValueError):
        measurement_targets(sp, part, spec.identity_coefficient, ref, cfg, "circulant")


@pytest.mark.parametrize("construction", ["toeplitz", "nontoeplitz"])
def test_measurement_targets_reconstruct_pair(system, construction):
    """Fragment overlaps weighted by betas plus the identity shift give the pair."""
    spec, part, h, sp, ref = system
    cfg = KrylovConfig(n=5, dt=default_time_step(part))
    tg = measurement_targets(sp, part, spec.identity_coefficient, ref, cfg, construction)
    if construction == "toeplitz":
        h_seq = tg.frag.T @ tg.betas + spec.identity_coefficient * tg.s_seq
        want = exact_sequences(sp, ref, cfg)
        np.testing.assert_allclose(h_seq, want.h, atol=1e-12)
        np.testing.assert_allclose(tg.s_seq, want.s, atol=1e-12)
    else:
        h_mat = np.tensordot(tg.betas, tg.frag, axes=1)
        h_mat = h_mat + spec.identity_coefficient * toeplitz_matrix(tg.s_seq)
        # elementwise oracle: H_kl = <phi_k|H|phi_l> over the symmetric grid
        psi = np.column_stack(
            [exact_propagator(sp, k * cfg.dt).matrix @ ref for k in cfg.grid]
        )
        want = psi.conj().T @ h @ psi
        np.testing.assert_allclose(h_mat, want, atol=1e-12)


def test_measurement_targets_lie_in_unit_square(system):
    # every fragment overlap must be a valid pair of Hadamard-test means
    spec, part, _h, sp, ref = system
    cfg = KrylovConfig(n=9, dt=default_time_step(part))
    for construction in ("toeplitz", "nontoeplitz"):
        tg = measurement_targets(
            sp, part, spec.identity_coefficient, ref, cfg, construction
        )
        assert np.abs(tg.frag.real).max() <= 1.0 + 1e-12
        assert np.abs(tg.frag.imag).max() <= 1.0 + 1e-12
        assert np.abs(tg.s_seq.real).max() <= 1.0 + 1e-12
        assert np.abs(tg.s_seq.imag).max() <= 1.0 + 1e-12


def dense_path_targets(L, t, u, n_up, n_down, cfg, construction):
    """(dense H, s_seq, frag) by full-space dense algebra and dense fragments."""
    ham = build_hubbard_1d(L, t, u)
    part = sorted_insertion_partition(ham)
    h = pauli_to_dense(ham)
    sp = diagonalize(h)
    idx = sector_indices(L, n_up, n_down)
    hop = pauli_to_dense(build_hubbard_1d(L, t, 0.0))[np.ix_(idx, idx)]
    ref = np.zeros(4**L, dtype=complex)
    ref[idx] = np.linalg.eigh(hop)[1][:, 0]
    amps = sp.eigenvectors.conj().T @ ref

    def columns(ks):
        phases = np.exp(-1j * np.outer(sp.eigenvalues * cfg.dt, ks))
        return sp.eigenvectors @ (phases * amps[:, None])

    s_seq = ref.conj() @ columns(np.arange(cfg.n))
    s_seq[0] = 1.0
    frags = [fragment_dense(part, j) for j in range(len(part.groups))]
    if construction == "toeplitz":
        psi = columns(np.arange(cfg.n))
        frag = np.array([(f @ ref).conj() @ psi for f in frags])
    else:
        psi = columns(cfg.grid)
        frag = np.array([psi.conj().T @ f @ psi for f in frags])
    return h, s_seq, frag


@pytest.mark.parametrize(
    "L, n_up, n_down",
    [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2), (4, 3, 1)],
)
@pytest.mark.parametrize("construction", ["toeplitz", "nontoeplitz"])
def test_sector_targets_match_dense_path(L, n_up, n_down, construction):
    """Sector-basis, matrix-free targets equal the full-space dense algebra."""
    t, u = 0.2, 0.7
    system = build_system(
        ExperimentConfig(sites=L, t_hop=t, u_int=u, n_up=n_up, n_down=n_down)
    )
    np.testing.assert_array_equal(system.basis, sector_indices(L, n_up, n_down))
    tg = targets_for(system, 5, construction)
    h, s_seq, frag = dense_path_targets(L, t, u, n_up, n_down, tg.config, construction)
    assert abs(system.e0_sector - sector_ground_energy(h, L, n_up, n_down)) < 1e-12
    np.testing.assert_allclose(tg.s_seq, s_seq, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tg.frag, frag, rtol=0, atol=1e-12)
