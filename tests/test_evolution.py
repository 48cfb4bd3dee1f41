"""Propagator oracles, particle-number sectors, and the reference state."""

import numpy as np
import pytest

from qksd import evolution
from qksd.errors import ResourceLimitError
from qksd.evolution import (
    diagonalize,
    hartree_fock_state,
    sector_ground_energy,
    sector_indices,
)
from qksd.hamiltonian import build_hubbard_1d, pauli_to_dense

from oracles import (
    exact_propagator,
    hartree_fock_full,
    numpy_sorted_sector_indices,
    trotter_propagator,
)


@pytest.fixture(scope="module")
def two_site():
    spec = build_hubbard_1d(2, 0.2, 0.1)
    h = pauli_to_dense(spec)
    return spec, h, diagonalize(h)


def test_diagonalize_reconstructs(two_site):
    _spec, h, sp = two_site
    recon = (sp.eigenvectors * sp.eigenvalues) @ sp.eigenvectors.conj().T
    assert np.abs(recon - h).max() < 1e-12
    assert np.all(np.diff(sp.eigenvalues) >= -1e-12)


def test_exact_propagator_unitary_and_group_law(two_site):
    _spec, _h, sp = two_site
    dim = len(sp.eigenvalues)
    u1 = exact_propagator(sp, 0.7).matrix
    u2 = exact_propagator(sp, 1.1).matrix
    u12 = exact_propagator(sp, 1.8).matrix
    assert np.abs(u1 @ u1.conj().T - np.eye(dim)).max() < 1e-12
    assert np.abs(u1 @ u2 - u12).max() < 1e-12
    assert np.abs(exact_propagator(sp, 0.0).matrix - np.eye(dim)).max() < 1e-13


def test_exact_propagator_generator(two_site):
    # d/dt at t=0 equals -iH
    _spec, h, sp = two_site
    eps = 1e-6
    du = (exact_propagator(sp, eps).matrix - exact_propagator(sp, -eps).matrix) / (2 * eps)
    assert np.abs(du - (-1j) * h).max() < 1e-6


def test_trotter_unitary_and_first_order(two_site):
    spec, _h, sp = two_site
    t = 0.9
    exact = exact_propagator(sp, t).matrix
    errs = []
    for steps in (4, 8, 16):
        prop = trotter_propagator(spec, t, steps)
        dim = prop.matrix.shape[0]
        assert np.abs(prop.matrix @ prop.matrix.conj().T - np.eye(dim)).max() < 1e-12
        errs.append(np.linalg.norm(prop.matrix - exact, 2))
    # first-order product: error shrinks roughly like 1/steps
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 2.5
    assert trotter_propagator(spec, t, 16).n_fragments == len(spec.non_identity_terms)


def test_trotter_rejects_zero_steps(two_site):
    spec, _h, _sp = two_site
    with pytest.raises(ValueError):
        trotter_propagator(spec, 1.0, 0)


def test_sector_indices_occupations():
    idx = sector_indices(2, 1, 1)
    # interleaved JW ordering: up modes are even, down modes odd, qubit 0 leftmost
    for b in idx:
        bits = [(b >> (4 - 1 - q)) & 1 for q in range(4)]
        assert bits[0] + bits[2] == 1  # one spin-up
        assert bits[1] + bits[3] == 1  # one spin-down
    assert len(idx) == 4


def test_sector_ground_energy_two_site_analytic():
    """Half-filled two-site Hubbard: E0 = u/2 - sqrt((u/2)^2 + 4t^2)."""
    for t, u in [(0.2, 0.1), (0.1, 0.2), (0.1, 0.8)]:
        h = pauli_to_dense(build_hubbard_1d(2, t, u))
        want = u / 2 - np.sqrt((u / 2) ** 2 + 4 * t**2)
        assert abs(sector_ground_energy(h, 2, 1, 1) - want) < 1e-12


def test_hartree_fock_state_properties():
    L, t = 3, 0.35
    idx = sector_indices(L, 2, 1)
    state = hartree_fock_state(L, t, idx)
    assert state.shape == (len(idx),)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    # ground state of the hopping-only Hamiltonian restricted to the sector
    h_free = pauli_to_dense(build_hubbard_1d(L, t, 0.0))
    rayleigh = (state.conj() @ h_free[np.ix_(idx, idx)] @ state).real
    assert abs(rayleigh - sector_ground_energy(h_free, L, 2, 1)) < 1e-10


def test_hartree_fock_overlap_with_interacting_ground():
    # reference must have nonzero weight on the true ground state for QKSD
    L, t, u = 2, 0.2, 0.1
    h = pauli_to_dense(build_hubbard_1d(L, t, u))
    idx = sector_indices(L, 1, 1)
    state = hartree_fock_state(L, t, idx)
    ground = np.linalg.eigh(h[np.ix_(idx, idx)])[1][:, 0]
    assert abs(ground.conj() @ state) ** 2 > 0.5


@pytest.mark.parametrize("L", [1, 2, 3])
def test_sector_indices_match_brute_force(L):
    nq = 2 * L
    for n_up in range(L + 1):
        for n_down in range(L + 1):
            want = [
                b
                for b in range(2**nq)
                if sum((b >> (nq - 1 - 2 * i)) & 1 for i in range(L)) == n_up
                and sum((b >> (nq - 2 - 2 * i)) & 1 for i in range(L)) == n_down
            ]
            np.testing.assert_array_equal(sector_indices(L, n_up, n_down), want)


def test_sector_indices_match_numpy_sort_oracle():
    """sorted() gives np.sort's int64 indices, byte for byte, for every
    filling of every chain up to L = 7 (its largest sector, 35 x 35, is
    under the sector cap)."""
    for L in range(1, 8):
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                got = sector_indices(L, n_up, n_down)
                want = numpy_sorted_sector_indices(L, n_up, n_down)
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sector_indices_cap_and_range(monkeypatch):
    with pytest.raises(ValueError):
        sector_indices(2, 3, 0)
    monkeypatch.setattr(evolution, "SECTOR_DIM_CAP", 3)
    assert len(sector_indices(2, 1, 0)) == 2
    with pytest.raises(ResourceLimitError):
        sector_indices(2, 1, 1)  # dimension 4


def test_hartree_fock_state_in_sector_basis():
    """The sector state is the full-space oracle's, restricted to the sector,
    and the oracle has no weight outside it."""
    L, t = 3, 0.35
    idx = sector_indices(L, 2, 1)
    full = hartree_fock_full(L, t, 2, 1)
    sector = hartree_fock_state(L, t, idx)
    assert sector.shape == (len(idx),)
    np.testing.assert_allclose(sector, full[idx], rtol=0, atol=1e-15)
    assert not np.delete(full, idx).any()


def test_diagonalize_real_block_matches_complex():
    h = pauli_to_dense(build_hubbard_1d(2, 0.2, 0.1))
    assert not h.imag.any()
    sp = diagonalize(h)
    assert not np.iscomplexobj(sp.eigenvectors)
    np.testing.assert_allclose(sp.eigenvalues, np.linalg.eigvalsh(h), atol=1e-14)
