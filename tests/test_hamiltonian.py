"""Pauli strings, the closed-form Hubbard chain, and unitary partitioning checks.

`build_hubbard_1d` writes the Jordan-Wigner image of the chain down term by
term; `oracles.hubbard_dense_oracle` builds the same chain from Kronecker
products of annihilators, independent of every PauliString code path, so
agreement here validates the closed form end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qksd.evolution import sector_indices
from qksd.hamiltonian import (
    PauliString,
    PauliSum,
    apply_pauli_sum,
    build_hubbard_1d,
    fragment_dense,
    pauli_sum_block,
    pauli_to_dense,
    sorted_insertion_partition,
)

from oracles import hubbard_dense_oracle

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI = {"I": I2.astype(complex), "X": X, "Y": Y, "Z": Z}


def dense_oracle(axes: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for a in axes:
        out = np.kron(out, PAULI[a])
    return out


def test_commutes_with_matches_dense():
    rng = np.random.default_rng(1)
    axes = "IXYZ"
    for _ in range(60):
        a = "".join(rng.choice(list(axes)) for _ in range(4))
        b = "".join(rng.choice(list(axes)) for _ in range(4))
        pa, pb = PauliString(a), PauliString(b)
        da, db = dense_oracle(a), dense_oracle(b)
        comm = np.abs(da @ db - db @ da).max()
        assert pa.commutes_with(pb) == (comm < 1e-12)
        assert pa.anticommutes_with(pb) == (np.abs(da @ db + db @ da).max() < 1e-12)


@pytest.mark.parametrize(
    "L,t,u",
    [
        (2, 0.2, 0.1),
        (3, 0.1, 0.8),
        (2, 1.0, 4.0),
        (1, 0.3, 0.7),  # one site: no hops, only the on-site terms
        (4, -0.4, 0.9),  # negative hopping
        (3, 0.0, 1.3),  # no hopping
        (3, 0.5, 0.0),  # no interaction
    ],
)
def test_hubbard_matches_dense_oracle(L, t, u):
    spec = build_hubbard_1d(L, t, u)
    np.testing.assert_allclose(
        pauli_to_dense(spec), hubbard_dense_oracle(L, t, u), atol=1e-12
    )


def test_hubbard_identity_coefficient():
    # JW of u * n_up n_dn leaves u L / 4 on the identity
    spec = build_hubbard_1d(3, 0.2, 0.4)
    assert abs(spec.identity_coefficient - 0.4 * 3 / 4) < 1e-14


def test_hubbard_is_hermitian_real_coefficients():
    spec = build_hubbard_1d(3, 0.3, 0.7)
    h = pauli_to_dense(spec)
    assert np.abs(h - h.conj().T).max() < 1e-13


def test_partition_groups_pairwise_anticommute():
    spec = build_hubbard_1d(3, 0.2, 0.1)
    part = sorted_insertion_partition(spec)
    for group in part.groups:
        strings = [s for _c, s in group.members]
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                assert strings[i].anticommutes_with(strings[j])


def test_partition_reconstruction_and_unitarity():
    """sum_j beta_j U_j recovers H minus its identity part; each U_j^2 = I."""
    spec = build_hubbard_1d(2, 0.2, 0.1)
    part = sorted_insertion_partition(spec)
    dim = 2 ** spec.n_qubits
    acc = np.zeros((dim, dim), dtype=complex)
    for j, group in enumerate(part.groups):
        u = fragment_dense(part, j)
        assert np.abs(u - u.conj().T).max() < 1e-12  # Hermitian
        assert np.abs(u @ u - np.eye(dim)).max() < 1e-10  # unitary involution
        acc += group.beta * u
    want = pauli_to_dense(spec) - spec.identity_coefficient * np.eye(dim)
    assert np.abs(acc - want).max() < 1e-10


def test_partition_beta_norm_below_coefficient_norm():
    spec = build_hubbard_1d(3, 0.4, 0.9)
    part = sorted_insertion_partition(spec)
    # grouping can only tighten the 1-norm: sum_j sqrt(sum alpha^2) <= sum |alpha|
    assert part.beta_norm <= sum(abs(c) for c, _s in spec.non_identity_terms) + 1e-12
    recovered = {}
    for group in part.groups:
        coeffs = np.array([c for c, _s in group.members])
        assert abs(np.sum(coeffs**2) - 1.0) < 1e-12  # members stored unit-norm
        for c, s in group.members:
            recovered[s.axes] = group.beta * c
    for alpha, s in spec.non_identity_terms:
        assert abs(recovered[s.axes] - alpha) < 1e-12


def test_partition_deterministic():
    spec = build_hubbard_1d(3, 0.2, 0.1)
    p1 = sorted_insertion_partition(spec)
    p2 = sorted_insertion_partition(spec)
    assert [g.beta for g in p1.groups] == [g.beta for g in p2.groups]
    assert [tuple(s.axes for _c, s in g.members) for g in p1.groups] == [
        tuple(s.axes for _c, s in g.members) for g in p2.groups
    ]


def test_pauli_sum_merges_duplicates():
    terms = [(0.5, PauliString("XX")), (0.25, PauliString("XX")), (1.0, PauliString("II"))]
    ps = PauliSum.from_terms(terms, n_qubits=2)
    assert len(ps.non_identity_terms) == 1
    coeff, s = ps.non_identity_terms[0]
    assert s.axes == "XX" and abs(coeff - 0.75) < 1e-15
    assert abs(ps.identity_coefficient - 1.0) < 1e-15


@given(
    sites=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sector_action_matches_dense_block(sites, seed, data):
    """A Pauli string applied in any particle sector (or the whole Fock space)
    equals the sector block of its dense matrix."""
    nq = 2 * sites
    string = PauliString(data.draw(st.text("IXYZ", min_size=nq, max_size=nq)))
    dense = pauli_to_dense(string)
    rng = np.random.default_rng(seed)
    bases = [
        sector_indices(sites, n_up, n_down)
        for n_up in range(sites + 1)
        for n_down in range(sites + 1)
    ] + [np.arange(2**nq)]
    for idx in bases:
        want = dense[np.ix_(idx, idx)]
        states = rng.normal(size=(len(idx), 3)) + 1j * rng.normal(size=(len(idx), 3))
        got = apply_pauli_sum([(0.7, string)], idx, states)
        np.testing.assert_allclose(got, 0.7 * want @ states, rtol=0, atol=1e-12)
        vec = apply_pauli_sum([(1.0, string)], idx, states[:, 0])
        np.testing.assert_allclose(vec, want @ states[:, 0], rtol=0, atol=1e-12)
        block = pauli_sum_block(PauliSum.from_terms([(0.7, string)], nq), idx)
        np.testing.assert_allclose(block, 0.7 * want, rtol=0, atol=1e-15)


def test_hamiltonian_sector_block_matches_dense():
    spec = build_hubbard_1d(3, 0.3, 0.7)
    dense = pauli_to_dense(spec)
    for n_up, n_down in ((2, 1), (1, 1), (3, 0)):
        idx = sector_indices(3, n_up, n_down)
        np.testing.assert_allclose(
            pauli_sum_block(spec, idx), dense[np.ix_(idx, idx)], rtol=0, atol=1e-14
        )
