"""Pauli strings and sums, the 1D Fermi-Hubbard Hamiltonian, and unitary partitioning.

The Hamiltonian is a real-coefficient sum of Pauli strings, written in the
closed form of its Jordan-Wigner image with interleaved spin ordering (site i
spin-up on qubit 2i, spin-down on qubit 2i+1): an XZX and a YZY string per
same-spin hop, and I, Z_{2i}, Z_{2i+1} and Z_{2i}Z_{2i+1} per site.  Sorted
insertion then partitions the non-identity terms into groups of pairwise
anticommuting strings; each group, rescaled to unit 2-norm, is a Hermitian
unitary fragment U_j, giving H = id_coeff*I + sum_j beta_j U_j with beta_j the
group 2-norm.  The 1-norm of the beta weights is the
variance prefactor used throughout the sampling model.

Operators act on states of a particle-number sector through apply_pauli_sum:
a Pauli string maps a Fock basis state to one other basis state with a
phase, so a sum of strings needs no matrix.  The Kronecker-built dense
matrices (pauli_to_dense, fragment_dense) serve as test references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ResourceLimitError

MERGE_TOL = 1e-15

_DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, stored as an axes string like 'XIZY'."""

    axes: str

    def __post_init__(self):
        if not set(self.axes) <= {"I", "X", "Y", "Z"}:
            raise ValueError(f"invalid Pauli axes {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @property
    def is_identity(self) -> bool:
        return set(self.axes) <= {"I"}

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the strings commute.

        Two Pauli strings commute exactly when the number of qubit positions
        where both act non-trivially with different axes is even.
        """
        if len(self.axes) != len(other.axes):
            raise ValueError("qubit count mismatch")
        clashes = sum(
            1
            for a, b in zip(self.axes, other.axes)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0

    def anticommutes_with(self, other: "PauliString") -> bool:
        return not self.commutes_with(other)


@dataclass(frozen=True)
class PauliSum:
    """Hermitian operator: real-weighted sum of Pauli strings, terms merged.

    Terms are kept in a canonical deterministic order (sorted by axes string);
    construction through from_terms merges duplicates and drops coefficients
    below MERGE_TOL.
    """

    terms: tuple[tuple[float, PauliString], ...]
    n_qubits: int

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[float, PauliString]], n_qubits: int
    ) -> "PauliSum":
        acc: dict[str, float] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError("term qubit count mismatch")
            acc[string.axes] = acc.get(string.axes, 0.0) + float(coeff)
        merged = tuple(
            (c, PauliString(axes))
            for axes, c in sorted(acc.items())
            if abs(c) >= MERGE_TOL
        )
        return cls(terms=merged, n_qubits=n_qubits)

    @property
    def identity_coefficient(self) -> float:
        for c, s in self.terms:
            if s.is_identity:
                return c
        return 0.0

    @property
    def non_identity_terms(self) -> tuple[tuple[float, PauliString], ...]:
        return tuple((c, s) for c, s in self.terms if not s.is_identity)


@dataclass(frozen=True)
class UnitaryGroup:
    """One fragment: pairwise-anticommuting strings with unit-2-norm coefficients."""

    beta: float
    members: tuple[tuple[float, PauliString], ...]


@dataclass(frozen=True)
class UnitaryPartition:
    """Anticommuting-group decomposition H - id_coeff*I = sum_j beta_j * U_j."""

    groups: tuple[UnitaryGroup, ...]
    n_qubits: int

    @property
    def beta_norm(self) -> float:
        return sum(g.beta for g in self.groups)

    @property
    def betas(self) -> np.ndarray:
        return np.array([g.beta for g in self.groups], dtype=float)


def sorted_insertion_partition(h: PauliSum) -> UnitaryPartition:
    """Group the non-identity terms of h into anticommuting unitary fragments.

    Terms are visited in descending |coefficient| order (stable on ties) and
    placed into the first group whose members all anticommute with the
    candidate; otherwise a new group opens.  Greedy by construction: heavier
    terms claim groups first, which keeps the weight norm sum_j beta_j low.
    """
    candidates = h.non_identity_terms
    if not candidates:
        raise ValueError("PauliSum has no non-identity terms to partition")
    order = sorted(
        range(len(candidates)), key=lambda i: (-abs(candidates[i][0]), i)
    )
    groups: list[list[tuple[float, PauliString]]] = []
    for idx in order:
        coeff, string = candidates[idx]
        for group in groups:
            if all(string.anticommutes_with(s) for _, s in group):
                group.append((coeff, string))
                break
        else:
            groups.append([(coeff, string)])
    built = []
    for group in groups:
        beta = float(np.sqrt(sum(c * c for c, _ in group)))
        built.append(
            UnitaryGroup(
                beta=beta, members=tuple((c / beta, s) for c, s in group)
            )
        )
    return UnitaryPartition(groups=tuple(built), n_qubits=h.n_qubits)


DENSE_QUBIT_CAP = 14


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each non-negative int64."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def _string_action(axes: str, basis: np.ndarray):
    """Where one Pauli string sends each state of a sorted Fock basis.

    P|b> = i^{n_Y} (-1)^{|b & zy|} |b ^ xy>, with xy the bits of the X and Y
    factors and zy those of the Z and Y factors (Y = iXZ).  Returns (src, dst,
    phase): basis position src maps to position dst with that phase.  Images
    outside `basis` are dropped, which leaves the projected block.
    """
    nq = len(axes)
    xy = sum(1 << (nq - 1 - q) for q, a in enumerate(axes) if a in "XY")
    zy = sum(1 << (nq - 1 - q) for q, a in enumerate(axes) if a in "ZY")
    images = basis ^ xy
    dst = np.minimum(np.searchsorted(basis, images), len(basis) - 1)
    src = np.flatnonzero(basis[dst] == images)
    sign = 1 - 2 * _parity(basis[src] & zy)
    return src, dst[src], (1j ** axes.count("Y")) * sign


def apply_pauli_sum(
    terms: Iterable[tuple[float, PauliString]], basis: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Project-apply-project a weighted Pauli-string sum: P (sum_s c_s s) P states.

    `basis` holds sorted Fock indices in the Kronecker order of pauli_to_dense
    (qubit q on bit n_qubits-1-q) and P projects onto their span; `states`
    has one row per basis state (a vector or a block of columns).  Each string
    acts as an XOR mask with a sign, so no operator matrix is formed.  This is
    the idiom of OpenFermion's number-restricted Jordan-Wigner operators.
    """
    out = np.zeros(states.shape, dtype=complex)
    pad = (1,) * (states.ndim - 1)
    for coeff, string in terms:
        src, dst, phase = _string_action(string.axes, basis)
        out[dst] += (coeff * phase).reshape(phase.shape + pad) * states[src]
    return out


def pauli_sum_block(h: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Dense block of h on the span of the sorted Fock indices `basis`.

    The matrix of apply_pauli_sum(h.terms, basis, .), filled entry by entry.
    """
    block = np.zeros((len(basis), len(basis)), dtype=complex)
    for coeff, string in h.terms:
        src, dst, phase = _string_action(string.axes, basis)
        block[dst, src] += coeff * phase
    return block


def pauli_to_dense(
    p: Union[PauliString, PauliSum],
    n_qubits: int | None = None,
    cap: int = DENSE_QUBIT_CAP,
) -> np.ndarray:
    """Dense matrix of a PauliString or PauliSum by Kronecker products.

    Qubit 0 is the leftmost tensor factor (most significant bit of the basis
    index).  Refuses to build matrices beyond `cap` qubits.  The drivers never
    build full-space operators; this is the reference the sector-restricted
    apply_pauli_sum is checked against.
    """
    nq = p.n_qubits if n_qubits is None else n_qubits
    if nq != p.n_qubits:
        raise ValueError("n_qubits disagrees with operand")
    if nq > cap:
        raise ResourceLimitError(f"{nq} qubits exceeds dense cap {cap}")
    if isinstance(p, PauliString):
        out = np.array([[1.0 + 0j]])
        for axis in p.axes:
            out = np.kron(out, _DENSE_1Q[axis])
        return out
    dim = 2**nq
    acc = np.zeros((dim, dim), dtype=complex)
    for coeff, string in p.terms:
        acc += coeff * pauli_to_dense(string, cap=cap)
    return acc


def fragment_dense(
    partition: UnitaryPartition, j: int, cap: int = DENSE_QUBIT_CAP
) -> np.ndarray:
    """Dense matrix of unitary fragment U_j (unit-norm member combination).

    A reference for tests; measurement targets apply fragments matrix-free.
    """
    group = partition.groups[j]
    dim = 2**partition.n_qubits
    acc = np.zeros((dim, dim), dtype=complex)
    for coeff, string in group.members:
        acc += coeff * pauli_to_dense(string, cap=cap)
    return acc


# ---------------------------------------------------------------------------
# The Hubbard chain
# ---------------------------------------------------------------------------


def _placed(block: str, at: int, n_qubits: int) -> PauliString:
    """`block` on qubits at, at+1, ..., identity elsewhere."""
    return PauliString("I" * at + block + "I" * (n_qubits - at - len(block)))


def build_hubbard_1d(L: int, t: float, u: float) -> PauliSum:
    """Open-boundary 1D spinful Fermi-Hubbard model on 2L qubits.

    H = -t sum_{i,sigma} (a+_{i,sigma} a_{i+1,sigma} + a+_{i+1,sigma} a_{i,sigma})
        + u sum_i n_{i,up} n_{i,down}

    mapped by Jordan-Wigner with interleaved ordering: site i spin-up is mode
    2i, spin-down is mode 2i+1.  Same-spin neighbours are modes p and p+2, so
    each hop is -t/2 (X_p Z_{p+1} X_{p+2} + Y_p Z_{p+1} Y_{p+2}), and each
    site's n_up n_down = (I - Z_{2i} - Z_{2i+1} + Z_{2i} Z_{2i+1}) / 4.  The
    identity offset u*L/4 is retained as an explicit identity term, summed
    site by site.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    n_qubits = 2 * L
    terms = [
        (-t / 2, _placed(block, p, n_qubits))
        for p in range(n_qubits - 2)
        for block in ("XZX", "YZY")
    ]
    for i in range(L):
        for sign, block in ((1, "II"), (-1, "ZI"), (-1, "IZ"), (1, "ZZ")):
            terms.append((sign * u / 4, _placed(block, 2 * i, n_qubits)))
    return PauliSum.from_terms(terms, n_qubits=n_qubits)
