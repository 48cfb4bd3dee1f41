"""Simulated Hadamard-test estimation of Krylov matrix elements.

A Hadamard test of a unitary V against the reference state returns +/-1
outcomes whose mean is Re or Im of <phi_0|V|phi_0>.  From m shots the
estimator R = 2 Bin(m, p)/m - 1 has mean 2p - 1 and variance (1 - mean^2)/m.
This module allocates a total shot budget over matrix elements, real/imag
configurations, and unitary fragments according to the minimax-optimal rules
for Toeplitz and elementwise (non-Toeplitz) constructions, then draws the
noisy pair (H~, S~).

A plan is its grid of shot counts over (element, configuration, fragment).
Elements are S's lags 1..n-1 (its diagonal is known and never sampled), the
Toeplitz H's lags 0..n-1, or the elementwise H's upper triangle a <= b.
Every coordinate is required except the imaginary part of a diagonal element
(a == b), which is zero and takes no shots.  A plan that leaves a required
coordinate at zero shots is refused with InfeasibleBudgetError, so every
sampled term is an unbiased estimate.  One sampler draws every plan's grid.

Two noise modes: "binomial" draws the actual binomial counts (ground truth);
"gaussian" replaces each estimate with a normal of matched mean and variance,
which is what the norm-bound theory models and is fully vectorizable.
Gaussian estimates are intentionally not clamped to [-1, 1].

Random streams: gaussian draws are keyed per coordinate (seed, trial, target,
element, fragment, configuration).  Binomial ensemble draws come from one
generator per (seed, trial, target), which draws the trial's sampled
coordinates in the C order of the (element, configuration, fragment) grid.
`hadamard_estimate` keys its binomial draw per coordinate, so it is not a
slice of an ensemble.

Hardware decay multiplies every true overlap by e^{-lambda} before sampling
noise is applied, so the sampled matrices estimate the decayed pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds, rngstream
from .errors import InfeasibleBudgetError
from .krylov import MeasurementTargets, toeplitz_matrix

MODES = ("binomial", "gaussian")  # noise models
TARGETS = ("S_toeplitz", "H_toeplitz", "H_nontoeplitz")
_TARGET_CODE = {t: i for i, t in enumerate(TARGETS)}
_UNIT = np.ones(1)  # the weight of a target with a single fragment


def _grid(target: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(elements, filled): a target's grid rows and the configurations they take.

    elements is the (P, 2) array of (a, b) elements in canonical order:
    Toeplitz targets key by sequence index (a, 0), the non-Toeplitz target by
    upper-triangle position (a, b), a <= b.  filled[p, c] marks configuration
    c (0 real, 1 imag) of element p as required: imag only off the diagonal.
    """
    if target == "H_nontoeplitz":
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
    else:
        first = 1 if target == "S_toeplitz" else 0  # S's diagonal is known
        pairs = [(k, 0) for k in range(first, n)]
    elements = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    filled = np.ones((len(elements), 2), dtype=bool)
    filled[elements[:, 0] == elements[:, 1], 1] = False
    return elements, filled


@dataclass(frozen=True, eq=False)  # counts is an array: compare it with np.array_equal
class ShotPlan:
    """Shots per (element, configuration, fragment) of one target.

    counts[p, c, j] holds the shots of grid element p (`elements` row),
    configuration c (0 real, 1 imag) and fragment j; it is stored read-only.
    """

    target: str
    n: int
    counts: np.ndarray

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        counts = np.array(self.counts, dtype=np.int64)
        elements, filled = _grid(self.target, self.n)
        if counts.ndim != 3 or counts.shape[:2] != filled.shape or not counts.shape[2]:
            raise ValueError(
                f"counts of shape {counts.shape} are off the {self.target} grid "
                f"at n = {self.n}, which is ({len(elements)}, 2, J)"
            )
        if np.any(counts < 0):
            raise ValueError("negative shot count")
        if np.any(counts[~filled]):
            raise ValueError("shots on the imaginary part of a diagonal element (zero)")
        starved = np.argwhere(filled[:, :, None] & (counts == 0))
        if len(starved):
            p, c, j = starved[0]
            a, b = elements[p]
            raise InfeasibleBudgetError(
                f"budget {counts.sum()} leaves {self.target} element ({a}, {b}) "
                f"{('real', 'imag')[c]} fragment {j} without shots"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def elements(self) -> np.ndarray:
        """(P, 2) array of the grid's (a, b) elements in canonical order."""
        return _grid(self.target, self.n)[0]

    @property
    def budget(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = "gaussian"
    hardware_lambda: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.hardware_lambda < 0:
            raise ValueError("hardware_lambda must be >= 0")


@dataclass(frozen=True)
class EstimateResult:
    """Complex estimate plus markers for configurations that actually sampled.

    A part with zero shots is returned as 0 with its flag False (infinite
    variance: no information was collected).
    """

    value: complex
    re_sampled: bool
    im_sampled: bool


@dataclass(frozen=True)
class SampledPair:
    H: np.ndarray
    S: np.ndarray
    construction: str


# ---------------------------------------------------------------------------
# Shot allocation
# ---------------------------------------------------------------------------


def _largest_remainder(ideals: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative ideals to integers preserving their sum exactly.

    Remainder shots go to the largest fractional parts; ties break by
    position, i.e. canonical element order.
    """
    ideals = np.asarray(ideals, dtype=float)
    floors = np.floor(ideals).astype(np.int64)
    rem = int(total - floors.sum())
    if rem < 0:
        raise ValueError("ideals exceed the total")
    if rem:
        fracs = ideals - floors
        order = sorted(range(len(ideals)), key=lambda i: (-fracs[i], i))
        for i in range(rem):
            floors[order[i % len(order)]] += 1
    return floors


def _split_fragments(
    target: str, n: int, totals: np.ndarray, betas: np.ndarray
) -> ShotPlan:
    """The plan splitting each configuration's total over fragments by weight."""
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or len(betas) == 0 or np.any(betas <= 0):
        raise ValueError("fragment weights must be a nonempty positive vector")
    weights = betas / betas.sum()
    filled = _grid(target, n)[1]
    counts = np.zeros(filled.shape + weights.shape, dtype=np.int64)
    counts[filled] = [_largest_remainder(t * weights, int(t)) for t in totals]
    return ShotPlan(target, n, counts)


def allocate_toeplitz(
    m_budget: int, n: int, is_h: bool, betas: Optional[np.ndarray] = None
) -> ShotPlan:
    """Minimax-optimal Toeplitz plan.

    Diagonal (H only): M / (sqrt(2)(n-1) + 1) shots, real configuration only.
    Each off-diagonal real and imag configuration: M / (2(n-1) + sqrt(2) delta)
    with delta = 1 for H, 0 for S.  Totals are preserved exactly by
    largest-remainder rounding; H configurations are further split over
    fragments proportionally to their weights, and S has one unit-weight
    fragment.
    """
    m_budget = int(m_budget)
    if n < 1:
        raise ValueError("n must be >= 1")
    target = "H_toeplitz" if is_h else "S_toeplitz"
    elements, filled = _grid(target, n)
    if not filled.any():
        raise InfeasibleBudgetError("S with n = 1 has no sampled configurations")
    if m_budget < 2 * n:
        raise InfeasibleBudgetError(
            f"budget {m_budget} below one shot per configuration (need >= {2 * n})"
        )
    sq2 = math.sqrt(2.0)
    delta = 1.0 if is_h else 0.0
    lags = np.broadcast_to(elements[:, :1], filled.shape)[filled]  # C order
    ideals = np.where(
        lags == 0,
        m_budget / (sq2 * (n - 1) + 1.0),
        m_budget / (2.0 * (n - 1) + sq2 * delta),
    )
    totals = _largest_remainder(ideals, m_budget)
    if betas is None or not is_h:
        betas = _UNIT
    return _split_fragments(target, n, totals, betas)


def allocate_nontoeplitz(
    m_budget: int, n: int, betas: Optional[np.ndarray] = None
) -> ShotPlan:
    """Uniform elementwise plan: every configuration gets M / n^2 shots.

    Configurations: one real per diagonal element, real and imag per strict
    upper-triangle element; n^2 in total.
    """
    m_budget = int(m_budget)
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_budget < n * n:
        raise InfeasibleBudgetError(
            f"budget {m_budget} below one shot per configuration (need >= {n * n})"
        )
    ideals = np.full(n * n, m_budget / n**2)  # one per filled configuration
    totals = _largest_remainder(ideals, m_budget)
    if betas is None:
        betas = _UNIT
    return _split_fragments("H_nontoeplitz", n, totals, betas)


def split_budget(
    m_total: int, n: int, construction: str, beta_norm: float
) -> tuple[int, int]:
    """Split a total budget M into (M_H, M_S) proportionally to the norm bounds."""
    m_total = int(m_total)
    if m_total < 2:
        raise ValueError("total budget must be >= 2")
    e_h, e_s = bounds.norm_bound_pair(n, beta_norm, construction)
    ideals = np.array([m_total * e_h / (e_h + e_s), m_total * e_s / (e_h + e_s)])
    m_h, m_s = _largest_remainder(ideals, m_total)
    return int(m_h), int(m_s)


# ---------------------------------------------------------------------------
# Element estimators
# ---------------------------------------------------------------------------


def _binomial_part(key: int, mean: float, m: int) -> float:
    if abs(mean) > 1.0 + 1e-9:
        raise ValueError(f"binomial mode needs |part| <= 1, got {mean}")
    p = 0.5 * (1.0 + min(1.0, max(-1.0, mean)))
    draw = rngstream.generator(key).binomial(m, p)
    return 2.0 * draw / m - 1.0


def _gaussian_part(key: int, mean: float, m: int) -> float:
    sigma = math.sqrt(max(1.0 - mean * mean, 0.0) / m)
    return mean + sigma * float(rngstream.normals(np.uint64(key)))


def hadamard_estimate(
    true_value: complex,
    m_r: int,
    m_i: int,
    noise: NoiseSpec,
    stream: Sequence[int],
) -> EstimateResult:
    """Estimate one overlap from m_r real-configuration and m_i imag shots.

    `stream` is the coordinate prefix (seed, trial, target code, a, b,
    fragment); the configuration code is appended internally so real and imag
    draws are independent.  Zero-shot parts return 0 and are flagged.
    """
    parts = [0.0, 0.0]
    sampled = [False, False]
    for cfg, (mean, m) in enumerate(
        ((true_value.real, int(m_r)), (true_value.imag, int(m_i)))
    ):
        if m <= 0:
            continue
        key = rngstream.stream_key(*stream, cfg)
        if noise.mode == "binomial":
            parts[cfg] = _binomial_part(key, mean, m)
        else:
            parts[cfg] = _gaussian_part(key, mean, m)
        sampled[cfg] = True
    return EstimateResult(
        value=complex(parts[0], parts[1]), re_sampled=sampled[0], im_sampled=sampled[1]
    )


# ---------------------------------------------------------------------------
# Pair sampling
# ---------------------------------------------------------------------------


def _gaussian_block(
    seed: int,
    trials: np.ndarray,
    target_code: int,
    a: np.ndarray,
    b: np.ndarray,
    frag: np.ndarray,
    cfg: np.ndarray,
    means: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Vectorized gaussian estimates over (trial, configuration) grids.

    Returns means + sigma * z where sampled, 0 where the count is zero.
    Shapes: trials is (T, 1, ..., 1); a/b/frag/cfg/means/counts broadcast over
    the per-trial configuration grid.
    """
    keys = rngstream.stream_keys(seed, trials, target_code, a, b, frag, cfg)
    z = rngstream.normals(keys)
    safe = np.where(counts > 0, counts, 1)
    sigma = np.sqrt(np.clip(1.0 - means**2, 0.0, None) / safe)
    return np.where(counts > 0, means + sigma * z, 0.0)


def _binomial_block(
    seed: int,
    trials_1d: np.ndarray,
    target_code: int,
    means: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Binomial estimates of shape (T, *grid), one generator per trial.

    The generator keyed (seed, trial, target) draws every sampled coordinate
    of the broadcast (means, counts) grid in one vector call, in the grid's C
    order; zero-count coordinates consume no draw and stay 0.  The key depends
    only on the absolute trial index, so any chunking of the trials agrees.
    """
    means, counts = np.broadcast_arrays(means, counts)
    sampled = counts > 0
    m = counts[sampled]
    mean = means[sampled]
    out_of_range = np.abs(mean) > 1.0 + 1e-9
    if np.any(out_of_range):
        bad = float(mean[out_of_range][0])
        raise ValueError(f"binomial mode needs |part| <= 1, got {bad}")
    p = 0.5 * (1.0 + np.clip(mean, -1.0, 1.0))
    out = np.zeros((len(trials_1d),) + means.shape)
    for i, trial in enumerate(trials_1d):
        gen = rngstream.generator(rngstream.stream_key(seed, int(trial), target_code))
        out[i][sampled] = 2.0 * gen.binomial(m, p) / m - 1.0
    return out


def _sample_grid(
    plan: ShotPlan,
    truth: np.ndarray,
    betas: np.ndarray,
    noise: NoiseSpec,
    trials: int,
    first_trial: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Beta-weighted estimates of every element on the plan's grid.

    `truth` holds the true (decayed) fragment overlaps, (J, n) by lag for a
    Toeplitz plan or (J, n, n) for the elementwise one.  Returns the grid's
    (P, 2) elements and the (T, P) estimates sum_j beta_j (Re + i Im).
    """
    counts = plan.counts
    if counts.shape[2] != len(betas):
        raise ValueError(
            f"plan has {counts.shape[2]} fragments, the targets have {len(betas)}"
        )
    elements = plan.elements
    a, b = elements[:, 0], elements[:, 1]
    values = (truth[:, a, b] if truth.ndim == 3 else truth[:, a]).T  # (P, J)
    means = np.stack([values.real, values.imag], axis=1)  # (P, 2, J)
    trials_1d = np.arange(first_trial, first_trial + trials, dtype=np.int64)
    code = _TARGET_CODE[plan.target]
    if noise.mode == "gaussian":
        est = _gaussian_block(
            noise.rng_seed,
            trials_1d.reshape(-1, 1, 1, 1),
            code,
            a.reshape(-1, 1, 1),
            b.reshape(-1, 1, 1),
            np.arange(len(betas)).reshape(1, 1, -1),
            np.arange(2).reshape(1, 2, 1),
            means,
            counts,
        )
    else:
        est = _binomial_block(noise.rng_seed, trials_1d, code, means, counts)
    return elements, (est[:, :, 0, :] + 1j * est[:, :, 1, :]) @ betas


def expected_pair(
    targets: MeasurementTargets, hardware_lambda: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The exact (decayed) pair the sampler is estimating, as dense matrices.

    Built from the same fragment overlaps the sampler draws around, so
    sampled-minus-expected is precisely the injected noise matrix.
    """
    decay = math.exp(-hardware_lambda)
    s_true = decay * targets.s_seq
    s_mat = toeplitz_matrix(s_true)
    betas = targets.betas
    if targets.construction == "toeplitz":
        h_seq = betas @ (decay * targets.frag) + targets.id_coeff * s_true
        h_mat = toeplitz_matrix(h_seq)
    else:
        h_mat = np.tensordot(betas, decay * targets.frag, axes=1)
        h_mat = h_mat + targets.id_coeff * s_mat
    return h_mat, s_mat


def sample_overlap_ensemble(
    targets: MeasurementTargets,
    plan_s: ShotPlan,
    noise: NoiseSpec,
    trials: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Sample `trials` overlap matrices S~ as a (T, n, n) stack.

    Per-trial results depend only on (rng_seed, trial index, coordinate), so
    any chunking of the trial range reproduces identical matrices.
    """
    if plan_s.target != "S_toeplitz" or plan_s.n != targets.n:
        raise ValueError("S plan does not match the targets")
    s_true = math.exp(-noise.hardware_lambda) * targets.s_seq
    elements, est = _sample_grid(
        plan_s, s_true[None, :], _UNIT, noise, trials, first_trial
    )
    s_seq_est = np.tile(s_true, (trials, 1))  # the known diagonal stays exact
    s_seq_est[:, elements[:, 0]] = est
    return toeplitz_matrix(s_seq_est)


def sample_hamiltonian_ensemble(
    targets: MeasurementTargets,
    plan_h: ShotPlan,
    noise: NoiseSpec,
    trials: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Sample `trials` projected-Hamiltonian matrices H~ as a (T, n, n) stack."""
    n = targets.n
    expected_h = "H_toeplitz" if targets.construction == "toeplitz" else "H_nontoeplitz"
    if plan_h.target != expected_h or plan_h.n != n:
        raise ValueError("H plan does not match the construction")
    decay = math.exp(-noise.hardware_lambda)
    s_true = decay * targets.s_seq
    elements, vals = _sample_grid(
        plan_h, decay * targets.frag, targets.betas, noise, trials, first_trial
    )
    if targets.construction == "toeplitz":
        # the Toeplitz H grid is every lag 0..n-1 in order
        return toeplitz_matrix(vals + targets.id_coeff * s_true)
    a, b = elements[:, 0], elements[:, 1]
    vals = vals + targets.id_coeff * toeplitz_matrix(s_true)[a, b]
    h_stack = np.zeros((trials, n, n), dtype=complex)
    h_stack[:, a, b] = vals
    h_stack[:, b, a] = vals.conj()
    return h_stack


def sample_ensemble(
    targets: MeasurementTargets,
    plan_h: ShotPlan,
    plan_s: ShotPlan,
    noise: NoiseSpec,
    trials: int,
    first_trial: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `trials` independent pairs (H~, S~) as (T, n, n) stacks."""
    return (
        sample_hamiltonian_ensemble(targets, plan_h, noise, trials, first_trial),
        sample_overlap_ensemble(targets, plan_s, noise, trials, first_trial),
    )


def sample_pair(
    targets: MeasurementTargets,
    plan_h: ShotPlan,
    plan_s: ShotPlan,
    noise: NoiseSpec,
    trial: int = 0,
) -> SampledPair:
    """Sample a single noisy pair; identical to the matching ensemble slice."""
    h_stack, s_stack = sample_ensemble(
        targets, plan_h, plan_s, noise, trials=1, first_trial=trial
    )
    return SampledPair(H=h_stack[0], S=s_stack[0], construction=targets.construction)


# ---------------------------------------------------------------------------
# Hardware decay
# ---------------------------------------------------------------------------


def decay_exponent(r: float, n_qubits: int, depth: int) -> float:
    """lambda = N_q * D * ln(1/r) for per-qubit-per-layer fidelity r."""
    if not 0.0 < r <= 1.0:
        raise ValueError("fidelity r must lie in (0, 1]")
    return n_qubits * depth * math.log(1.0 / r)
