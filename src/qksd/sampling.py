"""Simulated Hadamard-test estimation of Krylov matrix elements.

A Hadamard test of a unitary V against the reference state returns +/-1
outcomes whose mean is Re or Im of <phi_0|V|phi_0>.  From m shots the
estimator R = 2 Bin(m, p)/m - 1 has mean 2p - 1 and variance (1 - mean^2)/m.
This module allocates a total shot budget over matrix elements, real/imag
configurations, and unitary fragments according to the minimax-optimal rules
for Toeplitz and elementwise (non-Toeplitz) constructions, then draws
ensembles of noisy pairs (H~, S~).

A plan is its grid of shot counts over (element, configuration, fragment).
Elements are S's lags 1..n-1 (its diagonal is known and never sampled), the
Toeplitz H's lags 0..n-1, or the elementwise H's upper triangle a <= b.
Every coordinate is required except the imaginary part of a diagonal element
(a == b), which is zero and takes no shots.  A plan that leaves a required
coordinate at zero shots is refused with InfeasibleBudgetError, so every
sampled term is an unbiased estimate.  One sampler draws every plan's grid.

Two noise modes: "binomial" draws the actual binomial counts (ground truth);
"gaussian" replaces each estimate with a normal of matched mean and variance,
which is what the norm-bound theory models and is fully vectorizable.  A sum
of independent normals is one normal, so a gaussian part (the beta-weighted
sum of its fragments' estimates) takes one draw.  Gaussian estimates are not
clamped to [-1, 1].

A `Sampler` samples one target at each budget of a (construction, n) cell,
one plan per budget.  It computes the moments no trial changes once: the
mean of each gaussian part, which no budget changes, and its spread at each
budget.  A block of trials draws its gaussian normals once and reuses them
for every budget; binomial counts are drawn per budget, a trial at a time,
into one (element, fragment) complex grid, which the fragment weights reduce
to the trial's estimates before the next trial is drawn, so a block never
holds its per-fragment estimates.  `draw_shared`
serves the samplers of one target at several Krylov orders from one draw at
the widest.  The one-plan ensembles (`sample_overlap_ensemble`,
`sample_hamiltonian_ensemble`) are a one-budget Sampler.

Random streams: every draw comes from one generator per (seed, trial, target),
which draws in the C order of the plan's grid: a standard normal per
(element, configuration), or a binomial count per (element, configuration,
fragment).  No key holds the budget, so a trial's budgets share their draws:
in gaussian mode the same normals, in binomial mode the same stream, drawn
from its start at each budget.  No key holds the Krylov order either, so a
trial's draws at two orders n < n' share their prefix: in gaussian mode the
normals at n are the first of those at n', and in binomial mode the counts at
every n start from the same stream.  A single pair is the one-trial ensemble
at its trial index, and any split of the trials into blocks draws the same
values.

Hardware decay multiplies every true overlap by e^{-lambda} before sampling
noise is applied, so the sampled matrices estimate the decayed pair.

Bases: a Toeplitz target's (T, n, n) stack, S~ always and H~ under the
Toeplitz construction, is built from its sampled sequence in real symmetric
form (`krylov.toeplitz_real_form`), a float stack; the elementwise H~ stays
complex in its sampled basis.  `expected_pair` returns the exact pair in the
same bases, so sampled minus expected is the noise in either, and
`gevp.overlap_eigh` gives S's eigenvectors in H's basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bounds, rngstream
from .errors import InfeasibleBudgetError
from .krylov import MeasurementTargets, toeplitz_matrix, toeplitz_real_form

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
    configuration c (0 real, 1 imag) and fragment j.  `elements` is the (P, 2)
    array of the grid's (a, b) elements in canonical order; both are stored
    read-only.
    """

    target: str
    n: int
    counts: np.ndarray
    elements: np.ndarray = field(init=False, repr=False)

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
        elements.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "elements", elements)


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


# ---------------------------------------------------------------------------
# Shot allocation
# ---------------------------------------------------------------------------


def _largest_remainder(ideals: np.ndarray, totals) -> np.ndarray:
    """Round nonnegative (K,) or (R, K) ideals to integers, each row summing to
    its total.

    `totals` broadcasts against the rows.  A row's remainder shots go to its
    largest fractional parts; ties break by position, i.e. canonical element
    order.  A remainder of K or more wraps round the row again.
    """
    ideals = np.asarray(ideals, dtype=float)
    floors = np.floor(ideals).astype(np.int64)
    rem = np.asarray(totals, dtype=np.int64) - floors.sum(axis=-1)
    if np.any(rem < 0):
        raise ValueError("ideals exceed the total")
    order = np.argsort(-(ideals - floors), axis=-1, kind="stable")
    # each position's place in the queue: the inverse of its row's order,
    # scattered, not argsorted (numpy's default argsort kernel is about
    # 0.25 MB of resident code that a run would touch for this alone)
    k = ideals.shape[-1]
    rank = np.empty_like(order)
    if order.ndim == 1:
        rank[order] = np.arange(k)
    else:
        rank[np.arange(len(order))[:, None], order] = np.arange(k)
    laps, extra = np.divmod(rem[..., None], k)
    return floors + laps + (rank < extra)


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
    counts[filled] = _largest_remainder(totals[:, None] * weights, totals)
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
# Ensemble sampling
# ---------------------------------------------------------------------------


class Sampler:
    """One target's estimators at each of a cell's budgets (its plans, in order).

    What no trial changes is computed here, once: the grid's true (decayed)
    fragment means and, in gaussian mode, each filled (element,
    configuration)'s mean mu = sum_j beta_j mu_j, the same at every budget,
    and its spread sigma_i = sqrt(sum_j beta_j^2 (1 - mu_j^2)/m_ij) at budget
    i, the binomial estimator's; in binomial mode p = (1 + mu_j)/2 per sampled
    coordinate, after the range check, and each sampled coordinate's slot, Re
    or Im, in a complex (P, J) grid of one trial's fragment estimates.

    A block of trials takes its draws once (`draw`): a standard normal per
    filled (element, configuration) in gaussian mode, which every budget
    reuses as mu + sigma_i z, or its streams' keys in binomial mode, whose
    counts are drawn per budget from the start of each trial's stream into
    that grid, reused for every trial and reduced by the weights into the
    trial's row of the block's (T, P) estimates (`estimates`).  `stack`
    builds one budget's (T, n, n) stack from them.
    """

    def __init__(self, targets: MeasurementTargets, plans, noise: NoiseSpec):
        plan = plans[0]
        self.n, self.target, self.elements = targets.n, plan.target, plan.elements
        if any(p.target != plan.target or p.n != plan.n for p in plans):
            raise ValueError("a cell's plans are of different targets")
        decay = math.exp(-noise.hardware_lambda)
        self.s_true = decay * targets.s_seq
        a, b = self.elements[:, 0], self.elements[:, 1]
        if plan.target == "S_toeplitz":
            truth, self.betas = self.s_true[None, :], _UNIT
        else:
            toeplitz = plan.target == "H_toeplitz"
            truth, self.betas = decay * targets.frag, targets.betas
            # the identity term, added to every estimate
            s_part = self.s_true if toeplitz else self.s_true[b - a]
            self.shift = targets.id_coeff * s_part
        fragments = len(self.betas)
        if plan.counts.shape[2] != fragments:
            raise ValueError(
                f"plan has {plan.counts.shape[2]} fragments, "
                f"the targets have {fragments}"
            )
        values = (truth[:, a, b] if truth.ndim == 3 else truth[:, a]).T  # (P, J)
        means = np.stack([values.real, values.imag], axis=1)  # (P, 2, J)
        self.seed, self.gaussian = noise.rng_seed, noise.mode == "gaussian"
        if self.gaussian:
            # the filled (element, configuration)s
            self.cols = np.flatnonzero(plan.counts[:, :, 0])
            mean = means.reshape(-1, fragments)[self.cols]
            spread = np.clip(1.0 - mean * mean, 0.0, None)
            weights = self.betas * self.betas
            self.mu = mean @ self.betas
            self.sigmas = [
                np.sqrt((spread / p.counts.reshape(-1, fragments)[self.cols]) @ weights)
                for p in plans
            ]
            return
        sampled = plan.counts > 0  # the same coordinates at every budget
        mean = means[sampled]
        out_of_range = np.abs(mean) > 1.0 + 1e-9
        if np.any(out_of_range):
            bad = float(mean[out_of_range][0])
            raise ValueError(f"binomial mode needs |part| <= 1, got {bad}")
        self.p = 0.5 * (1.0 + np.clip(mean, -1.0, 1.0))
        self.shots = [p.counts[sampled] for p in plans]
        # each sampled (p, c, j), in draw order, to its float in a complex
        # (P, J) grid: Re at 2 (p J + j), Im one further
        elem, conf, frag = np.nonzero(sampled)
        self.slots = 2 * (elem * fragments + frag) + conf

    def draw(self, trials: int, first_trial: int) -> np.ndarray:
        """The draws of the `trials` trials from first_trial on: a (T, C)
        normal per filled (element, configuration), or in binomial mode each
        trial's stream key."""
        indices = np.arange(first_trial, first_trial + trials)
        keys = rngstream.stream_keys(self.seed, indices, _TARGET_CODE[self.target])
        return rngstream.normals(keys, self.cols.size) if self.gaussian else keys

    def estimates(self, draws: np.ndarray, i: int) -> np.ndarray:
        """(T, P) estimates sum_j beta_j (Re + i Im) of the grid at budget i;
        unfilled configurations stay 0.  A binomial trial's counts fill the
        reused (P, J) grid in draw order, and one matrix-vector product
        writes its row, so no (T, P, 2, J) array is built."""
        trials = len(draws)
        if self.gaussian:
            # (Re, Im) pairs of a (T, P); mu + sigma z with one temporary
            est = np.zeros((trials, 2 * len(self.elements)))
            part = self.sigmas[i] * draws
            part += self.mu
            est[:, self.cols] = part
            return est.view(complex)
        m = self.shots[i]
        est = np.empty((trials, len(self.elements)), dtype=complex)
        grid = np.zeros((len(self.elements), len(self.betas)), dtype=complex)
        parts = grid.reshape(-1).view(float)  # unsampled parts stay 0 in every trial
        for row, gen in zip(est, rngstream.streams(draws)):  # reduced into place
            parts[self.slots] = 2.0 * gen.binomial(m, self.p) / m - 1.0
            np.matmul(grid, self.betas, out=row)
        return est

    def stack(self, draws: np.ndarray, i: int) -> np.ndarray:
        """The block's (T, n, n) stack of sampled matrices at budget i: a
        Toeplitz target's in real form (`krylov.toeplitz_real_form`), float,
        and the elementwise H~'s in the sampled basis, complex."""
        vals = self.estimates(draws, i)
        trials = len(vals)
        a, b = self.elements[:, 0], self.elements[:, 1]
        if self.target == "S_toeplitz":
            # the known diagonal stays exact
            s_seq_est = np.tile(self.s_true, (trials, 1))
            s_seq_est[:, a] = vals
            del vals  # free before the stack is built, as the block's draws are held
            return toeplitz_real_form(s_seq_est)
        vals += self.shift  # vals is this call's own array: add in place
        if self.target == "H_toeplitz":  # the grid is every lag 0..n-1 in order
            return toeplitz_real_form(vals)
        h_stack = np.zeros((trials, self.n, self.n), dtype=complex)
        h_stack[:, a, b] = vals
        h_stack[:, b, a] = np.conjugate(vals, out=vals)
        return h_stack


def draw_shared(
    samplers: Sequence[Sampler], trials: int, first_trial: int
) -> list[np.ndarray]:
    """Each sampler's `draw` of the same trials, for samplers of one target
    at several Krylov orders.  The stream key carries no n, and standard
    normals fill sequentially, so in gaussian mode the draw at n is the
    leading cols.size columns of the draw at any larger n: one draw at the
    widest serves every sampler, each taking a view of its leading columns.
    Binomial samplers draw their own keys, whose counts depend on m and p."""
    if len({s.target for s in samplers}) > 1:
        raise ValueError("shared draws need samplers of one target")
    if not samplers[0].gaussian:
        return [s.draw(trials, first_trial) for s in samplers]
    widest = max(samplers, key=lambda s: s.cols.size).draw(trials, first_trial)
    return [widest[:, : s.cols.size] for s in samplers]


def expected_pair(
    targets: MeasurementTargets, hardware_lambda: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The exact (decayed) pair the sampler is estimating, as dense matrices,
    each in the basis its sampled stacks take (`Sampler.stack`): S, and the
    Toeplitz H, in real form; the elementwise H in the sampled basis.

    Built from the same fragment overlaps the sampler draws around, so
    sampled-minus-expected is precisely the injected noise matrix.
    """
    decay = math.exp(-hardware_lambda)
    s_true = decay * targets.s_seq
    betas = targets.betas
    if targets.construction == "toeplitz":
        h_seq = betas @ (decay * targets.frag) + targets.id_coeff * s_true
        h_mat = toeplitz_real_form(h_seq)
    else:
        h_mat = np.tensordot(betas, decay * targets.frag, axes=1)
        h_mat = h_mat + targets.id_coeff * toeplitz_matrix(s_true)
    return h_mat, toeplitz_real_form(s_true)


def sample_overlap_ensemble(
    targets: MeasurementTargets,
    plan_s: ShotPlan,
    noise: NoiseSpec,
    trials: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Sample `trials` overlap matrices S~ as a (T, n, n) stack, in real form.

    Per-trial results depend only on (rng_seed, trial index, coordinate), so
    any chunking of the trial range reproduces identical matrices.
    """
    if plan_s.target != "S_toeplitz" or plan_s.n != targets.n:
        raise ValueError("S plan does not match the targets")
    sampler = Sampler(targets, [plan_s], noise)
    return sampler.stack(sampler.draw(trials, first_trial), 0)


def sample_hamiltonian_ensemble(
    targets: MeasurementTargets,
    plan_h: ShotPlan,
    noise: NoiseSpec,
    trials: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Sample `trials` projected-Hamiltonian matrices H~ as a (T, n, n) stack:
    in real form under the Toeplitz construction, else in the sampled basis."""
    expected_h = "H_toeplitz" if targets.construction == "toeplitz" else "H_nontoeplitz"
    if plan_h.target != expected_h or plan_h.n != targets.n:
        raise ValueError("H plan does not match the construction")
    sampler = Sampler(targets, [plan_h], noise)
    return sampler.stack(sampler.draw(trials, first_trial), 0)
