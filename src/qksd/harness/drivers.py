"""Experiment drivers: system setup, trial ensembles, aggregation, CSV output.

Each driver maps an ExperimentConfig to one CSV.  Threshold-sweep,
optimal-threshold and perturbation-bound walk the same (construction, n, M)
cells (`_pair_cells`); within a cell, the run's `_Fanout` splits the trials
once into contiguous trial blocks, sized from a fixed byte budget
(`_BLOCK_BYTES`) and the cell's per-trial footprint, with at least one block
per worker.  One worker runs the blocks inline; more share them over one
process pool per driver run, each taking one contiguous run of blocks; the
pool is opened at the first fan-out and shut down before the driver returns.
A cell's peak memory depends on its block, not on `trials`.  Since every
trial's random stream is keyed by its absolute trial index and every result
is per trial, blocks do not show in the output, and any worker count
reproduces byte-identical files.

Every trial chunk takes (args, (start, count)) and returns a tuple of
per-trial arrays; the fan-out joins them column by column, and only the
drivers build rows.  The sampled-pair chunks solve a block's reduced pairs as
stacks, one batched solve per retained dimension
(`gevp.top_k_ground_energies`); perturbation-bound takes chi and the
assumption flags from the same stacks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .. import bounds
from ..errors import ConfigError, IllPosedError, InfeasibleBudgetError
from ..evolution import Spectrum, diagonalize, hartree_fock_state, sector_indices
from ..gevp import (
    basis_thresholding,
    chi_between_thresholds,
    eigenangle_check,
    solve_gevp,
    top_k_ground_energies,
)
from ..hamiltonian import (
    UnitaryPartition,
    build_hubbard_1d,
    pauli_sum_block,
    sorted_insertion_partition,
)
from ..krylov import KrylovConfig, MeasurementTargets, default_time_step, measurement_targets
from ..sampling import (
    NoiseSpec,
    ShotPlan,
    allocate_nontoeplitz,
    allocate_toeplitz,
    expected_pair,
    sample_ensemble,
    sample_hamiltonian_ensemble,
    sample_overlap_ensemble,
    split_budget,
)
from .config import ExperimentConfig
from .records import (
    ERROR_NORM_COLUMNS,
    PERTURBATION_COLUMNS,
    SCAN_COLUMNS,
    SPECTRUM_COLUMNS,
    SWEEP_COLUMNS,
    DriverResult,
    check_finite,
    write_csv,
)

_WEYL_SLACK = 1e-12
_BOUND_SLACK = 1e-9
_E0_TOL = 1e-12  # |E0| below this fraction of sum_j beta_j counts as zero
# Nominal bytes (`_trial_bytes`) of one trial block; the draw grid's
# temporaries make a block's real peak a few times this.
_BLOCK_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemBundle:
    """Everything derived once per (L, t, u, filling), in the reference's sector.

    `basis` holds the sector's sorted Fock indices; `spectrum` and `ref_state`
    are in its coordinates, and e0_sector is the spectrum's lowest eigenvalue.
    """

    partition: UnitaryPartition
    id_coeff: float
    basis: np.ndarray
    spectrum: Spectrum
    ref_state: np.ndarray
    e0_sector: float
    dt: float

    @property
    def beta_norm(self) -> float:
        return self.partition.beta_norm


def build_system(cfg: ExperimentConfig) -> SystemBundle:
    n_up, n_down = cfg.filling
    basis = sector_indices(cfg.sites, n_up, n_down)  # enforces the dimension cap
    ham = build_hubbard_1d(cfg.sites, cfg.t_hop, cfg.u_int)
    if not ham.non_identity_terms:
        raise ConfigError(
            f"L = {cfg.sites}, t = {cfg.t_hop}, u = {cfg.u_int} leaves H a multiple "
            "of the identity: there is nothing to partition or sample"
        )
    partition = sorted_insertion_partition(ham)
    spectrum = diagonalize(pauli_sum_block(ham, basis))
    e0 = float(spectrum.eigenvalues[0])
    if abs(e0) <= _E0_TOL * partition.beta_norm:
        raise ConfigError(
            f"sector ({n_up}, {n_down}) of L = {cfg.sites} has ground energy {e0!r}: "
            "relative energy errors are undefined"
        )
    ref = hartree_fock_state(cfg.sites, cfg.t_hop, n_up, n_down, basis)
    dt = cfg.dt if cfg.dt is not None else default_time_step(partition)
    return SystemBundle(
        partition=partition,
        id_coeff=ham.identity_coefficient,
        basis=basis,
        spectrum=spectrum,
        ref_state=ref,
        e0_sector=e0,
        dt=dt,
    )


def targets_for(
    system: SystemBundle, n: int, construction: str
) -> MeasurementTargets:
    cfg_k = KrylovConfig(n=n, dt=system.dt)
    return measurement_targets(
        system.spectrum,
        system.partition,
        system.id_coeff,
        system.ref_state,
        cfg_k,
        construction,
        system.basis,
    )


def noise_from(cfg: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(
        mode=cfg.mode, hardware_lambda=cfg.hardware_lambda, rng_seed=cfg.seed
    )


def _plan_for(
    kind: str, construction: str, m: int, n: int, betas: np.ndarray
) -> ShotPlan:
    if kind == "S":
        return allocate_toeplitz(m, n, is_h=False)
    if construction == "toeplitz":
        return allocate_toeplitz(m, n, is_h=True, betas=betas)
    return allocate_nontoeplitz(m, n, betas)


# ---------------------------------------------------------------------------
# Deterministic chunked execution
# ---------------------------------------------------------------------------


def _chunk_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    parts = max(1, min(workers, trials))
    base, rem = divmod(trials, parts)
    ranges = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < rem else 0)
        if count:
            ranges.append((start, count))
            start += count
    return ranges


def _worker_count(requested: int, trials: int, cpus: Optional[int]) -> int:
    """Processes worth starting: at most one per CPU and one per trial."""
    return max(1, min(requested, trials, cpus or 1))


def _usable_cpus() -> Optional[int]:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


class _Fanout:
    """Trial fan-out of one driver run, used as a context manager.

    Each cell's trials are split once into contiguous blocks (`__call__`);
    with more than one worker, each worker runs one contiguous run of them.  A
    process pool is opened at the first map of a run with more than one
    worker, reused by every later one, and shut down, its children joined,
    when the `with` block exits, raising or not.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.trials = cfg.trials
        self.workers = _worker_count(cfg.workers, cfg.trials, _usable_cpus())
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> _Fanout:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def __call__(self, chunk: Callable, trial_bytes: int, *args) -> list[np.ndarray]:
        """The run's per-trial columns: chunk(args, (start, count)) per trial
        block, in trial order, each a tuple of per-trial arrays, joined column
        by column.

        The blocks are contiguous and near-equal, at least one per worker; each
        holds at least as many trials of `trial_bytes` each as fit in
        `_BLOCK_BYTES` (or all of its worker's share), and fewer than twice that.
        """
        per_block = max(1, _BLOCK_BYTES // trial_bytes)
        blocks = _chunk_ranges(self.trials, max(self.workers, self.trials // per_block))
        parts = _map_chunks(partial(chunk, args), blocks, self)
        return [np.concatenate(column) for column in zip(*parts)]


def _trial_bytes(n: int, stacks: int, *plans: ShotPlan) -> int:
    """Nominal bytes one trial of a chunk holds: a float per (element, config,
    fragment) of each plan's grid and a complex (n, n) matrix per stack.  This
    overstates a gaussian plan's draws J-fold, which keeps its blocks small."""
    return 8 * sum(plan.counts.size for plan in plans) + 16 * n * n * stacks


def _map_chunks(
    fn: Callable, ranges: Sequence[tuple[int, int]], fanout: _Fanout
) -> list:
    """fn(r) per trial block r, in order: inline at one worker, else over the
    pool with each worker given one contiguous run of blocks."""
    if fanout.workers == 1:
        return [fn(r) for r in ranges]
    runs = math.ceil(len(ranges) / fanout.workers)
    return list(fanout.pool().map(fn, ranges, chunksize=runs))  # in submission order


def _spec_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a Hermitian (T, n, n) stack."""
    return np.abs(np.linalg.eigvalsh(stack)).max(axis=1)


# ---------------------------------------------------------------------------
# Sampled-pair cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairCell:
    """A feasible (construction, n, M) cell: what its trials sample and solve."""

    targets: MeasurementTargets
    h_exact: np.ndarray
    s_exact: np.ndarray
    m_h: int
    m_s: int
    plan_h: ShotPlan
    plan_s: ShotPlan
    eps: float  # threshold e_S / sqrt(M_S)

    @property
    def trial_bytes(self) -> int:
        """Per-trial footprint of a chunk holding H~, S~ and S~'s eigenvectors,
        plus the four stacks a batched reduced solve holds at k = n."""
        return _trial_bytes(self.targets.n, 7, self.plan_h, self.plan_s)


def _pair_cells(
    cfg: ExperimentConfig, system: SystemBundle, n_list: Sequence[int]
) -> Iterator[tuple[dict, Optional[_PairCell]]]:
    """(base row, cell) per (construction, n, M) in config order.

    The cell is None when the budget split or a shot plan is infeasible.
    Targets and the exact pair are built once per (construction, n).
    """
    for construction in cfg.constructions:
        for n in n_list:
            targets = targets_for(system, n, construction)
            h_exact, s_exact = expected_pair(targets, cfg.hardware_lambda)
            for m in cfg.m_list:
                base = {"construction": construction, "n": n, "m_budget": m}
                try:
                    m_h, m_s = split_budget(m, n, construction, system.beta_norm)
                    plan_h = _plan_for("H", construction, m_h, n, targets.betas)
                    plan_s = _plan_for("S", construction, m_s, n, targets.betas)
                except InfeasibleBudgetError:
                    yield base, None
                    continue
                eps = bounds.optimal_epsilon(n, m_s)
                yield base, _PairCell(
                    targets, h_exact, s_exact, m_h, m_s, plan_h, plan_s, eps
                )


def _sampled_eigh(cell: _PairCell, noise: NoiseSpec, rng: tuple[int, int]):
    """Sampled H~ and S~ stacks of trials rng = (start, count), eigh of S~, and
    each trial's n_eps under the threshold rule (0 if nothing survives).

    eigh's eigenvalues ascend, so the rule keeps each trial's top n_eps
    directions, in the order basis_thresholding keeps them.
    """
    start, count = rng
    h_stack, s_stack = sample_ensemble(
        cell.targets, cell.plan_h, cell.plan_s, noise, count, start
    )
    vals, vecs = np.linalg.eigh(s_stack)
    dims = np.count_nonzero(vals > cell.eps, axis=1)
    return h_stack, s_stack, vals, vecs, dims


# ---------------------------------------------------------------------------
# Chunk workers (top-level so they pickle)
# ---------------------------------------------------------------------------


def _norms_chunk(args, rng: tuple[int, int]):
    targets, plan, noise, kind, expected = args
    start, count = rng
    if kind == "S":
        stack = sample_overlap_ensemble(targets, plan, noise, count, start)
    else:
        stack = sample_hamiltonian_ensemble(targets, plan, noise, count, start)
    return (_spec_norms(stack - expected),)


def _spectrum_chunk(args, rng: tuple[int, int]):
    targets, plan_s, noise, s_exact = args
    start, count = rng
    stack = sample_overlap_ensemble(targets, plan_s, noise, count, start)
    vals = np.linalg.eigvalsh(stack)[:, ::-1]  # descending per trial
    return vals, _spec_norms(stack - s_exact)


def _top_k_sweep(h_stack: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(T, n) ground energies keeping each trial's top k directions, k = 1..n."""
    trials, n = vals.shape
    ks = range(1, n + 1)
    return np.stack(
        [top_k_ground_energies(h_stack, vals, vecs, np.full(trials, k)) for k in ks],
        axis=1,
    )


def _sweep_chunk(args, rng):
    """(top-k energies for k = 1..n, n_eps) per trial."""
    cell, noise = args
    h_stack, _, vals, vecs, dims = _sampled_eigh(cell, noise, rng)
    return _top_k_sweep(h_stack, vals, vecs), dims


def _scan_chunk(args, rng):
    """(energy, n_eps) per trial under the threshold rule; (nan, 0) if nothing survives."""
    cell, noise = args
    h_stack, _, vals, vecs, dims = _sampled_eigh(cell, noise, rng)
    return top_k_ground_energies(h_stack, vals, vecs, dims), dims


def _perturbation_chunk(args, rng):
    """Per trial: dH and dS norms, n_eps, chi, e0_sampled, cond_s and the
    chi_small and angle_gap flags, all from the block's stacks.

    chi, e0_sampled and cond_s are nan, and both flags False, where n_eps = 0.
    """
    cell, noise, ex, sol_ex = args
    h_stack, s_stack, vals, vecs, dims = _sampled_eigh(cell, noise, rng)
    energies = top_k_ground_energies(h_stack, vals, vecs, dims)
    chis = chi_between_thresholds(ex, h_stack, vals, vecs, dims)
    chi_small, angle_gap = eigenangle_check(sol_ex, chis, float(np.min(ex.b_diagonal)))
    n = vals.shape[1]
    smallest_kept = vals[np.arange(len(dims)), n - np.maximum(dims, 1)]
    cond_s = np.divide(
        vals[:, n - 1], smallest_kept, out=np.full(len(dims), math.nan), where=dims > 0
    )
    return (
        _spec_norms(h_stack - cell.h_exact),
        _spec_norms(s_stack - cell.s_exact),
        dims, chis, energies, cond_s, chi_small, angle_gap,
    )


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def _rel_errors(energies: np.ndarray, e0: float) -> np.ndarray:
    return np.abs(energies - e0) / abs(e0)


def _rms(values: np.ndarray) -> Optional[float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return None
    return float(np.sqrt(np.mean(finite**2)))


def _mean(values: np.ndarray) -> Optional[float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return None
    return float(np.mean(finite))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _flag(ok: bool) -> str:
    return "holds" if ok else "violated"


# Trial columns of a sampled S~ that keeps no direction above eps: nothing to solve.
_EMPTY_BASIS = {
    **dict.fromkeys(
        ("chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims_matched"),
        "unknown",
    ),
    **dict.fromkeys(("n_eps", "chi", "e0_sampled", "cond_s", "observed", "satisfied")),
    "qualifies": False,
}


def run_error_norm_ensemble(cfg: ExperimentConfig) -> DriverResult:
    """Sampled error-matrix norms against the expected-norm bound.

    Emits per-trial rows, one summary per (kind, n, M) cell, and one fitted
    log-log slope row per (kind, M) across the n grid.
    """
    with _Fanout(cfg) as trials:
        system = build_system(cfg)
        noise = noise_from(cfg)
        kinds = [("S", "toeplitz")] + [("H", c) for c in cfg.constructions]
        rows: list[dict] = []
        slope_points: dict[tuple[str, str, int], list[tuple[int, float]]] = {}
        sampled_any = False
        for kind, construction in kinds:
            v_z = 1.0 if kind == "S" else system.beta_norm
            for n in cfg.n_list:
                targets = targets_for(system, n, construction)
                h_exact, s_exact = expected_pair(targets, cfg.hardware_lambda)
                expected = s_exact if kind == "S" else h_exact
                for m in cfg.m_list:
                    base = {
                        "construction": construction,
                        "kind": kind,
                        "n": n,
                        "m_budget": m,
                    }
                    try:
                        plan = _plan_for(kind, construction, m, n, targets.betas)
                    except InfeasibleBudgetError as exc:
                        rows.append({**base, "row_kind": "skipped", "note": str(exc)})
                        continue
                    sampled_any = True
                    bound = bounds.error_norm_bound(n, v_z, construction) / math.sqrt(m)
                    (norms,) = trials(
                        _norms_chunk,
                        _trial_bytes(n, 2, plan),  # the stack and its deviation
                        targets, plan, noise, kind, expected,
                    )
                    for trial, norm in enumerate(norms):
                        rows.append(
                            {
                                **base,
                                "row_kind": "trial",
                                "trial": trial,
                                "norm": float(norm),
                                "bound": bound,
                                "under_bound": bool(norm < bound),
                            }
                        )
                    mean_norm = float(np.mean(norms))
                    rows.append(
                        {
                            **base,
                            "row_kind": "cell_summary",
                            "bound": bound,
                            "mean_norm": mean_norm,
                            "frac_under": float(np.mean(norms < bound)),
                        }
                    )
                    slope_points.setdefault((kind, construction, m), []).append(
                        (n, mean_norm)
                    )
        for (kind, construction, m), points in slope_points.items():
            if len(points) < 2:
                continue
            ns = np.log([p[0] for p in points])
            means = np.log([p[1] for p in points])
            slope = float(np.polyfit(ns, means, 1)[0])
            rows.append(
                {
                    "row_kind": "slope",
                    "construction": construction,
                    "kind": kind,
                    "m_budget": m,
                    "slope": slope,
                }
            )
        if not sampled_any:
            raise InfeasibleBudgetError("every (kind, n, M) cell was infeasible")
        return write_csv(cfg.out, ERROR_NORM_COLUMNS, rows, cfg)


def run_singular_spectrum(cfg: ExperimentConfig) -> DriverResult:
    """Exact overlap spectrum next to the sampled spectra, per budget.

    The rows have no n column, so the config must list one Krylov order.
    Eigenvalues are reported descending (index 1 = largest).  weyl_fraction
    is the fraction of trials with |perturbed - exact| <= ||Delta_S|| for that
    index; the threshold column carries eps = e_S / sqrt(M_S).
    """
    if len(cfg.n_list) > 1:
        raise ConfigError(
            f"singular-spectrum takes one Krylov order, got n = {list(cfg.n_list)}: "
            "its rows have no n column"
        )
    with _Fanout(cfg) as trials:
        system = build_system(cfg)
        noise = noise_from(cfg)
        (n,) = cfg.n_list
        targets = targets_for(system, n, "toeplitz")
        _, s_exact = expected_pair(targets, cfg.hardware_lambda)
        exact_vals = np.linalg.eigvalsh(s_exact)[::-1]
        rows: list[dict] = []
        for m in cfg.m_list:
            plan_s = allocate_toeplitz(m, n, is_h=False)
            # vals: (T, n) descending per trial
            vals, ds_norms = trials(
                _spectrum_chunk, _trial_bytes(n, 2, plan_s), targets, plan_s, noise, s_exact
            )
            eps = bounds.optimal_epsilon(n, m)
            dev_ok = np.abs(vals - exact_vals) <= ds_norms[:, None] + _WEYL_SLACK
            for i in range(n):
                rows.append(
                    {
                        "m_budget": m,
                        "index": i + 1,
                        "exact_value": float(exact_vals[i]),
                        "mean_value": float(np.mean(vals[:, i])),
                        "std_value": float(np.std(vals[:, i])),
                        "epsilon": eps,
                        "weyl_fraction": float(np.mean(dev_ok[:, i])),
                    }
                )
        return write_csv(cfg.out, SPECTRUM_COLUMNS, rows, cfg)


def run_threshold_sweep(cfg: ExperimentConfig) -> DriverResult:
    """Energy error versus forced retained dimension, with the threshold rule.

    Sweep rows force the top-k overlap directions for k = 1..n; the
    epsilon_rule row applies eps = e_S / sqrt(M_S) per trial.  Errors are
    relative to the exact sector ground energy.
    """
    with _Fanout(cfg) as trials:
        system = build_system(cfg)
        noise = noise_from(cfg)
        e0 = system.e0_sector
        rows: list[dict] = []
        ideal: dict[tuple[str, int], np.ndarray] = {}  # once per (construction, n)
        for base, cell in _pair_cells(cfg, system, cfg.n_list):
            if cell is None:
                rows.append({**base, "row_kind": "skipped"})
                continue
            construction, n = base["construction"], base["n"]
            if (construction, n) not in ideal:
                exact = (cell.h_exact[None], *np.linalg.eigh(cell.s_exact[None]))
                ideal[construction, n] = _rel_errors(_top_k_sweep(*exact)[0], e0)
            sweep, eps_dims = trials(_sweep_chunk, cell.trial_bytes, cell, noise)
            for k in range(1, n + 1):
                rel = _rel_errors(sweep[:, k - 1], e0)
                ideal_k = ideal[construction, n][k - 1]
                rows.append(
                    {
                        **base,
                        "row_kind": "sweep",
                        "k": k,
                        "trials_used": int(np.sum(np.isfinite(rel))),
                        "rms_rel_error": _rms(rel),
                        "mean_rel_error": _mean(rel),
                        "ideal_rel_error": None if np.isnan(ideal_k) else float(ideal_k),
                        "epsilon": cell.eps,
                    }
                )
            at_n_eps = sweep[np.arange(len(eps_dims)), eps_dims - 1]
            rel = _rel_errors(np.where(eps_dims > 0, at_n_eps, math.nan), e0)
            rows.append(
                {
                    **base,
                    "row_kind": "epsilon_rule",
                    "trials_used": int(np.sum(np.isfinite(rel))),
                    "rms_rel_error": _rms(rel),
                    "mean_rel_error": _mean(rel),
                    "mean_n_eps": float(np.mean(eps_dims)),
                    "epsilon": cell.eps,
                }
            )
        return write_csv(cfg.out, SWEEP_COLUMNS, rows, cfg)


def run_optimal_threshold_scan(cfg: ExperimentConfig) -> DriverResult:
    """Energy error of the threshold-rule solution across the (n, M) grid."""
    with _Fanout(cfg) as trials:
        system = build_system(cfg)
        noise = noise_from(cfg)
        e0 = system.e0_sector
        rows: list[dict] = []
        for base, cell in _pair_cells(cfg, system, cfg.n_list):
            if cell is None:
                rows.append({**base, "trials_used": 0})
                continue
            energies, dims = trials(_scan_chunk, cell.trial_bytes, cell, noise)
            rel = _rel_errors(energies, e0)
            used = np.isfinite(rel)
            rows.append(
                {
                    **base,
                    "m_h": cell.m_h,
                    "m_s": cell.m_s,
                    "epsilon": cell.eps,
                    "trials_used": int(np.sum(used)),
                    "rms_rel_error": _rms(rel),
                    "mean_rel_error": _mean(rel),
                    "mean_n_eps": float(np.mean(dims[used])) if used.any() else None,
                    "e0_sector": e0,
                }
            )
        return write_csv(cfg.out, SCAN_COLUMNS, rows, cfg)


def run_perturbation_vs_bound(cfg: ExperimentConfig) -> DriverResult:
    """Per-trial perturbation accounting against the sampling bound.

    Every trial row records the raw and conjugated perturbation magnitudes,
    the assumption flags, the bound, and the observed deviation from the
    exact thresholded solution; each cell closes with a summary row holding
    the qualifying-trial count and satisfaction rate.
    """
    with _Fanout(cfg) as trials:
        system = build_system(cfg)
        noise = noise_from(cfg)
        rows: list[dict] = []
        e0_full: dict[tuple[str, int], float] = {}  # once per (construction, n)
        for base, cell in _pair_cells(cfg, system, cfg.n_list):
            if cell is None:
                rows.append({**base, "row_kind": "skipped"})
                continue
            construction, n = base["construction"], base["n"]
            if (construction, n) not in e0_full:
                full = basis_thresholding(cell.h_exact, cell.s_exact, cfg.epsilon_ideal)
                e0_full[construction, n] = solve_gevp(full.A, full.B).ground_energy
            e_h, e_s = bounds.norm_bound_pair(n, system.beta_norm, construction)
            ex = basis_thresholding(cell.h_exact, cell.s_exact, cell.eps)
            sol_ex = solve_gevp(ex.A, ex.B)
            bound = bounds.sampling_perturbation_bound(
                ex.n_eps, e_h, e_s, cell.m_h + cell.m_s, sol_ex.d0, sol_ex.ground_energy
            )
            split = {**base, "m_h": cell.m_h, "m_s": cell.m_s}
            fixed = {
                **split,
                "row_kind": "trial",
                "seed": cfg.seed,
                "e0_sector": system.e0_sector,
                "e0_full": e0_full[construction, n],
                "e0_reduced": sol_ex.ground_energy,
                "d0": sol_ex.d0,
                "d0_inv_upper": bounds.crawford_inverse_upper(
                    cell.eps, sol_ex.ground_energy
                ),
                "bound": bound,
            }
            limits = (e_h / math.sqrt(cell.m_h), e_s / math.sqrt(cell.m_s))
            columns = trials(_perturbation_chunk, cell.trial_bytes, cell, noise, ex, sol_ex)
            qualifying = satisfied = 0
            per_trial = zip(*(column.tolist() for column in columns))
            for trial, (dh, ds, k, chi, e0, cond, small, gap) in enumerate(per_trial):
                eta = math.hypot(dh, ds)
                row = {**fixed, "trial": trial, "dh_norm": dh, "ds_norm": ds, "eta": eta}
                if k == 0:
                    rows.append(check_finite({**row, **_EMPTY_BASIS}))
                    continue
                if not math.isfinite(e0):  # as solve_gevp raises on an overflowing pair
                    raise IllPosedError(
                        f"trial {trial}: B^-1/2 A B^-1/2 is not finite (n_eps = {k})"
                    )
                flags = {
                    "chi_small": _flag(small),
                    "angle_gap": _flag(gap),
                    "norms_under": _flag(dh < limits[0] and ds < limits[1]),
                    "chi_le_eta": _flag(chi <= eta),
                    "dims_matched": _flag(k == ex.n_eps),
                }
                observed = abs(e0 - sol_ex.ground_energy)
                qualifies = (
                    all(v == "holds" for v in flags.values())
                    and bound is not None
                    and not sol_ex.degenerate_lowest
                )
                ok = observed <= bound + _BOUND_SLACK if qualifies else None
                row.update(
                    flags, n_eps=k, chi=chi, e0_sampled=e0, cond_s=cond,
                    observed=observed, qualifies=qualifies, satisfied=ok,
                )
                rows.append(check_finite(row))
                qualifying += qualifies
                satisfied += bool(ok)
            rows.append(
                {
                    **split,
                    "row_kind": "cell_summary",
                    "bound": bound,
                    "qualifying_trials": qualifying,
                    "satisfaction_rate": satisfied / qualifying if qualifying else None,
                }
            )
        return write_csv(cfg.out, PERTURBATION_COLUMNS, rows, cfg)
