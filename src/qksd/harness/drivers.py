"""Experiment drivers: system setup, trial ensembles, aggregation, CSV output.

Each driver maps an ExperimentConfig to one CSV.  Trials fan out over a
process pool in contiguous chunks; since every trial's random stream is keyed
by its absolute trial index, the chunking is invisible in the output and any
worker count reproduces byte-identical files.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .. import bounds
from ..errors import ConfigError, EmptyBasisError, IllPosedError, InfeasibleBudgetError
from ..evolution import Spectrum, diagonalize, hartree_fock_state, sector_indices
from ..gevp import (
    basis_thresholding,
    chi_between_thresholds,
    eigenangle_check,
    solve_gevp,
    top_k_thresholding,
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
    TrialRecord,
    write_csv,
)

_WEYL_SLACK = 1e-12
_BOUND_SLACK = 1e-9
_E0_TOL = 1e-12  # |E0| below this fraction of sum_j beta_j counts as zero


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


def _chunk_layout(cfg: ExperimentConfig) -> tuple[list[tuple[int, int]], int]:
    """Trial chunks of a run and the worker count that maps them."""
    workers = _worker_count(cfg.workers, cfg.trials, os.cpu_count())
    return _chunk_ranges(cfg.trials, workers), workers


def _map_chunks(fn: Callable, ranges: Sequence[tuple[int, int]], workers: int) -> list:
    if workers <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ranges))  # map preserves submission order


def _spec_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (T, n, n) stack."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


# ---------------------------------------------------------------------------
# Chunk workers (top-level so they pickle)
# ---------------------------------------------------------------------------


def _norms_chunk(args, rng: tuple[int, int]) -> np.ndarray:
    targets, plan, noise, kind, expected = args
    start, count = rng
    if kind == "S":
        stack, _ = sample_overlap_ensemble(targets, plan, noise, count, start)
    else:
        stack, _ = sample_hamiltonian_ensemble(targets, plan, noise, count, start)
    return _spec_norms(stack - expected)


def _spectrum_chunk(args, rng: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    targets, plan_s, noise, s_exact = args
    start, count = rng
    stack, _ = sample_overlap_ensemble(targets, plan_s, noise, count, start)
    vals = np.linalg.eigvalsh(stack)[:, ::-1]  # descending per trial
    return vals, _spec_norms(stack - s_exact)


def _sample_pair_stacks(targets, plan_h, plan_s, noise, rng):
    start, count = rng
    h_stack, _ = sample_hamiltonian_ensemble(targets, plan_h, noise, count, start)
    s_stack, _ = sample_overlap_ensemble(targets, plan_s, noise, count, start)
    return h_stack, s_stack


def _epsilon_rule_energy(h: np.ndarray, s: np.ndarray, eps: float):
    """(energy, n_eps) under the threshold rule, or (nan, 0) if nothing survives."""
    try:
        thr = basis_thresholding(h, s, eps)
    except EmptyBasisError:
        return math.nan, 0
    sol = solve_gevp(thr.A, thr.B)
    return sol.ground_energy, thr.n_eps


def _sweep_chunk(args, rng):
    targets, plan_h, plan_s, noise, eps = args
    h_stack, s_stack = _sample_pair_stacks(targets, plan_h, plan_s, noise, rng)
    count = h_stack.shape[0]
    n = targets.n
    sweep = np.full((count, n), math.nan)
    eps_energy = np.full(count, math.nan)
    eps_dims = np.zeros(count, dtype=np.int64)
    for i in range(count):
        h, s = h_stack[i], s_stack[i]
        for k in range(1, n + 1):
            try:
                thr = top_k_thresholding(h, s, k)
            except (EmptyBasisError, IllPosedError):
                continue  # fewer than k positive directions in this trial
            sweep[i, k - 1] = solve_gevp(thr.A, thr.B).ground_energy
        eps_energy[i], eps_dims[i] = _epsilon_rule_energy(h, s, eps)
    return sweep, eps_energy, eps_dims


def _scan_chunk(args, rng):
    targets, plan_h, plan_s, noise, eps = args
    h_stack, s_stack = _sample_pair_stacks(targets, plan_h, plan_s, noise, rng)
    count = h_stack.shape[0]
    energies = np.full(count, math.nan)
    dims = np.zeros(count, dtype=np.int64)
    for i in range(count):
        energies[i], dims[i] = _epsilon_rule_energy(h_stack[i], s_stack[i], eps)
    return energies, dims


def _perturbation_chunk(args, rng):
    (
        targets,
        plan_h,
        plan_s,
        noise,
        eps,
        h_exact,
        s_exact,
        ex_threshold,
        exact_solution,
        lam_min,
        e_h,
        e_s,
        m_h,
        m_s,
    ) = args
    h_stack, s_stack = _sample_pair_stacks(targets, plan_h, plan_s, noise, rng)
    start, count = rng
    out = []
    for i in range(count):
        h, s = h_stack[i], s_stack[i]
        dh = float(np.linalg.norm(h - h_exact, 2))
        ds = float(np.linalg.norm(s - s_exact, 2))
        eta = math.hypot(dh, ds)
        try:
            pe = basis_thresholding(h, s, eps)
        except EmptyBasisError:
            out.append((start + i, dh, ds, eta, None, None, None, None, None))
            continue
        chi_res = chi_between_thresholds(ex_threshold, pe)
        sol = solve_gevp(pe.A, pe.B)
        check = eigenangle_check(exact_solution, sol, chi_res.chi, lam_min)
        norms_under = dh < e_h / math.sqrt(m_h) and ds < e_s / math.sqrt(m_s)
        chi_le_eta = chi_res.chi <= eta
        out.append(
            (
                start + i,
                dh,
                ds,
                eta,
                chi_res.chi,
                pe.n_eps,
                sol.ground_energy,
                sol.cond_s,
                (check, norms_under, chi_le_eta, chi_res.dim_mismatch),
            )
        )
    return out


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


def run_error_norm_ensemble(cfg: ExperimentConfig) -> DriverResult:
    """Sampled error-matrix norms against the expected-norm bound.

    Emits per-trial rows, one summary per (kind, n, M) cell, and one fitted
    log-log slope row per (kind, M) across the n grid.
    """
    system = build_system(cfg)
    noise = noise_from(cfg)
    ranges, workers = _chunk_layout(cfg)
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
                fn = partial(_norms_chunk, (targets, plan, noise, kind, expected))
                norms = np.concatenate(_map_chunks(fn, ranges, workers))
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

    Eigenvalues are reported descending (index 1 = largest).  weyl_fraction
    is the fraction of trials with |perturbed - exact| <= ||Delta_S|| for that
    index; the threshold column carries eps = e_S / sqrt(M_S).
    """
    system = build_system(cfg)
    noise = noise_from(cfg)
    ranges, workers = _chunk_layout(cfg)
    n = cfg.n_list[0]
    targets = targets_for(system, n, "toeplitz")
    _, s_exact = expected_pair(targets, cfg.hardware_lambda)
    exact_vals = np.linalg.eigvalsh(s_exact)[::-1]
    rows: list[dict] = []
    for m in cfg.m_list:
        plan_s = allocate_toeplitz(m, n, is_h=False)
        fn = partial(_spectrum_chunk, (targets, plan_s, noise, s_exact))
        parts = _map_chunks(fn, ranges, workers)
        vals = np.concatenate([p[0] for p in parts])  # (T, n) descending
        ds_norms = np.concatenate([p[1] for p in parts])
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
    system = build_system(cfg)
    noise = noise_from(cfg)
    ranges, workers = _chunk_layout(cfg)
    n = cfg.n_list[0]
    e0 = system.e0_sector
    rows: list[dict] = []
    for construction in cfg.constructions:
        targets = targets_for(system, n, construction)
        h_exact, s_exact = expected_pair(targets, cfg.hardware_lambda)
        ideal = {}
        for k in range(1, n + 1):
            try:
                thr = top_k_thresholding(h_exact, s_exact, k)
            except (EmptyBasisError, IllPosedError):
                ideal[k] = None
                continue
            energy = solve_gevp(thr.A, thr.B).ground_energy
            ideal[k] = abs(energy - e0) / abs(e0)
        for m in cfg.m_list:
            base = {"construction": construction, "n": n, "m_budget": m}
            try:
                m_h, m_s = split_budget(m, n, construction, system.beta_norm)
                plan_h = _plan_for("H", construction, m_h, n, targets.betas)
                plan_s = _plan_for("S", construction, m_s, n, targets.betas)
            except InfeasibleBudgetError:
                rows.append({**base, "row_kind": "skipped"})
                continue
            eps = bounds.optimal_epsilon(n, m_s)
            fn = partial(_sweep_chunk, (targets, plan_h, plan_s, noise, eps))
            parts = _map_chunks(fn, ranges, workers)
            sweep = np.concatenate([p[0] for p in parts])  # (T, n)
            eps_energy = np.concatenate([p[1] for p in parts])
            eps_dims = np.concatenate([p[2] for p in parts])
            for k in range(1, n + 1):
                rel = _rel_errors(sweep[:, k - 1], e0)
                rows.append(
                    {
                        **base,
                        "row_kind": "sweep",
                        "k": k,
                        "trials_used": int(np.sum(np.isfinite(rel))),
                        "rms_rel_error": _rms(rel),
                        "mean_rel_error": _mean(rel),
                        "ideal_rel_error": ideal[k],
                        "epsilon": eps,
                    }
                )
            rel = _rel_errors(eps_energy, e0)
            rows.append(
                {
                    **base,
                    "row_kind": "epsilon_rule",
                    "trials_used": int(np.sum(np.isfinite(rel))),
                    "rms_rel_error": _rms(rel),
                    "mean_rel_error": _mean(rel),
                    "mean_n_eps": float(np.mean(eps_dims)),
                    "epsilon": eps,
                }
            )
    return write_csv(cfg.out, SWEEP_COLUMNS, rows, cfg)


def run_optimal_threshold_scan(cfg: ExperimentConfig) -> DriverResult:
    """Energy error of the threshold-rule solution across the (n, M) grid."""
    system = build_system(cfg)
    noise = noise_from(cfg)
    ranges, workers = _chunk_layout(cfg)
    e0 = system.e0_sector
    rows: list[dict] = []
    for construction in cfg.constructions:
        for n in cfg.n_list:
            targets = targets_for(system, n, construction)
            for m in cfg.m_list:
                base = {"construction": construction, "n": n, "m_budget": m}
                try:
                    m_h, m_s = split_budget(m, n, construction, system.beta_norm)
                    plan_h = _plan_for("H", construction, m_h, n, targets.betas)
                    plan_s = _plan_for("S", construction, m_s, n, targets.betas)
                except InfeasibleBudgetError:
                    rows.append({**base, "trials_used": 0})
                    continue
                eps = bounds.optimal_epsilon(n, m_s)
                fn = partial(_scan_chunk, (targets, plan_h, plan_s, noise, eps))
                parts = _map_chunks(fn, ranges, workers)
                energies = np.concatenate([p[0] for p in parts])
                dims = np.concatenate([p[1] for p in parts])
                rel = _rel_errors(energies, e0)
                used = np.isfinite(rel)
                rows.append(
                    {
                        **base,
                        "m_h": m_h,
                        "m_s": m_s,
                        "epsilon": eps,
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
    system = build_system(cfg)
    noise = noise_from(cfg)
    ranges, workers = _chunk_layout(cfg)
    rows: list[dict] = []
    for construction in cfg.constructions:
        for n in cfg.n_list:
            targets = targets_for(system, n, construction)
            h_exact, s_exact = expected_pair(targets, cfg.hardware_lambda)
            full = basis_thresholding(h_exact, s_exact, cfg.epsilon_ideal)
            e0_full = solve_gevp(full.A, full.B).ground_energy
            for m in cfg.m_list:
                base = {"construction": construction, "n": n, "m_budget": m}
                try:
                    m_h, m_s = split_budget(m, n, construction, system.beta_norm)
                    plan_h = _plan_for("H", construction, m_h, n, targets.betas)
                    plan_s = _plan_for("S", construction, m_s, n, targets.betas)
                except InfeasibleBudgetError:
                    rows.append({**base, "row_kind": "skipped"})
                    continue
                eps = bounds.optimal_epsilon(n, m_s)
                e_h, e_s = bounds.norm_bound_pair(n, system.beta_norm, construction)
                ex = basis_thresholding(h_exact, s_exact, eps)
                sol_ex = solve_gevp(ex.A, ex.B)
                lam_min = float(np.min(ex.b_diagonal))
                bound = bounds.sampling_perturbation_bound(
                    ex.n_eps, e_h, e_s, m_h + m_s, sol_ex.d0, sol_ex.ground_energy
                )
                d0_inv_upper = bounds.crawford_inverse_upper(
                    eps, sol_ex.ground_energy
                )
                args = (
                    targets, plan_h, plan_s, noise, eps, h_exact, s_exact,
                    ex, sol_ex, lam_min, e_h, e_s, m_h, m_s,
                )
                parts = _map_chunks(partial(_perturbation_chunk, args), ranges, workers)
                qualifying = 0
                satisfied_count = 0
                for part in parts:
                    for item in part:
                        trial, dh, ds, eta, chi, n_eps, energy, cond_s, checks = item
                        if checks is None:
                            flags = {k: "unknown" for k in ("chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims")}
                            record = TrialRecord(
                                trial=trial, seed=cfg.seed, n=n, n_eps=None,
                                m_h=m_h, m_s=m_s, dh_norm=dh, ds_norm=ds,
                                eta=eta, chi=None, e0_sector=system.e0_sector,
                                e0_full=e0_full, e0_reduced=sol_ex.ground_energy,
                                e0_sampled=None, d0=sol_ex.d0,
                                d0_inv_upper=d0_inv_upper, cond_s=None,
                                bound=bound, observed=None, flags=flags,
                            )
                            qualifies = False
                            satisfied = None
                        else:
                            check, norms_under, chi_le_eta, mismatch = checks
                            flags = {
                                "chi_small": "holds" if check.err_assumption else "violated",
                                "angle_gap": "holds" if check.gap_assumption else "violated",
                                "norms_under": "holds" if norms_under else "violated",
                                "chi_le_eta": "holds" if chi_le_eta else "violated",
                                "dims": "violated" if mismatch else "holds",
                            }
                            observed = abs(energy - sol_ex.ground_energy)
                            qualifies = (
                                all(v == "holds" for v in flags.values())
                                and bound is not None
                                and not check.degenerate
                            )
                            satisfied = (
                                observed <= bound + _BOUND_SLACK if qualifies else None
                            )
                            record = TrialRecord(
                                trial=trial, seed=cfg.seed, n=n, n_eps=n_eps,
                                m_h=m_h, m_s=m_s, dh_norm=dh, ds_norm=ds,
                                eta=eta, chi=chi, e0_sector=system.e0_sector,
                                e0_full=e0_full, e0_reduced=sol_ex.ground_energy,
                                e0_sampled=energy, d0=sol_ex.d0,
                                d0_inv_upper=d0_inv_upper, cond_s=cond_s,
                                bound=bound, observed=observed, flags=flags,
                            )
                        if qualifies:
                            qualifying += 1
                            if satisfied:
                                satisfied_count += 1
                        rows.append(
                            {
                                **base,
                                "row_kind": "trial",
                                "m_h": record.m_h,
                                "m_s": record.m_s,
                                "trial": record.trial,
                                "seed": record.seed,
                                "n_eps": record.n_eps,
                                "dh_norm": record.dh_norm,
                                "ds_norm": record.ds_norm,
                                "eta": record.eta,
                                "chi": record.chi,
                                "e0_sector": record.e0_sector,
                                "e0_full": record.e0_full,
                                "e0_reduced": record.e0_reduced,
                                "e0_sampled": record.e0_sampled,
                                "d0": record.d0,
                                "d0_inv_upper": record.d0_inv_upper,
                                "cond_s": record.cond_s,
                                "bound": record.bound,
                                "observed": record.observed,
                                "chi_small": record.flags["chi_small"],
                                "angle_gap": record.flags["angle_gap"],
                                "norms_under": record.flags["norms_under"],
                                "chi_le_eta": record.flags["chi_le_eta"],
                                "dims_matched": record.flags["dims"],
                                "qualifies": qualifies,
                                "satisfied": satisfied,
                            }
                        )
                rows.append(
                    {
                        **base,
                        "row_kind": "cell_summary",
                        "m_h": m_h,
                        "m_s": m_s,
                        "bound": bound,
                        "qualifying_trials": qualifying,
                        "satisfaction_rate": (
                            satisfied_count / qualifying if qualifying else None
                        ),
                    }
                )
    return write_csv(cfg.out, PERTURBATION_COLUMNS, rows, cfg)
