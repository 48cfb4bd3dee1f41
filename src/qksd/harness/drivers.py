"""Experiment drivers: system setup, trial ensembles, aggregation, CSV output.

Each driver maps an ExperimentConfig to one CSV.  A job (`_jobs`) is the
cells of one (kind, construction), one per n of the config, each holding
every budget M of the config and the sampling moments of its shot plans.
The driver takes its jobs in order, one at a time (`_sampled`): a job's
chunk runs over contiguous trial blocks (`_trial_columns`), inline at one
worker, else in one forked child per contiguous slice of the job's trials,
all collected before the job's rows are built and the next job is read.  A
block holds as many trials as fit a fixed budget (`_BLOCK_BYTES`) at the
bytes a trial of the job's largest cell really holds (`_trial_bytes`): its
draws, and the (n, n) stacks its driver's columns hold at their peak, at
their dtype; a slice's last block holds the rest.  A job's peak memory
depends on its block, not on `trials`, and since every trial's random
stream is keyed by its absolute trial index and every result is per trial,
any block layout and worker count give byte-identical files.

A block draws each gaussian matrix's normals once for its whole job: the
stream key is (seed, trial, matrix), with no n and no M, so a cell's normals
are the leading columns of the draw of the job's widest cell
(`sampling.draw_shared`).  Each cell reuses them for each budget, one
budget's stacks at a time; binomial counts are drawn per cell and budget
(`sampling.Sampler`).  Its chunk returns each cell's feasible budgets'
per-trial arrays in turn, which `_trial_columns` joins column by column;
only the drivers build rows, from a generator, and `write_csv` writes them
as they come, so no run holds its rows.  Error-norms and perturbation-bound
hand over each budget's trial rows as one block of columns.  No driver
checks its values for nan or infinity: `write_csv` refuses them.  The
sampled-pair chunks solve a block's reduced pairs as stacks, for their
eigenvalues only: the threshold rule in one batched solve per retained
dimension (`gevp.top_k_ground_energies`), the retained-dimension sweep from
one projection of each trial onto all n directions (`gevp.top_k_sweep`).
Perturbation-bound takes chi and the assumption flags from the same stacks.
Toeplitz stacks, sampled and exact, come in real form
(`sampling.Sampler.stack`, `sampling.expected_pair`), and every overlap
eigendecomposition of a pair, sampled or exact, goes through
`gevp.overlap_eigh`, which gives S's eigenpairs in kept order, largest
first, with its eigenvectors in H's basis.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .. import bounds
from ..errors import ConfigError, IllPosedError, InfeasibleBudgetError, ResourceLimitError
from ..evolution import Spectrum, diagonalize, hartree_fock_state, sector_indices
from ..gevp import (
    basis_thresholding,
    chi_between_thresholds,
    eigenangle_check,
    overlap_eigh,
    solve_gevp,
    top_k_ground_energies,
    top_k_sweep,
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
    Sampler,
    ShotPlan,
    allocate_nontoeplitz,
    allocate_toeplitz,
    draw_shared,
    expected_pair,
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
    write_csv,
)

_WEYL_SLACK = 1e-12
_BOUND_SLACK = 1e-9
_E0_TOL = 1e-12  # |E0| below this fraction of sum_j beta_j counts as zero
# An exact overlap eigenvalue at most this times n lambda_max(S) is rounding
# noise past S's rank (`_past_rank`): it is written as na, and so is the ideal
# energy of the exact pair kept to it.
_RANK_FLOOR = np.finfo(float).eps
# Bytes (`_trial_bytes`) one trial block holds.  Traced around its chunk, a
# full block allocates 0.60 to 1.13 times its count, on every driver and in
# either noise mode (README), so this budget bounds a block's memory.
_BLOCK_BYTES = 1 << 20


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
    ref = hartree_fock_state(cfg.sites, cfg.t_hop, basis)
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


def targets_for(system: SystemBundle, n: int, construction: str) -> MeasurementTargets:
    return measurement_targets(
        system.spectrum, system.partition, system.id_coeff, system.ref_state,
        KrylovConfig(n=n, dt=system.dt), construction, system.basis,
    )


def noise_from(cfg: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(mode=cfg.mode, hardware_lambda=cfg.hardware_lambda, rng_seed=cfg.seed)


def _plan_for(kind: str, construction: str, m: int, n: int, betas: np.ndarray) -> ShotPlan:
    if kind == "S":
        return allocate_toeplitz(m, n, is_h=False)
    if construction == "toeplitz":
        return allocate_toeplitz(m, n, is_h=True, betas=betas)
    return allocate_nontoeplitz(m, n, betas)


# ---------------------------------------------------------------------------
# Deterministic chunked execution
# ---------------------------------------------------------------------------


def __getattr__(name: str):
    """ProcessPoolExecutor, imported when it is first asked for.  No run opens
    a pool; only the benchmark's tracer (bench/spans.py) asks for the name,
    to count pools.  ROADMAP item 2 Step B deletes it with the tracer."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _chunk_ranges(trials: int, parts: int) -> list[tuple[int, int]]:
    """(start, count) of each of `parts` contiguous, near-equal runs of trials."""
    parts = max(1, min(parts, trials))
    base, rem = divmod(trials, parts)
    starts = [i * base + min(i, rem) for i in range(parts + 1)]
    return [(a, b - a) for a, b in zip(starts, starts[1:]) if b > a]


def _worker_count(requested: int, trials: int, cpus: Optional[int]) -> int:
    """Processes worth starting: at most one per CPU and one per trial."""
    return max(1, min(requested, trials, cpus or 1))


def _usable_cpus() -> Optional[int]:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count()


def _trial_columns(cfg: ExperimentConfig, fn: Callable, trial_bytes: int) -> list:
    """fn((start, count)) over the run's trial blocks, each a tuple of
    per-trial arrays, joined column by column.  Each of cfg.workers
    contiguous slices of the trials is cut into blocks of as many trials of
    trial_bytes as fit in _BLOCK_BYTES (at least one), its last block holding
    the rest.  One worker runs the blocks inline; W workers fork a child per
    slice (Linux only: `_run` refuses W > 1 elsewhere) and collect them in
    slice order (`_forked`).  The parent runs no slice: it would grow the
    heap later children inherit."""
    per_block = max(1, _BLOCK_BYTES // trial_bytes)
    slices = [
        [(s, min(per_block, start + count - s)) for s in range(start, start + count, per_block)]
        for start, count in _chunk_ranges(cfg.trials, cfg.workers)
    ]
    parts = _forked(fn, slices) if cfg.workers > 1 else [fn(r) for r in slices[0]]
    return _joined(parts)


def _forked(fn: Callable, slices: list) -> list:
    """The results of fn over each slice's blocks, in order, from a child
    forked per slice (`_map_chunks`) and collected in slice order: the lowest
    slice's error raises first.  A child still running when another raises,
    or a fork is refused, is killed and reaped, so no child outlives the job."""
    running: list[_Child] = []
    try:
        for blocks in slices:
            running.append(_map_chunks(fn, blocks))
        parts = []
        while running:
            parts.extend(running.pop(0).result())  # off the list: result() reaps it
        return parts
    finally:
        for child in running:
            child.reap(kill=True)


def _joined(parts: list) -> list:
    """The blocks' results joined column by column, emptying `parts`: each
    column's blocks are freed once it is joined."""
    columns = [list(column) for column in zip(*parts)]
    parts.clear()
    for i, blocks in enumerate(columns):
        columns[i] = np.concatenate(blocks)
    return columns


class _Child(NamedTuple):
    """A forked child (`_map_chunks`) and its pipe's read end."""

    pid: int
    pipe: BinaryIO

    def result(self) -> list:
        """The child's block results, unpickled as they stream in, once it is
        reaped.  Its chunk's exception raises here, noted with the child's
        traceback on Python 3.11 and later, as does a RuntimeError naming a
        child that sent nothing or was cut off."""
        try:
            with self.pipe:
                value = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # nothing sent, or a cut-off pickle
            value = None
        finally:
            code = self.reap()
        if code < 0:
            raise RuntimeError(f"child {self.pid} was killed by signal {-code}")
        if code or value is None:
            raise RuntimeError(f"child {self.pid} exited with status {code}")
        if isinstance(value, tuple):  # (the exception, its traceback in the child)
            error, trace = value
            if sys.version_info >= (3, 11):
                error.add_note(trace)
            raise error
        return value

    def reap(self, kill: bool = False) -> int:
        """Its exit code once it ends (killed first if kill), or minus its signal."""
        if kill:
            from signal import SIGKILL  # only a run that raises kills its children

            self.pipe.close()
            os.kill(self.pid, SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _map_chunks(fn: Callable, ranges: Sequence[tuple[int, int]]) -> _Child:
    """Fork a child that pickles [fn(r) per trial block r, in order] into a
    pipe, or the exception that stopped it (a RuntimeError with its repr if it
    does not pickle) with its formatted traceback, which the parent attaches
    as a note on Python 3.11 and later.  The child inherits fn's arguments
    copy-on-write, so nothing is pickled on the way in.  A refused fork is a
    ResourceLimitError."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise ResourceLimitError(f"cannot fork a trial child: {exc}") from exc
    if pid:
        os.close(write_fd)
        return _Child(pid, open(read_fd, "rb"))
    code = 1
    try:  # the child, which never returns
        try:
            sent = pickle.dumps([fn(r) for r in ranges], pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            from traceback import format_exc  # only a failing child formats one

            trace = format_exc()
            try:
                pickle.loads(sent := pickle.dumps((exc, trace), pickle.HIGHEST_PROTOCOL))
            except Exception:
                sent = pickle.dumps((RuntimeError(repr(exc)), trace), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(sent)
        code = 0
    finally:
        os._exit(code)


def _past_rank(descending: np.ndarray, n: int) -> np.ndarray:
    """Where an exact overlap spectrum, sorted descending, is rounding noise:
    at most n eps_mach lambda_max(S)."""
    return descending <= n * _RANK_FLOOR * descending[0]


def _spec_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a Hermitian (T, n, n) stack."""
    return np.abs(np.linalg.eigvalsh(stack)).max(axis=1)


# ---------------------------------------------------------------------------
# Cells and their trial chunks
# ---------------------------------------------------------------------------


class _Budget(NamedTuple):
    """One budget M of a cell: its shares and threshold, or why it is infeasible."""

    m: int
    m_h: int = 0
    m_s: int = 0
    eps: float = math.nan  # threshold e_S / sqrt(M_S)
    note: str = ""  # the InfeasibleBudgetError's message


class _Cell(NamedTuple):
    """A (construction, n) cell: its exact pair, its budgets in config order,
    and per sampled matrix a Sampler over the feasible ones, which holds the
    moments its trials need in place of the targets' fragment overlaps.
    kind is what its trials sample: "H", "S", or "HS", the pair, which splits
    each budget between them."""

    kind: str
    construction: str
    n: int
    h_exact: np.ndarray
    s_exact: np.ndarray
    budgets: tuple[_Budget, ...]
    feasible: tuple[_Budget, ...]
    samplers: dict[str, Sampler]


def _jobs(
    cfg: ExperimentConfig, system: SystemBundle, kinds: Sequence[tuple[str, str]] = ()
) -> Iterator[tuple[_Cell, ...]]:
    """One job per (kind, construction), in config order, by default a pair
    ("HS") per construction: a tuple of its cells, one per n of the config,
    built before the next job is read.  Each (construction, n)'s targets are
    built once and held until the last cell that takes them: error-norms' S
    and Toeplitz H cells share them."""
    noise = noise_from(cfg)
    kinds = kinds or [("HS", c) for c in cfg.constructions]
    takers = Counter((construction, n) for _, construction in kinds for n in cfg.n_list)
    held = {}  # targets by (construction, n) for the cells still to take them
    for kind, construction in kinds:
        job = []
        for n in cfg.n_list:
            key = construction, n
            targets = held.pop(key, None) or targets_for(system, n, construction)
            takers[key] -= 1
            if takers[key]:
                held[key] = targets
            budgets, plans = [], []  # plans by matrix per feasible budget
            for m in cfg.m_list:
                try:
                    shares = (m, m)
                    if kind == "HS":
                        shares = split_budget(m, n, construction, system.beta_norm)
                    plans.append({
                        z: _plan_for(z, construction, share, n, targets.betas)
                        for z, share in zip("HS", shares)
                        if z in kind
                    })
                except InfeasibleBudgetError as exc:
                    budgets.append(_Budget(m, note=str(exc)))
                    continue
                eps = bounds.optimal_epsilon(n, shares[1])
                budgets.append(_Budget(m, *shares, eps=eps))
            samplers = {
                z: Sampler(targets, [by_matrix[z] for by_matrix in plans], noise)
                for z in kind
                if plans
            }
            feasible = tuple(budget for budget in budgets if not budget.note)
            job.append(_Cell(
                kind, construction, n, *expected_pair(targets, cfg.hardware_lambda),
                tuple(budgets), feasible, samplers,
            ))
        yield tuple(job)


def _trial_bytes(cell: _Cell, stacks: int) -> int:
    """Bytes one trial of a cell holds in a block.  Per sampled matrix, its
    draws: a float per filled (element, configuration) in gaussian mode, the
    job's shared draw of which the cell takes a view, or in binomial mode a
    complex estimate per element, its fragments reduced a trial at a time.
    Then `stacks` (n, n) stacks, each at its dtype: 8 bytes an entry in real
    form, 16 where the cell samples the elementwise H, whose stacks are
    complex.  `stacks` is set per driver from tracemalloc of its columns at
    the shipped configs, with the stacks they are handed: they peak at 1.1 to
    2.0 stacks for error-norms (counted as 2), 1.2 for singular-spectrum (2),
    3.2 to 3.6 for optimal-threshold (4), 7.2 for threshold-sweep (7) and
    3.7 for perturbation-bound (5: at 4, the benchmark's L = 5 chain's
    blocks would allocate up to 1.37 times their count).
    A job's blocks are sized from its largest cell's count: its other cells
    run in the same blocks, on views of that cell's draws."""
    draws = sum(
        8 * s.cols.size if s.gaussian else 16 * len(s.elements)
        for s in cell.samplers.values()
    )
    entry = 16 if cell.construction == "nontoeplitz" and "H" in cell.kind else 8
    return draws + stacks * entry * cell.n * cell.n


def _sampled(
    cfg: ExperimentConfig, jobs: Iterable[tuple[_Cell, ...]], columns_of: Callable,
    stacks: int, extra=lambda cell: (),
) -> Iterator[tuple]:
    """(args, budget, columns) per budget of each cell of the jobs, in config
    order: args = (cell, *extra(cell)), and columns the budget's columns_of
    over the cell's trials, None if infeasible.  A job with a sampled matrix
    runs its chunk (`_per_job`) over trial blocks sized from its largest
    cell's `_trial_bytes`, with `stacks` the (n, n) stacks columns_of holds
    (`_trial_columns`); a job is read once the previous job's last budget
    has been taken."""
    for cells in jobs:
        job = tuple((cell, *extra(cell)) for cell in cells)
        shares = iter(())
        if any(cell.samplers for cell in cells):
            trial_bytes = max(_trial_bytes(cell, stacks) for cell in cells)
            columns = _trial_columns(cfg, partial(_per_job, columns_of, job), trial_bytes)
            width = len(columns) // sum(len(cell.feasible) for cell in cells)
            shares = iter([columns[i : i + width] for i in range(0, len(columns), width)])
            del columns
        for args in job:
            for budget in args[0].budgets:
                yield args, budget, None if budget.note else next(shares)
        del shares  # free the job's results before the next job runs


def _per_job(columns_of: Callable, job: tuple, rng: tuple[int, int]) -> tuple:
    """A trial chunk: draw the block (start, count) once per sampled matrix
    for all of the job's cells (`sampling.draw_shared`), then return, cell by
    cell, columns_of(args, stacks, i) for each feasible budget i of the cell
    in turn, where stacks maps "H" and "S" to the cell's stacks at budget i,
    held for that call alone."""
    start, count = rng
    draws = {}  # per matrix, an iterator over its cells' draws
    for z in "HS":
        samplers = [args[0].samplers[z] for args in job if z in args[0].samplers]
        if samplers:
            draws[z] = iter(draw_shared(samplers, count, start))
    columns = []
    for args in job:
        samplers = args[0].samplers
        taken = {z: next(draws[z]) for z in samplers}
        for i in range(len(args[0].feasible)):
            columns.extend(
                columns_of(args, {z: s.stack(taken[z], i) for z, s in samplers.items()}, i)
            )
    return tuple(columns)


def _sampled_eigh(stacks: dict, eps: float):
    """A block's sampled H~ and S~ stacks, taken out of `stacks` so that the
    caller alone holds them, S~'s eigenpairs in kept order with its
    eigenvectors in H~'s basis (`gevp.overlap_eigh`), and each trial's n_eps
    under the threshold rule (0 if nothing survives): its first n_eps
    directions, as basis_thresholding keeps them.
    """
    h_stack, s_stack = stacks.pop("H"), stacks.pop("S")
    vals, vecs = overlap_eigh(h_stack, s_stack)
    dims = np.count_nonzero(vals > eps, axis=1)
    return h_stack, s_stack, vals, vecs, dims


def _norm_columns(args, stacks, i):
    """The spectral norm of each trial's sampled-minus-expected matrix."""
    (cell,) = args
    (stack,) = stacks.values()
    stack -= cell.s_exact if cell.kind == "S" else cell.h_exact
    return (_spec_norms(stack),)


def _spectrum_columns(args, stacks, i):
    """Each trial's S~ eigenvalues, descending, and ||S~ - S||."""
    cell = args[0]
    stack = stacks["S"]
    vals = np.linalg.eigvalsh(stack)[:, ::-1]
    stack -= cell.s_exact
    return vals, _spec_norms(stack)


def _sweep_columns(args, stacks, i):
    """(top-k energies for k = 1..n, n_eps) per trial."""
    h_stack, s_stack, vals, vecs, dims = _sampled_eigh(stacks, args[0].feasible[i].eps)
    del s_stack  # S~ is not needed past its eigendecomposition
    return top_k_sweep(h_stack, vals, vecs), dims


def _scan_columns(args, stacks, i):
    """(energy, n_eps) per trial under the threshold rule; (nan, 0) if nothing survives."""
    h_stack, s_stack, vals, vecs, dims = _sampled_eigh(stacks, args[0].feasible[i].eps)
    del s_stack  # S~ is not needed past its eigendecomposition
    return top_k_ground_energies(h_stack, vals, vecs, dims), dims


def _perturbation_columns(args, stacks, i):
    """Per trial: dH and dS norms, n_eps, chi, e0_sampled, cond_s and the
    chi_small and angle_gap flags, all from the block's stacks.

    chi, e0_sampled and cond_s are nan, and both flags False, where n_eps = 0.
    """
    cell, exact = args[:2]
    budget = cell.feasible[i]
    ex, sol_ex = exact[budget.m]
    h_stack, s_stack, vals, vecs, dims = _sampled_eigh(stacks, budget.eps)
    energies = top_k_ground_energies(h_stack, vals, vecs, dims)
    chis = chi_between_thresholds(ex, h_stack, vals, vecs, dims)
    chi_small, angle_gap = eigenangle_check(sol_ex, chis, float(np.min(ex.b_diagonal)))
    smallest_kept = vals[np.arange(len(dims)), np.maximum(dims, 1) - 1]
    cond_s = np.divide(
        vals[:, 0], smallest_kept, out=np.full(len(dims), math.nan), where=dims > 0
    )
    h_stack -= cell.h_exact
    s_stack -= cell.s_exact
    return (
        _spec_norms(h_stack),
        _spec_norms(s_stack),
        dims, chis, energies, cond_s, chi_small, angle_gap,
    )


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def _rel_errors(energies: np.ndarray, e0: float) -> np.ndarray:
    return np.abs(energies - e0) / abs(e0)


def _error_stats(rel: np.ndarray) -> dict:
    """trials_used, rms_rel_error and mean_rel_error over the finite entries
    of rel (the trials solved), None where there is none."""
    finite = rel[np.isfinite(rel)]
    if not finite.size:
        return {"trials_used": 0, "rms_rel_error": None, "mean_rel_error": None}
    return {
        "trials_used": finite.size,
        "rms_rel_error": float(np.sqrt(np.mean(finite**2))),
        "mean_rel_error": float(np.mean(finite)),
    }


def _rule_stats(rel: np.ndarray, dims: np.ndarray) -> dict:
    """_error_stats of the threshold rule's errors, and mean_n_eps over every
    trial: the rule's dimension is defined for each, solved or not."""
    return {**_error_stats(rel), "mean_n_eps": float(np.mean(dims))}


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _run(
    cfg: ExperimentConfig,
    columns: Sequence[str],
    rows_of: Callable[[ExperimentConfig, SystemBundle], Iterable[dict]],
) -> DriverResult:
    """Fix the worker count (`_worker_count`), build the system, then write
    rows_of(cfg, system) to cfg.out as the rows come.  A config error, a
    worker count above one off Linux included, raises before any file is
    opened; a run that raises later leaves no file and no child.  The count
    is not hashed (`records._HASH_EXEMPT`), so it moves no header byte."""
    cfg = replace(cfg, workers=_worker_count(cfg.workers, cfg.trials, _usable_cpus()))
    if cfg.workers > 1 and sys.platform != "linux":
        raise ConfigError(f"workers > 1 forks, on Linux only, not on {sys.platform}")
    system = build_system(cfg)
    count = write_csv(cfg.out, columns, rows_of(cfg, system), cfg)
    return DriverResult(path=cfg.out, row_count=count)


def run_error_norm_ensemble(cfg: ExperimentConfig) -> DriverResult:
    """Sampled error-matrix norms against the expected-norm bound.

    Emits per-trial rows, one summary per (kind, n, M), and one fitted
    log-log slope row per (kind, M) across the n grid.
    """
    return _run(cfg, ERROR_NORM_COLUMNS, _error_norm_rows)


def _error_norm_rows(cfg: ExperimentConfig, system: SystemBundle) -> Iterator[dict]:
    """Per budget of each cell, its trial rows as one column block and its
    summary, or a skipped row; then the slopes."""
    slope_points: dict[tuple[str, str, int], list[tuple[int, float]]] = {}
    kinds = [("S", "toeplitz")] + [("H", c) for c in cfg.constructions]
    jobs = _jobs(cfg, system, kinds)
    for (cell,), budget, share in _sampled(cfg, jobs, _norm_columns, stacks=2):
        kind, construction, n, m = cell.kind, cell.construction, cell.n, budget.m
        base = {"construction": construction, "kind": kind, "n": n, "m_budget": m}
        if share is None:
            yield {**base, "row_kind": "skipped", "note": budget.note}
            continue
        (norms,) = share
        v_z = 1.0 if kind == "S" else system.beta_norm
        bound = bounds.error_norm_bound(n, v_z, construction) / math.sqrt(m)
        under = norms < bound
        block = {"trial": np.arange(len(norms)), "norm": norms, "under_bound": under}
        yield {**base, "row_kind": "trial", "bound": bound, **block}  # one row a trial
        mean_norm = float(np.mean(norms))
        yield {
            **base,
            "row_kind": "cell_summary",
            "bound": bound,
            "mean_norm": mean_norm,
            "frac_under": float(np.mean(under)),
        }
        slope_points.setdefault((kind, construction, m), []).append((n, mean_norm))
    if not slope_points:
        raise InfeasibleBudgetError("every (kind, n, M) cell was infeasible")
    for (kind, construction, m), points in slope_points.items():
        if len(points) < 2:
            continue
        ns = np.log([p[0] for p in points])
        means = np.log([p[1] for p in points])
        yield {
            "row_kind": "slope",
            "construction": construction,
            "kind": kind,
            "m_budget": m,
            "slope": float(np.polyfit(ns, means, 1)[0]),
        }


def run_singular_spectrum(cfg: ExperimentConfig) -> DriverResult:
    """Exact overlap spectrum next to the sampled spectra, per budget.

    The rows have no n column, so the config must list one Krylov order.
    Eigenvalues are reported descending (index 1 = largest); an exact one at
    rounding level, past S's rank (`_past_rank`), is na.  weyl_fraction
    is the fraction of trials with |perturbed - exact| <= ||Delta_S|| for that
    index; the threshold column carries eps = e_S / sqrt(M_S).
    """
    if len(cfg.n_list) > 1:
        raise ConfigError(
            f"singular-spectrum takes one Krylov order, got n = {list(cfg.n_list)}: "
            "its rows have no n column"
        )
    return _run(cfg, SPECTRUM_COLUMNS, _spectrum_rows)


def _spectrum_rows(cfg: ExperimentConfig, system: SystemBundle) -> Iterator[dict]:
    """n rows per budget; an infeasible budget raises when its turn comes."""

    def exact_of(cell: _Cell) -> tuple[np.ndarray, np.ndarray]:
        """The exact overlap spectrum, descending, and where it is past S's rank."""
        exact_vals = np.linalg.eigvalsh(cell.s_exact)[::-1]
        return exact_vals, _past_rank(exact_vals, cell.n)

    jobs = _jobs(cfg, system, [("S", "toeplitz")])
    budgets = _sampled(cfg, jobs, _spectrum_columns, stacks=2, extra=exact_of)
    for (cell, exact_vals, noise), budget, share in budgets:
        if share is None:
            raise InfeasibleBudgetError(budget.note)
        vals, ds_norms = share  # vals: (T, n) descending
        dev_ok = np.abs(vals - exact_vals) <= ds_norms[:, None] + _WEYL_SLACK
        for i in range(cell.n):
            yield {
                "m_budget": budget.m,
                "index": i + 1,
                "exact_value": None if noise[i] else float(exact_vals[i]),
                "mean_value": float(np.mean(vals[:, i])),
                "std_value": float(np.std(vals[:, i])),
                "epsilon": budget.eps,
                "weyl_fraction": float(np.mean(dev_ok[:, i])),
            }


def run_threshold_sweep(cfg: ExperimentConfig) -> DriverResult:
    """Energy error versus forced retained dimension, with the threshold rule.

    Sweep rows force the top-k overlap directions for k = 1..n; the
    epsilon_rule row applies eps = e_S / sqrt(M_S) per trial.  Errors are
    relative to the exact sector ground energy.
    """
    return _run(cfg, SWEEP_COLUMNS, _sweep_rows)


def _sweep_rows(cfg: ExperimentConfig, system: SystemBundle) -> Iterator[dict]:
    e0 = system.e0_sector

    def ideal_of(cell: _Cell) -> tuple[np.ndarray]:
        """Exact top-k errors, k = 1..n; nan where the k-th kept eigenvalue
        is rounding noise (at most n eps_mach lambda_max(S))."""
        h, s = cell.h_exact[None], cell.s_exact[None]
        vals, vecs = overlap_eigh(h, s)
        ideal = _rel_errors(top_k_sweep(h, vals, vecs)[0], e0)
        ideal[_past_rank(vals[0], cell.n)] = math.nan  # k-th kept at k - 1
        return (ideal,)

    for (cell, ideal), budget, share in _sampled(
        cfg, _jobs(cfg, system), _sweep_columns, stacks=7, extra=ideal_of
    ):
        base = {"construction": cell.construction, "n": cell.n, "m_budget": budget.m}
        if share is None:
            yield {**base, "row_kind": "skipped"}
            continue
        sweep, eps_dims = share
        for k in range(1, cell.n + 1):
            rel = _rel_errors(sweep[:, k - 1], e0)
            yield {
                **base,
                "row_kind": "sweep",
                "k": k,
                **_error_stats(rel),
                "ideal_rel_error": None if np.isnan(ideal[k - 1]) else float(ideal[k - 1]),
                "epsilon": budget.eps,
            }
        at_n_eps = sweep[np.arange(len(eps_dims)), eps_dims - 1]
        rel = _rel_errors(np.where(eps_dims > 0, at_n_eps, math.nan), e0)
        yield {
            **base,
            "row_kind": "epsilon_rule",
            **_rule_stats(rel, eps_dims),
            "epsilon": budget.eps,
        }


def run_optimal_threshold_scan(cfg: ExperimentConfig) -> DriverResult:
    """Energy error of the threshold-rule solution across the (n, M) grid."""
    return _run(cfg, SCAN_COLUMNS, _scan_rows)


def _scan_rows(cfg: ExperimentConfig, system: SystemBundle) -> Iterator[dict]:
    e0 = system.e0_sector
    jobs = _jobs(cfg, system)
    for (cell,), budget, share in _sampled(cfg, jobs, _scan_columns, stacks=4):
        base = {"construction": cell.construction, "n": cell.n, "m_budget": budget.m}
        if share is None:
            yield {**base, "trials_used": 0}
            continue
        energies, dims = share
        yield {
            **base,
            "m_h": budget.m_h,
            "m_s": budget.m_s,
            "epsilon": budget.eps,
            **_rule_stats(_rel_errors(energies, e0), dims),
            "e0_sector": e0,
        }


def run_perturbation_vs_bound(cfg: ExperimentConfig) -> DriverResult:
    """Per-trial perturbation accounting against the sampling bound.

    Every trial row records the raw and conjugated perturbation magnitudes,
    the assumption flags, the bound, and the observed deviation from the
    exact thresholded solution; each cell closes with a summary row holding
    the qualifying-trial count and satisfaction rate.
    """
    return _run(cfg, PERTURBATION_COLUMNS, _perturbation_rows)


def _exact_solutions(cell: _Cell, epsilon_ideal: float) -> tuple:
    """The exact pair thresholded at each feasible budget's eps and solved,
    (ex, sol_ex) by budget M, which the chunk takes too, and the exact pair's
    ground energy at epsilon_ideal (e0_full), where a budget is feasible."""
    if not cell.feasible:
        return {}, None
    exact = {}
    for budget in cell.feasible:
        ex = basis_thresholding(cell.h_exact, cell.s_exact, budget.eps)
        exact[budget.m] = ex, solve_gevp(ex.A, ex.B)
    full = basis_thresholding(cell.h_exact, cell.s_exact, epsilon_ideal)
    return exact, solve_gevp(full.A, full.B).ground_energy


def _perturbation_rows(cfg: ExperimentConfig, system: SystemBundle) -> Iterator[dict]:
    prepare = partial(_exact_solutions, epsilon_ideal=cfg.epsilon_ideal)
    jobs = _jobs(cfg, system)
    budgets = _sampled(cfg, jobs, _perturbation_columns, stacks=5, extra=prepare)
    for (cell, exact, e0_full), budget, share in budgets:
        base = {"construction": cell.construction, "n": cell.n, "m_budget": budget.m}
        if share is None:
            yield {**base, "row_kind": "skipped"}
            continue
        ex, sol_ex = exact[budget.m]
        e_h, e_s = bounds.norm_bound_pair(cell.n, system.beta_norm, cell.construction)
        bound = bounds.sampling_perturbation_bound(
            ex.n_eps, e_h, e_s, budget.m_h + budget.m_s, sol_ex.d0, sol_ex.ground_energy
        )
        dh, ds, dims, chis, energies, cond_s, chi_small, angle_gap = share
        solved = dims > 0
        ill = solved & ~np.isfinite(energies)
        if ill.any():  # as solve_gevp raises on an overflowing pair
            t = int(np.argmax(ill))
            raise IllPosedError(
                f"trial {t}: B^-1/2 A B^-1/2 is not finite (n_eps = {dims[t]})"
            )
        # math.hypot per trial: np.hypot differs from it in the last bit
        eta = np.array(list(map(math.hypot, dh.tolist(), ds.tolist())))
        limits = (e_h / math.sqrt(budget.m_h), e_s / math.sqrt(budget.m_s))
        holds = {
            "chi_small": chi_small,
            "angle_gap": angle_gap,
            "norms_under": (dh < limits[0]) & (ds < limits[1]),
            "chi_le_eta": chis <= eta,
            "dims_matched": dims == ex.n_eps,
        }
        observed = np.abs(energies - sol_ex.ground_energy)
        applies = bound is not None and not sol_ex.degenerate_lowest
        qualifies = np.all([solved, *holds.values()], axis=0) & applies
        ok = qualifies & (observed <= bound + _BOUND_SLACK) if applies else qualifies
        split = {**base, "m_h": budget.m_h, "m_s": budget.m_s}
        solved_only = {
            "n_eps": dims, "chi": chis, "e0_sampled": energies, "cond_s": cond_s,
            "observed": observed,
        }
        yield {  # one row a trial; an unsolved one (n_eps = 0) has no solve to judge
            **split,
            "row_kind": "trial",
            "seed": cfg.seed,
            "e0_sector": system.e0_sector,
            "e0_full": e0_full,
            "e0_reduced": sol_ex.ground_energy,
            "d0": sol_ex.d0,
            "d0_inv_upper": bounds.crawford_inverse_upper(budget.eps, sol_ex.ground_energy),
            "bound": bound,
            "trial": np.arange(len(dims)),
            "dh_norm": dh,
            "ds_norm": ds,
            "eta": eta,
            **{
                name: np.where(solved, np.where(flag, "holds", "violated"), "unknown")
                for name, flag in holds.items()
            },
            **{name: np.where(solved, column, None) for name, column in solved_only.items()},
            "qualifies": qualifies,
            "satisfied": np.where(qualifies, ok, None),
        }
        qualifying, satisfied = int(np.count_nonzero(qualifies)), int(np.count_nonzero(ok))
        yield {
            **split,
            "row_kind": "cell_summary",
            "bound": bound,
            "qualifying_trials": qualifying,
            "satisfaction_rate": satisfied / qualifying if qualifying else None,
        }
