"""Benchmark for the qksd Krylov sampling laboratory.

    python3 bench/run.py --workload norms|solve|chain|all [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it builds nothing and imports qksd
from the checkout's src/.  Every workload is a closed loop with one client:
one `qksd` driver invocation at a time, each in a fresh interpreter, repeated
for about --seconds seconds (at least four rounds).  Each output CSV is
checked (see check.py); the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Workloads, one per cost centre of the pipeline:

  norms  error-norms on configs/error_norms.conf, workers = 1.  The
         vectorized gaussian path: key hashing, normals, the stack SVD and a
         30k-row CSV.  No GEVP solve; a 5 ms system build.
  solve  threshold-sweep then optimal-threshold on their shipped configs,
         workers = 2.  About 37k thresholdings and GEVP solves, and the only
         workload that opens process pools.
  chain  perturbation-bound on bench/chain.conf: L = 5, 1024-dim dense
         operators, binomial noise.  The dense system build and the
         per-element PCG64 generators.

--seed replaces the seed of every config of the workload; without it the
shipped seeds are used.  End-to-end metrics (--trace 0) are medians over the
rounds:

  wall_s        spawn of the driver processes to the close of the last CSV,
                summed over the workload's invocations
  setup_s       interpreter start to the return of build_system, summed
  trials_per_s  sampled (cell, trial) pairs / (wall_s - setup_s)
  cpu_s         user + sys CPU of the drivers and their pool children
  peak_rss_mb   largest max RSS of a driver or any of its pool children

failed_frac (invocations that exit non-zero or fail the output check, over
those attempted) is printed with them and carried by `attempted`/`failed`.

--trace 1 alternates untraced and traced rounds at workers = 1, wraps the
layer functions from outside (spans.py), and reports per-layer self times and
counts, import times from `python -X importtime`, the pool metrics of a
traced round at the workload's own worker count, trace.overhead (traced over
untraced wall_s), and system-size scaling rows at L = 2..5.  It fails unless
the traced CSVs are byte-identical to the untraced ones and the layer self
times add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"

MIN_ROUNDS = 4
INVOCATION_TIMEOUT_S = 150
SCALE_SITES = (2, 3, 4, 5)
SCALE_SKIPPED = {
    6: "dense build takes about 140 s; waits for the sector-restricted build",
    7: "2L = 14 qubits hits DENSE_QUBIT_CAP; waits for the sector-restricted build",
}

# Children import qksd from this checkout only, and BLAS threads are pinned so
# that workers = 2 uses at most two cores.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Invocation:
    driver: str
    config: str  # relative to the checkout root
    workers: int

    @property
    def shipped_seed(self) -> int:
        return int(check.read_config(ROOT / self.config)["seed"])


WORKLOADS = {
    "norms": (Invocation("error-norms", "configs/error_norms.conf", 1),),
    "solve": (
        Invocation("threshold-sweep", "configs/threshold_sweep.conf", 2),
        Invocation("optimal-threshold", "configs/optimal_threshold.conf", 2),
    ),
    "chain": (Invocation("perturbation-bound", "bench/chain.conf", 1),),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"import.qksd_s": "s", "import.scipy_s": "s"}
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
    timed_and_counted = [
        "hamiltonian.build_hubbard_1d", "hamiltonian.sorted_insertion_partition",
        "hamiltonian.pauli_to_dense", "hamiltonian.fragment_dense",
        "evolution.diagonalize", "evolution.hartree_fock_state",
        "evolution.sector_ground_energy", "krylov.measurement_targets",
        "gevp.basis_thresholding", "gevp.top_k_thresholding", "gevp.solve_gevp",
        "gevp.chi_between_thresholds", "gevp.eigenangle_check",
    ]
    for name in timed_and_counted:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in (
        "sampling.split_budget", "sampling.allocate", "sampling.expected_pair",
        "sampling.sample_overlap_ensemble", "sampling.sample_hamiltonian_ensemble",
        "rngstream.stream_keys", "rngstream.normals", "rngstream.generator",
        "harness.build_system", "harness.spec_norms", "harness.write_csv",
        "harness.driver",
    ):
        units[f"{name}.self_s"] = "s"
    units.update({
        "sampling.trials_sampled": "count",
        "rngstream.keys": "count",
        "rngstream.stream_key.calls": "count",
        "rngstream.generator.calls": "count",
        "gevp.eigh_calls": "count",
        "gevp.thresholdings": "count",
        "gevp.useful_ratio": "ratio",
        "harness.csv_rows": "count",
        "harness.csv_bytes": "bytes",
        "harness.pools_opened": "count",
        "harness.map_chunks.wait_s": "s",
        "harness.cells": "count",
        "harness.cells_skipped": "count",
        "trace.overhead": "ratio",
    })
    for sites in SCALE_SITES:
        units[f"scale.L{sites}.build_s"] = "s"
        units[f"scale.L{sites}.rss_mb"] = "MB"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """An invocation failed: non-zero exit, missing marks or a failed check."""


@dataclass
class Outcome:
    """One driver invocation, measured from the parent."""

    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    summary: check.Summary
    t_spawn: float
    t_done: float
    stem: Path


@dataclass
class Round:
    """One pass over a workload's invocations."""

    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    def end_to_end(self) -> dict[str, float]:
        setup = sum(o.setup_s for o in self.outcomes)
        pairs = sum(o.summary.pairs for o in self.outcomes)
        return {
            "wall_s": self.wall_s,
            "setup_s": setup,
            "trials_per_s": pairs / (self.wall_s - setup),
            "cpu_s": sum(o.cpu_s for o in self.outcomes),
            "peak_rss_mb": max(o.rss_mb for o in self.outcomes),
        }


class Runner:
    """Spawns children in fresh process groups and keeps the failure count."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._serial = 0

    def spawn(self, args: list[str], stem: Path) -> tuple[float, int, object]:
        """Run `python <args>`; return (spawn time, exit code, rusage).

        The rusage covers the child and the pool workers it reaped.
        """
        with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=CHILD_ENV,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _kill_group(proc.pid)  # pool children left behind, if any
            proc.returncode = os.waitstatus_to_exitcode(status)
        return t_spawn, proc.returncode, usage

    def stem(self, label: str) -> Path:
        self._serial += 1
        return self.workdir / f"{self._serial:03d}-{label}"

    def invoke(self, inv: Invocation, seed: int, workers: int, trace: bool) -> Outcome | None:
        """One driver run; None (and a counted failure) if it or its check fails."""
        self.attempted += 1
        stem = self.stem(inv.driver + ("-traced" if trace else ""))
        out, meta_path = Path(f"{stem}.csv"), Path(f"{stem}.meta.json")
        args = ["-X", "importtime"] if trace else []
        args += [
            str(BENCH / "launch.py"), "run", str(meta_path), "1" if trace else "0", "--",
            inv.driver, "--config", str(ROOT / inv.config), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out),
        ]
        t_spawn, code, usage = self.spawn(args, stem)
        try:
            if code != 0:
                raise BenchError(f"exit code {code}; see {stem}.stderr")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if Path(meta["qksd_file"]).resolve().parents[1] != ROOT / "src":
                raise BenchError(f"imported qksd from {meta['qksd_file']}")
            if not meta["built"] or not meta["closed"]:
                raise BenchError("no build_system return or CSV close was seen")
            summary = check.check_csv(out, inv.driver, ROOT / inv.config, seed)
        except (BenchError, check.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.errors.append(f"{inv.driver} seed {seed}: {exc}")
            print(f"  FAILED {inv.driver}: {exc}", flush=True)
            return None
        return Outcome(
            wall_s=meta["closed"][-1] - t_spawn,
            setup_s=meta["built"][0] - t_spawn,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=meta["rss_mb"],
            summary=summary,
            t_spawn=t_spawn,
            t_done=meta["closed"][-1],
            stem=stem,
        )

    def round(self, workload: str, seed: int | None, trace: bool = False,
              workers: int | None = None) -> Round | None:
        result = Round()
        for inv in WORKLOADS[workload]:
            outcome = self.invoke(
                inv,
                inv.shipped_seed if seed is None else seed,
                inv.workers if workers is None else workers,
                trace,
            )
            if outcome is None:
                return None
            result.outcomes.append(outcome)
        return result

    def helper(self, label: str, args: list[str]) -> dict | None:
        """Run a launch.py helper action that writes one JSON record."""
        self.attempted += 1
        stem = self.stem(label)
        meta_path = Path(f"{stem}.json")
        _, code, _ = self.spawn([str(BENCH / "launch.py"), *args, str(meta_path)], stem)
        try:
            if code != 0:
                raise BenchError(f"exit code {code}; see {stem}.stderr")
            return json.loads(meta_path.read_text(encoding="utf-8"))
        except (BenchError, OSError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{label}: {exc}")
            print(f"  FAILED {label}: {exc}", flush=True)
            return None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_rounds(seconds: float, one_round, min_rounds: int = MIN_ROUNDS) -> list:
    """Call one_round() until less than half a round of `seconds` is left."""
    results = []
    t_begin = time.monotonic()
    while True:
        t_round = time.monotonic()
        results.append(one_round())
        now = time.monotonic()
        if len(results) >= min_rounds and (now - t_begin) + (now - t_round) / 2 > seconds:
            return results


def import_times(stderr: str) -> tuple[float, float]:
    """(qksd, scipy) import seconds from `python -X importtime` output.

    Each is the cumulative time of the outermost imports of that package, so
    qksd includes numpy and scipy, and scipy includes what scipy pulls in.
    """
    entries = []  # (depth, name, cumulative us), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative_us, name_field = line[len("import time:"):].split("|")
        if cumulative_us.strip().isdigit():  # skips the column header
            depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
            entries.append((depth, name_field.strip(), int(cumulative_us)))
    totals = {"qksd": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".", 1)[0]
        if package in totals and all(a[1] != package for a in ancestors):
            totals[package] += cumulative_us
        ancestors.append((depth, package))
    return totals["qksd"] / 1e6, totals["scipy"] / 1e6


def traced_metrics(rnd: Round) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced round, summed over its invocations."""
    total: dict[str, float] = {}
    problems = []
    for o in rnd.outcomes:
        m, bad = spans.layer_metrics(spans.Spans(Path(f"{o.stem}.meta.json.spans")), o.t_spawn, o.t_done)
        problems += [f"{o.stem.name}: {p}" for p in bad]
        m["import.qksd_s"], m["import.scipy_s"] = import_times(
            Path(f"{o.stem}.stderr").read_text(encoding="utf-8", errors="replace")
        )
        m["harness.csv_rows"] = o.summary.rows
        m["harness.csv_bytes"] = o.summary.bytes
        m["harness.cells"] = o.summary.cells
        m["harness.cells_skipped"] = o.summary.cells_skipped
        for k, v in m.items():
            total[k] = total.get(k, 0) + v
    attempted = total["gevp.thresholdings"]
    total["gevp.useful_ratio"] = total["gevp.solved"] / attempted if attempted else 0.0
    return total, problems


def _same_bytes(a: Round, b: Round) -> list[str]:
    return [
        f"{x.stem.name} and {y.stem.name} differ"
        for x, y in zip(a.outcomes, b.outcomes)
        if x.summary.digest != y.summary.digest
    ]


def measure(runner: Runner, workload: str, seed: int | None, seconds: float) -> dict:
    rounds = [r for r in timed_rounds(seconds, lambda: runner.round(workload, seed)) if r]
    values = [r.end_to_end() for r in rounds]
    if rounds:
        pinned = all(o.summary.pinned for o in rounds[0].outcomes)
        print(f"  output check: schema and claims on every CSV, "
              f"{'plus pinned sha256' if pinned else 'no pinned sha256 at this seed'}")
    metrics = {}
    for name, unit in END_TO_END.items():
        if not values:
            break
        samples = [v[name] for v in values]
        metrics[name] = statistics.median(samples)
        print(
            f"  {name:<14} {metrics[name]:12.5g} {unit:<5} median of {len(samples)}"
            f" rounds: {' '.join(f'{x:.5g}' for x in samples)}"
        )
    return metrics


def measure_traced(runner: Runner, workload: str, seed: int | None, seconds: float) -> dict:
    problems: list[str] = []
    plain_rounds: list[Round] = []
    traced: list[dict] = []
    overhead: list[float] = []

    def pair():
        plain = runner.round(workload, seed, workers=1)
        rnd = runner.round(workload, seed, trace=True, workers=1)
        if plain is None or rnd is None:
            return
        m, bad = traced_metrics(rnd)
        problems.extend(bad + _same_bytes(plain, rnd))
        plain_rounds.append(plain)
        traced.append(m)
        overhead.append(rnd.wall_s / plain.wall_s)

    timed_rounds(seconds, pair, min_rounds=1)
    metrics: dict[str, float] = {}
    if traced:
        for name in PER_LAYER:
            if name in traced[0]:
                metrics[name] = statistics.median(m[name] for m in traced)
        metrics["trace.overhead"] = statistics.median(overhead)
    if plain_rounds and any(inv.workers > 1 for inv in WORKLOADS[workload]):
        # Pool metrics come from a traced round at the workload's own worker
        # count, measured on the parent side only.
        rnd = runner.round(workload, seed, trace=True)
        if rnd is not None:
            pooled, bad = traced_metrics(rnd)
            problems.extend(bad + _same_bytes(plain_rounds[0], rnd))
            for name in ("harness.pools_opened", "harness.map_chunks.wait_s"):
                metrics[name] = pooled[name]
    for sites in SCALE_SITES:
        row = runner.helper(f"scale-L{sites}", ["scale", str(sites)])
        if row is not None:
            metrics[f"scale.L{sites}.build_s"] = row["build_s"]
            metrics[f"scale.L{sites}.rss_mb"] = row["rss_mb"]
    for name, unit in PER_LAYER.items():
        if name in metrics:
            print(f"  {name:<42} {metrics[name]:14.6g} {unit}")
    for sites, reason in SCALE_SKIPPED.items():
        print(f"  scale.L{sites}: skipped ({reason})")
    if problems:
        runner.failed += 1
        runner.errors.extend(problems)
        for p in problems:
            print(f"  SELF-TEST FAILED: {p}")
    return metrics


def _checkout_problem() -> str | None:
    for needed in ("src/qksd/cli.py", "configs/error_norms.conf"):
        if not (ROOT / needed).is_file():
            return f"{ROOT / needed} is missing: run from a qksd checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    problem = _checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(WORK)
    env = runner.helper("env", ["env"])
    print(f"env {json.dumps(env)}")
    # Untimed: compiles qksd's bytecode and warms the page cache.
    runner.helper("warmup", ["scale", "2"])

    units = PER_LAYER if args.trace else END_TO_END
    results: dict[str, dict] = {}
    for name in names:
        before = (runner.attempted, runner.failed)
        seed = "shipped" if args.seed is None else args.seed
        print(f"workload {name}: seed {seed}, closed loop, 1 client, "
              f"{'traced' if args.trace else 'untraced'}", flush=True)
        measure_fn = measure_traced if args.trace else measure
        results[name] = measure_fn(runner, name, args.seed, args.seconds)
        attempted = runner.attempted - before[0]
        failed = runner.failed - before[1]
        print(f"  {'failed_frac':<14} {failed / attempted:12.5g} ratio "
              f"{failed} of {attempted} invocations", flush=True)
    for err in runner.errors:
        print(f"error: {err}", file=sys.stderr)

    metrics = {}
    for name, values in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    complete = all(set(values) == set(units) for values in results.values())
    print(json.dumps({
        "correct": runner.failed == 0 and complete,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
