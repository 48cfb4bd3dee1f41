"""Configuration parsing, CSV records, and the experiment drivers.

Driver tests run at desk scale (tiny budgets, a handful of trials) and check
row structure plus the worker-count independence of the output bytes.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import multiprocessing
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qksd.errors import ConfigError, EmptyBasisError, InfeasibleBudgetError
from qksd.harness import (
    ExperimentConfig,
    load_config,
    run_error_norm_ensemble,
    run_optimal_threshold_scan,
    run_perturbation_vs_bound,
    run_singular_spectrum,
    run_threshold_sweep,
)
from qksd.harness.config import config_from_mapping, parse_config_text
from qksd.harness import drivers
from qksd.harness.drivers import _chunk_ranges, _worker_count
from qksd.harness.records import check_finite, config_hash, format_value, write_csv


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_config_text_basics():
    raw = parse_config_text(
        """
        # comment line
        L = 2
        t = 0.2   # trailing comment
        M = 1e6, 1e8
        n = 5,9
        """
    )
    assert raw == {"L": "2", "t": "0.2", "M": "1e6, 1e8", "n": "5,9"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("L 2")
    with pytest.raises(ConfigError):
        parse_config_text("L =")
    with pytest.raises(ConfigError):
        parse_config_text("L = 2\nL = 3")


def test_config_scientific_integers():
    cfg = config_from_mapping({"M": "1e8", "trials": "1e3"})
    assert cfg.m_list == (10**8,)
    assert cfg.trials == 1000
    with pytest.raises(ConfigError):
        config_from_mapping({"M": "1.5e0"})
    with pytest.raises(ConfigError):
        config_from_mapping({"M": "abc"})


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({"budget": "100"})


def test_config_lists_and_constructions():
    cfg = config_from_mapping(
        {"n": "5, 9, 13", "construction": "toeplitz, nontoeplitz"}
    )
    assert cfg.n_list == (5, 9, 13)
    assert cfg.constructions == ("toeplitz", "nontoeplitz")
    with pytest.raises(ConfigError):
        config_from_mapping({"construction": "hankel"})
    with pytest.raises(ConfigError):
        config_from_mapping({"n": "4"})  # even order


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="poisson")
    with pytest.raises(ConfigError):
        ExperimentConfig(hardware_lambda=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_up=5, sites=2)


def test_hardware_decay_keys():
    cfg = config_from_mapping(
        {"L": "2", "hardware_r": "0.999", "hardware_depth": "100"}
    )
    # lambda = 2 L depth ln(1/r): qubit count is twice the site count
    assert cfg.hardware_lambda == pytest.approx(2 * 2 * 100 * math.log(1 / 0.999))
    with pytest.raises(ConfigError):
        config_from_mapping({"hardware_lambda": "0.5", "hardware_r": "0.99"})
    with pytest.raises(ConfigError):
        config_from_mapping({"hardware_r": "0.99"})  # depth missing
    with pytest.raises(ConfigError):
        config_from_mapping({"hardware_r": "1.2", "hardware_depth": "10"})


def test_filling_defaults():
    assert ExperimentConfig(sites=2).filling == (1, 1)
    assert ExperimentConfig(sites=3).filling == (2, 1)
    assert ExperimentConfig(sites=3, n_up=1, n_down=1).filling == (1, 1)


def test_load_config_with_overrides(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("L = 2\nt = 0.3\nseed = 7\n")
    cfg = load_config(str(p), overrides={"seed": 11, "trials": None})
    assert cfg.seed == 11
    assert cfg.t_hop == 0.3
    assert cfg.trials == ExperimentConfig.trials
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.conf"))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_config_hash_ignores_execution_keys():
    a = ExperimentConfig(seed=3, out="a.csv", workers=1)
    b = ExperimentConfig(seed=3, out="b.csv", workers=8)
    c = ExperimentConfig(seed=4)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_format_value():
    assert format_value(None) == "na"
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(0.1) == "0.1"
    assert format_value(1 / 3) == repr(1 / 3)
    assert format_value(7) == "7"


def test_write_csv_format(tmp_path):
    cfg = ExperimentConfig(seed=5)
    path = tmp_path / "out.csv"
    write_csv(
        str(path),
        ("x", "y"),
        [{"x": 1, "y": None}, {"x": 0.25, "y": False}],
        cfg,
    )
    data = path.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[0].startswith(b"# config=")
    assert b"seed=5" in lines[0]
    assert lines[1] == b"x,y"
    assert lines[2] == b"1,na"
    assert lines[3] == b"0.25,0"
    # every line CRLF-terminated
    assert data.count(b"\n") == data.count(b"\r\n")


def test_write_csv_rejects_unknown_field(tmp_path):
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="unknown fields"):
        write_csv(str(tmp_path / "x.csv"), ("a",), [{"a": 1, "b": 2}], cfg)


def test_chunk_ranges():
    assert _chunk_ranges(10, 1) == [(0, 10)]
    assert _chunk_ranges(10, 3) == [(0, 4), (4, 3), (7, 3)]
    assert _chunk_ranges(2, 8) == [(0, 1), (1, 1)]
    ranges = _chunk_ranges(17, 4)
    assert sum(c for _, c in ranges) == 17
    lo = 0
    for start, count in ranges:
        assert start == lo
        lo += count


def test_worker_count(monkeypatch):
    assert _worker_count(1, 1000, 8) == 1
    assert _worker_count(64, 1000, 2) == 2  # never more processes than CPUs
    assert _worker_count(4, 3, 16) == 3  # nor than trials to share
    assert _worker_count(4, 1000, None) == 1  # CPU count unknown: run inline
    # the CPUs counted are those the affinity mask lets this process use
    monkeypatch.setattr(drivers.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(drivers.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _worker_count(4, 1000, drivers._usable_cpus()) == 1
    monkeypatch.delattr(drivers.os, "sched_getaffinity")  # no mask: all CPUs
    assert _worker_count(4, 1000, drivers._usable_cpus()) == 4


# ---------------------------------------------------------------------------
# Drivers at desk scale
# ---------------------------------------------------------------------------


def small_cfg(tmp_path, name, **kw):
    base = dict(
        sites=2,
        t_hop=0.2,
        u_int=0.1,
        n_list=(3,),
        m_list=(10_000,),
        trials=5,
        seed=3,
        out=str(tmp_path / name),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(result):
    return result.rows


def test_error_norm_driver_rows(tmp_path):
    cfg = small_cfg(tmp_path, "norms.csv", n_list=(3, 5))
    res = run_error_norm_ensemble(cfg)
    kinds = {r["row_kind"] for r in res.rows}
    assert kinds == {"trial", "cell_summary", "slope"}
    trials = [r for r in res.rows if r["row_kind"] == "trial"]
    # kinds: S toeplitz + H toeplitz, 2 n values, 1 budget, 5 trials
    assert len(trials) == 2 * 2 * 5
    for r in trials:
        assert r["norm"] >= 0
    summaries = [r for r in res.rows if r["row_kind"] == "cell_summary"]
    assert all(0.0 <= r["frac_under"] <= 1.0 for r in summaries)
    slopes = [r for r in res.rows if r["row_kind"] == "slope"]
    assert {(r["kind"], r["construction"]) for r in slopes} == {
        ("S", "toeplitz"),
        ("H", "toeplitz"),
    }


def test_error_norm_driver_infeasible(tmp_path):
    cfg = small_cfg(tmp_path, "norms.csv", m_list=(4,))
    with pytest.raises(InfeasibleBudgetError):
        run_error_norm_ensemble(cfg)


def test_error_norm_driver_skips_partial(tmp_path):
    # nontoeplitz n=5 needs 25 shots; 20 is enough for the toeplitz kinds only
    cfg = small_cfg(
        tmp_path, "norms.csv", n_list=(5,), m_list=(20,),
        constructions=("nontoeplitz",), trials=2,
    )
    res = run_error_norm_ensemble(cfg)
    skipped = [r for r in res.rows if r["row_kind"] == "skipped"]
    assert len(skipped) == 1
    assert "25" in skipped[0]["note"]


def test_error_norm_driver_skips_starved_cell(tmp_path):
    """A plan that rounds a fragment to zero shots is skipped, not sampled biased.

    At L = 2, n = 9, M = 1000 the elementwise H's 81 configurations get about
    12 shots each, too few to split over its 6 fragments.  The other rows are
    pinned by the sha256 they had when the starved cell was still sampled,
    with that cell's rows dropped.
    """
    cfg = small_cfg(
        tmp_path, "starved.csv", n_list=(9,), m_list=(1000, 10**6),
        constructions=("toeplitz", "nontoeplitz"), trials=8, seed=11,
    )
    res = run_error_norm_ensemble(cfg)
    starved = [
        r for r in res.rows
        if (r["kind"], r["construction"], r["m_budget"]) == ("H", "nontoeplitz", 1000)
    ]
    assert [r["row_kind"] for r in starved] == ["skipped"]
    assert re.fullmatch(
        r"budget 1000 leaves H_nontoeplitz element \(\d, \d\) (real|imag) "
        r"fragment \d without shots",
        starved[0]["note"],
    )
    lines = Path(cfg.out).read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"skipped,"))
    assert len(lines) - len(kept.splitlines()) == 1
    assert hashlib.sha256(kept).hexdigest() == (
        "8b4fac59b1ab5467051af0a43406bbcf309bc5740e2a14ad70bd9defedb0b3db"
    )


def test_singular_spectrum_driver(tmp_path):
    cfg = small_cfg(tmp_path, "spec.csv", m_list=(10_000, 40_000), trials=20)
    res = run_singular_spectrum(cfg)
    assert len(res.rows) == 2 * 3  # budgets x indices
    for r in res.rows:
        assert 1 <= r["index"] <= 3
        assert 0.0 <= r["weyl_fraction"] <= 1.0
        assert r["std_value"] >= 0
    # exact values descending per budget
    first = [r["exact_value"] for r in res.rows if r["m_budget"] == 10_000]
    assert first == sorted(first, reverse=True)


def test_threshold_sweep_driver(tmp_path):
    cfg = small_cfg(tmp_path, "sweep.csv", trials=8, m_list=(100_000,))
    res = run_threshold_sweep(cfg)
    sweep = [r for r in res.rows if r["row_kind"] == "sweep"]
    assert [r["k"] for r in sweep] == [1, 2, 3]
    eps_rows = [r for r in res.rows if r["row_kind"] == "epsilon_rule"]
    assert len(eps_rows) == 1
    assert eps_rows[0]["mean_n_eps"] >= 1.0
    assert eps_rows[0]["epsilon"] > 0


def test_optimal_threshold_scan_driver(tmp_path):
    cfg = small_cfg(tmp_path, "scan.csv", n_list=(3, 5), m_list=(50_000,), trials=6)
    res = run_optimal_threshold_scan(cfg)
    assert len(res.rows) == 2
    for r in res.rows:
        assert r["trials_used"] == 6
        assert r["rms_rel_error"] >= r["mean_rel_error"] * 0  # both present
        assert r["m_h"] + r["m_s"] == 50_000


def test_perturbation_driver_rows(tmp_path):
    cfg = small_cfg(tmp_path, "pert.csv", trials=6, m_list=(200_000,))
    res = run_perturbation_vs_bound(cfg)
    trials = [r for r in res.rows if r["row_kind"] == "trial"]
    assert len(trials) == 6
    for r in trials:
        assert r["eta"] >= max(r["dh_norm"], r["ds_norm"])
        assert r["chi_small"] in ("holds", "violated", "unknown")
        if r["qualifies"]:
            assert r["satisfied"] in (True, False)
        else:
            assert r["satisfied"] is None
    summary = [r for r in res.rows if r["row_kind"] == "cell_summary"]
    assert len(summary) == 1
    assert summary[0]["qualifying_trials"] <= 6


def test_driver_output_worker_invariant(tmp_path):
    out = {}
    for workers in (1, 3):
        cfg = small_cfg(
            tmp_path, f"w{workers}.csv", trials=7, workers=workers, n_list=(3,)
        )
        run_error_norm_ensemble(cfg)
        out[workers] = (tmp_path / f"w{workers}.csv").read_bytes()
    # header hash excludes worker count, rows are trial-keyed: bytes match
    assert out[1] == out[3]


@pytest.fixture
def pools(monkeypatch):
    """Process pools the drivers open, on a machine that lends them two CPUs."""
    opened = []

    class CountingPool(drivers.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(drivers, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(drivers, "_usable_cpus", lambda: 2)
    return opened


POOLED_DRIVERS = {  # each grid has two cells, so one pool serves two maps
    "threshold_sweep": (run_threshold_sweep, {"m_list": (50_000, 100_000)}),
    "optimal_threshold": (run_optimal_threshold_scan, {"n_list": (3, 5)}),
    "perturbation_bound": (run_perturbation_vs_bound, {"m_list": (100_000, 200_000)}),
    "singular_spectrum": (run_singular_spectrum, {"m_list": (10_000, 40_000)}),
}


@pytest.mark.parametrize("name", list(POOLED_DRIVERS))
def test_pooled_driver_output_worker_invariant(tmp_path, monkeypatch, pools, name):
    runner, grid = POOLED_DRIVERS[name]
    maps = Counter()
    real_map = drivers._map_chunks

    def counted_map(fn, ranges, fanout):
        maps[len(ranges)] += 1
        return real_map(fn, ranges, fanout)

    monkeypatch.setattr(drivers, "_map_chunks", counted_map)
    out = {}
    for workers in (1, 2):
        cfg = small_cfg(tmp_path, f"w{workers}.csv", trials=7, workers=workers, **grid)
        runner(cfg)
        out[workers] = (tmp_path / f"w{workers}.csv").read_bytes()
    assert maps == {1: 2, 2: 2}  # two cells mapped inline, then two over the pool
    assert len(pools) == 1
    assert out[1] == out[2]


def test_one_pool_per_driver_run(tmp_path, monkeypatch, pools):
    """A run opens its pool once, at most, and reaps it on return or on raise."""
    cfg = small_cfg(
        tmp_path, "scan.csv", n_list=(3, 5), m_list=(50_000, 100_000),
        trials=4, workers=2,
    )
    res = run_optimal_threshold_scan(cfg)
    assert [r["trials_used"] for r in res.rows] == [4, 4, 4, 4]
    assert len(pools) == 1
    assert multiprocessing.active_children() == []

    run_optimal_threshold_scan(dataclasses.replace(cfg, workers=1))
    assert len(pools) == 1

    def failing_write(*args):
        raise OSError("disk full")

    monkeypatch.setattr(drivers, "write_csv", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_optimal_threshold_scan(cfg)
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_driver_rows_match_written_file(tmp_path):
    cfg = small_cfg(tmp_path, "again.csv", trials=3)
    res = run_error_norm_ensemble(cfg)
    text = (tmp_path / "again.csv").read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[1].split(",")[0] == "row_kind"
    # one line per row plus comment, header, and trailing newline
    assert len(lines) == len(res.rows) + 3


def test_perturbation_rows_are_checked_finite(tmp_path, monkeypatch):
    """A nan or infinite float in a trial row raises, naming its column."""
    row = {"trial": 3, "chi": 0.5, "observed": None, "qualifies": True}
    assert check_finite(row) is row
    for bad in (math.nan, math.inf, np.float64(-np.inf)):
        with pytest.raises(ValueError, match="^observed is not finite"):
            check_finite({**row, "observed": bad})

    real = drivers.chi_between_thresholds

    def nan_chi(ex, pe):
        return dataclasses.replace(real(ex, pe), chi=math.nan)

    monkeypatch.setattr(drivers, "chi_between_thresholds", nan_chi)
    with pytest.raises(ValueError, match="^chi is not finite"):
        run_perturbation_vs_bound(small_cfg(tmp_path, "nan.csv", trials=2))


def test_perturbation_empty_sampled_basis(tmp_path, monkeypatch):
    """A sampled S~ with no direction above eps gives a full 'na' trial row."""
    cfg = small_cfg(tmp_path, "full.csv", trials=2, m_list=(200_000,))
    full = run_perturbation_vs_bound(cfg)
    trial_keys = {
        frozenset(r) for r in full.rows if r["row_kind"] == "trial"
    }
    assert len(trial_keys) == 1

    exact_pairs = []
    real_pair, real_thr = drivers.expected_pair, drivers.basis_thresholding

    def recorded_pair(*args):
        pair = real_pair(*args)
        exact_pairs.append(pair[0])
        return pair

    def empty_when_sampled(h, s, eps):
        if not any(h is exact for exact in exact_pairs):
            raise EmptyBasisError("no sampled direction above eps")
        return real_thr(h, s, eps)

    monkeypatch.setattr(drivers, "expected_pair", recorded_pair)
    monkeypatch.setattr(drivers, "basis_thresholding", empty_when_sampled)
    res = run_perturbation_vs_bound(dataclasses.replace(cfg, out=str(tmp_path / "e.csv")))
    trials = [r for r in res.rows if r["row_kind"] == "trial"]
    assert len(trials) == 2
    for r in trials:
        assert frozenset(r) in trial_keys
        assert r["qualifies"] is False and r["satisfied"] is None
        for flag in ("chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims_matched"):
            assert r[flag] == "unknown"
        for col in ("n_eps", "chi", "e0_sampled", "cond_s", "observed"):
            assert r[col] is None
        assert r["eta"] >= max(r["dh_norm"], r["ds_norm"])
    (summary,) = [r for r in res.rows if r["row_kind"] == "cell_summary"]
    assert summary["qualifying_trials"] == 0
    assert summary["satisfaction_rate"] is None


@pytest.mark.parametrize(
    "runner", [run_threshold_sweep, run_optimal_threshold_scan, run_perturbation_vs_bound]
)
def test_plan_value_error_propagates(tmp_path, monkeypatch, runner):
    """Only an infeasible budget marks a cell skipped; other plan errors surface."""

    def broken_split(*args, **kwargs):
        raise ValueError("allocation bug")

    monkeypatch.setattr(drivers, "split_budget", broken_split)
    with pytest.raises(ValueError, match="allocation bug"):
        runner(small_cfg(tmp_path, "plan.csv"))


# ---------------------------------------------------------------------------
# Output bytes of the shipped configs
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
DRIVER_FOR_CONFIG = {
    "error_norms": run_error_norm_ensemble,
    "singular_spectrum": run_singular_spectrum,
    "threshold_sweep": run_threshold_sweep,
    "optimal_threshold": run_optimal_threshold_scan,
    "perturbation_bound": run_perturbation_vs_bound,
}
# Overrides applied on top of a shipped config, by variant name.
VARIANTS = {
    None: {},
    "binomial": {"mode": "binomial", "constructions": ("toeplitz", "nontoeplitz")},
    "binomial_decay": {"mode": "binomial", "hardware_lambda": 0.3},
    "gaussian_decay": {"mode": "gaussian", "hardware_lambda": 0.3},
}
# sha256 of each CSV at trials = 8, header included; artifact version 0.3.0.
# A change that moves any of these must bump ARTIFACT_VERSION and re-pin them.
DRIVER_DIGESTS = {
    ("error_norms", None):
        "0bbfc9caf5b931c12695928e0999d54b427e86a4eb9eb77910c7bb60dc3456e7",
    ("singular_spectrum", None):
        "fe78c08bf80d024d455b05f0fae6c163ddecea3eac012f8100c8a263ee065767",
    ("threshold_sweep", None):
        "56a0461cb19bfa1b06086cf670d6154587882fd010f3195b2240b0bb015b5cb6",
    ("optimal_threshold", None):
        "77a2e52481db7ff97a7e7c26b9cc023c045e5102ffd0258aa58775b024cf57f7",
    ("perturbation_bound", None):
        "d243b27e79d5feef51358115de3d3a224aa06a3114a6d9c1a05603d67cdd2275",
    ("perturbation_bound", "binomial"):
        "7fa821dacaf98b034dcecffef7bffc344270b84dfd4f773ec50436e18580cd03",
    ("error_norms", "binomial_decay"):
        "aa83112ba99f4a063bef7d98ed5b6ffe413fbe49622cd1e784927a733b33f209",
    ("error_norms", "gaussian_decay"):
        "236a91d621bab11712d394358151c3fc144a10ec74a4fedbd77d1b37638ee527",
}


@pytest.mark.parametrize(
    "name, variant", list(DRIVER_DIGESTS), ids=lambda v: v or "shipped"
)
def test_driver_digests(tmp_path, name, variant):
    """Every shipped config reproduces its pinned CSV bytes."""
    out = tmp_path / f"{name}.csv"
    overrides = {"trials": 8, "out": str(out), **VARIANTS[variant]}
    cfg = load_config(str(CONFIG_DIR / f"{name}.conf"), overrides)
    DRIVER_FOR_CONFIG[name](cfg)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DRIVER_DIGESTS[(name, variant)]


def test_bench_contract(tmp_path, monkeypatch):
    """The benchmark's tracer and timers still find the names they hook."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
    assert callable(drivers.ProcessPoolExecutor)

    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(drivers, "build_system", counting(drivers.build_system))
    monkeypatch.setattr(drivers, "write_csv", counting(drivers.write_csv))
    cfg = load_config(
        str(CONFIG_DIR / "singular_spectrum.conf"),
        {"trials": 2, "out": str(tmp_path / "spec.csv")},
    )
    drivers.run_singular_spectrum(cfg)
    assert calls == {"build_system": 1, "write_csv": 1}
