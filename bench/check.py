"""Output checks for the benchmark's CSVs.

Every CSV gets the schema check (header comment, column tuple, row count
implied by the config and docs/schemas.md) and the paper-claim check for its
driver.  At a config's shipped seed and artifact version 0.1.0 the file's
sha256 must also equal the digest pinned below, which fixes every byte.

Digests were taken with OPENBLAS_NUM_THREADS=1, numpy 2.4.6, scipy 1.17.1 and
the bundled scipy-openblas 0.3.31 on an x86-64 Xeon.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

PINNED_VERSION = "0.1.0"

# (config file name, seed) -> sha256 of the CSV bytes at PINNED_VERSION.
PINNED_DIGESTS = {
    ("error_norms.conf", 11): "7aee1d8775bcbdb56ddd610d532a4d450d99d5ebb3363a7e428ca0db1861b733",
    ("threshold_sweep.conf", 37): "a590ffe90c726387ba1c1b40a76ad87bac5a81ee006ac78c1b72c9bf70d01c66",
    ("optimal_threshold.conf", 41): "08e5a790fabdf07dd39929bd0777b56949d432bdbaa98698b31bbbdd8af5cccd",
    ("chain.conf", 53): "7c3fdd20ec2a8eaae84fb209a9d83e76d6ef8cfdafbd6407751b136304a3a031",
}

# Column tuples as documented in docs/schemas.md.
COLUMNS = {
    "error-norms": (
        "row_kind", "construction", "kind", "n", "m_budget", "trial",
        "norm", "bound", "under_bound", "mean_norm", "frac_under", "slope", "note",
    ),
    "threshold-sweep": (
        "row_kind", "construction", "n", "m_budget", "k", "trials_used",
        "rms_rel_error", "mean_rel_error", "ideal_rel_error", "mean_n_eps", "epsilon",
    ),
    "optimal-threshold": (
        "construction", "n", "m_budget", "m_h", "m_s", "epsilon", "trials_used",
        "rms_rel_error", "mean_rel_error", "mean_n_eps", "e0_sector",
    ),
    "perturbation-bound": (
        "row_kind", "construction", "n", "m_budget", "m_h", "m_s", "trial", "seed",
        "n_eps", "dh_norm", "ds_norm", "eta", "chi",
        "e0_sector", "e0_full", "e0_reduced", "e0_sampled",
        "d0", "d0_inv_upper", "cond_s", "bound", "observed",
        "chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims_matched",
        "qualifies", "satisfied", "qualifying_trials", "satisfaction_rate",
    ),
}

_HEADER = re.compile(r"# config=[0-9a-f]{12} seed=(-?\d+) version=(\S+)\r\n")


class CheckError(Exception):
    """The CSV does not match its schema, its pinned digest or a paper claim."""


@dataclass(frozen=True)
class Config:
    trials: int
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    constructions: tuple[str, ...]


def _split(value: str) -> list[str]:
    return [p.strip() for p in value.split(",") if p.strip()]


def read_config(path: Path) -> dict[str, str]:
    """key -> raw value of a flat `key = value` config file."""
    raw = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            raw[key] = value
    return raw


def parse_config(raw: dict[str, str]) -> Config:
    return Config(
        trials=int(float(raw.get("trials", "1000"))),
        n_list=tuple(int(float(s)) for s in _split(raw.get("n", "5"))),
        m_list=tuple(int(float(s)) for s in _split(raw.get("M", "1000000"))),
        constructions=tuple(_split(raw.get("construction", "toeplitz"))),
    )


@dataclass(frozen=True)
class Summary:
    """What a checked CSV says about the work its run did."""

    rows: int  # data rows, header lines excluded
    bytes: int
    cells: int  # (construction, n, M) or (kind, n, M) cells attempted
    cells_skipped: int  # cells whose allocation was infeasible
    pairs: int  # sampled (cell, trial) pairs
    digest: str
    pinned: bool  # the digest was compared with a pinned one


def _num(value: str) -> float:
    return math.nan if value == "na" else float(value)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _norms(rows, cfg: Config) -> tuple[int, int, int]:
    kinds = [("S", "toeplitz")] + [("H", c) for c in cfg.constructions]
    cells = len(kinds) * len(cfg.n_list) * len(cfg.m_list)
    skipped = sum(r["row_kind"] == "skipped" for r in rows)
    summaries = [r for r in rows if r["row_kind"] == "cell_summary"]
    trials = [r for r in rows if r["row_kind"] == "trial"]
    points = Counter((r["kind"], r["construction"], r["m_budget"]) for r in summaries)
    slopes_expected = sum(count >= 2 for count in points.values())
    slopes = sum(r["row_kind"] == "slope" for r in rows)
    _expect(len(summaries) + skipped == cells, f"{len(summaries)} summaries + {skipped} skipped != {cells} cells")
    _expect(len(trials) == len(summaries) * cfg.trials, "trial row count")
    _expect(slopes == slopes_expected, f"{slopes} slope rows, expected {slopes_expected}")
    _expect(len(rows) == len(trials) + len(summaries) + skipped + slopes, "unknown row_kind")
    for r in summaries:  # claim: the expected-norm bound holds for >= 95% of trials
        _expect(float(r["frac_under"]) >= 0.95, f"frac_under {r['frac_under']} < 0.95 in {r}")
    return cells, skipped, len(summaries) * cfg.trials


def _sweep(rows, cfg: Config) -> tuple[int, int, int]:
    n = cfg.n_list[0]
    cells = len(cfg.constructions) * len(cfg.m_list)
    skipped = sum(r["row_kind"] == "skipped" for r in rows)
    rules = [r for r in rows if r["row_kind"] == "epsilon_rule"]
    sweeps = [r for r in rows if r["row_kind"] == "sweep"]
    _expect(len(rules) + skipped == cells, "epsilon_rule + skipped rows != cells")
    _expect(len(sweeps) == n * len(rules), "sweep row count")
    _expect(len(rows) == len(sweeps) + len(rules) + skipped, "unknown row_kind")
    for r in rules:  # claim: every feasible cell solves, with a finite error
        _expect(int(r["trials_used"]) > 0, f"no trial solved in {r}")
        _expect(math.isfinite(_num(r["rms_rel_error"])), f"non-finite rms in {r}")
    return cells, skipped, len(rules) * cfg.trials


def _scan(rows, cfg: Config) -> tuple[int, int, int]:
    cells = len(cfg.constructions) * len(cfg.n_list) * len(cfg.m_list)
    _expect(len(rows) == cells, f"{len(rows)} rows, expected {cells}")
    feasible = [r for r in rows if r["m_h"] != "na"]
    for r in feasible:  # claim: every feasible cell solves, with a finite error
        _expect(int(r["trials_used"]) > 0, f"no trial solved in {r}")
        _expect(math.isfinite(_num(r["rms_rel_error"])), f"non-finite rms in {r}")
    return cells, cells - len(feasible), len(feasible) * cfg.trials


def _chain(rows, cfg: Config) -> tuple[int, int, int]:
    cells = len(cfg.constructions) * len(cfg.n_list) * len(cfg.m_list)
    skipped = sum(r["row_kind"] == "skipped" for r in rows)
    summaries = [r for r in rows if r["row_kind"] == "cell_summary"]
    trials = [r for r in rows if r["row_kind"] == "trial"]
    _expect(len(summaries) + skipped == cells, "cell_summary + skipped rows != cells")
    _expect(len(trials) == len(summaries) * cfg.trials, "trial row count")
    _expect(len(rows) == len(trials) + len(summaries) + skipped, "unknown row_kind")
    for r in summaries:  # claim: the sampling bound holds on every qualifying trial
        if int(r["qualifying_trials"]) > 0:
            _expect(float(r["satisfaction_rate"]) == 1.0, f"bound violated in {r}")
    return cells, skipped, len(summaries) * cfg.trials


_CLAIMS = {
    "error-norms": _norms,
    "threshold-sweep": _sweep,
    "optimal-threshold": _scan,
    "perturbation-bound": _chain,
}


def check_csv(path: Path, driver: str, config_path: Path, seed: int) -> Summary:
    """Check one driver output; raise CheckError on any mismatch."""
    data = path.read_bytes()
    text = data.decode("utf-8")
    header, sep, body = text.partition("\r\n")
    match = _HEADER.fullmatch(header + sep)
    _expect(match is not None, f"bad header comment {header!r}")
    _expect(int(match.group(1)) == seed, f"header seed {match.group(1)} != {seed}")
    version = match.group(2)
    reader = csv.reader(io.StringIO(body, newline=""))
    columns = tuple(next(reader))
    _expect(columns == COLUMNS[driver], f"columns {columns}")
    records = list(reader)
    _expect(all(len(r) == len(columns) for r in records), "ragged row")
    rows = [dict(zip(columns, r)) for r in records]
    raw = read_config(config_path)
    cells, skipped, pairs = _CLAIMS[driver](rows, parse_config(raw))
    digest = hashlib.sha256(data).hexdigest()
    pinned_digest = None
    if version == PINNED_VERSION and str(seed) == raw.get("seed"):
        pinned_digest = PINNED_DIGESTS.get((config_path.name, seed))
    if pinned_digest is not None:
        _expect(digest == pinned_digest, f"sha256 {digest} != pinned {pinned_digest}")
    return Summary(
        rows=len(rows),
        bytes=len(data),
        cells=cells,
        cells_skipped=skipped,
        pairs=pairs,
        digest=digest,
        pinned=pinned_digest is not None,
    )
