"""Row records and deterministic CSV output.

Every driver writes one RFC-4180 CSV (CRLF line endings, `.` decimal point).
The first line is a comment row carrying the config hash, seed, and artifact
version so a result file is traceable to the exact run that produced it.
Floats are written with repr (shortest round-trip form); missing or
not-applicable values are written as the literal string `na`.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .config import ExperimentConfig

# 0.2.0: exact values computed in the reference state's particle sector.
# 0.3.0: binomial draws come from one stream per (seed, trial, matrix) instead
# of one per coordinate, so binomial-mode rows change; gaussian rows do not.
# 0.4.0: every draw, in both modes, comes from one PCG64 per (seed, trial,
# matrix) seated straight from its key; spectral norms come from eigvalsh; and
# sampled Toeplitz stacks are C-contiguous.  Every sampled row changes.
# 0.5.0: a gaussian H draws one normal per (element, configuration) for its
# beta-weighted fragment sum instead of one per fragment, so gaussian H rows
# move; binomial rows and S-only rows do not.
ARTIFACT_VERSION = "0.5.0"

ERROR_NORM_COLUMNS = (
    "row_kind", "construction", "kind", "n", "m_budget", "trial",
    "norm", "bound", "under_bound", "mean_norm", "frac_under", "slope", "note",
)
SPECTRUM_COLUMNS = (
    "m_budget", "index", "exact_value", "mean_value", "std_value",
    "epsilon", "weyl_fraction",
)
SWEEP_COLUMNS = (
    "row_kind", "construction", "n", "m_budget", "k", "trials_used",
    "rms_rel_error", "mean_rel_error", "ideal_rel_error", "mean_n_eps", "epsilon",
)
SCAN_COLUMNS = (
    "construction", "n", "m_budget", "m_h", "m_s", "epsilon", "trials_used",
    "rms_rel_error", "mean_rel_error", "mean_n_eps", "e0_sector",
)
PERTURBATION_COLUMNS = (
    "row_kind", "construction", "n", "m_budget", "m_h", "m_s", "trial", "seed",
    "n_eps", "dh_norm", "ds_norm", "eta", "chi",
    "e0_sector", "e0_full", "e0_reduced", "e0_sampled",
    "d0", "d0_inv_upper", "cond_s", "bound", "observed",
    "chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims_matched", "qualifies", "satisfied",
    "qualifying_trials", "satisfaction_rate",
)


def check_finite(row: Mapping) -> Mapping:
    """Return the row unchanged; raise if a float in it is nan or infinite."""
    for name, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} is not finite; use None for n/a")
    return row


def format_value(v) -> str:
    if v is None:
        return "na"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


_HASH_EXEMPT = {"out", "workers"}  # execution details, not experiment identity


def config_hash(cfg: ExperimentConfig) -> str:
    dump = ";".join(
        f"{f.name}={getattr(cfg, f.name)!r}"
        for f in fields(cfg)
        if f.name not in _HASH_EXEMPT
    )
    return hashlib.sha256(dump.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class DriverResult:
    path: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]


def write_csv(
    path: str,
    columns: Sequence[str],
    rows: Iterable[Mapping],
    cfg: ExperimentConfig,
) -> DriverResult:
    """Write rows (dicts keyed by column name) with the traceability header."""
    rows = tuple(rows)
    known = set(columns)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(
            f"# config={config_hash(cfg)} seed={cfg.seed} "
            f"version={ARTIFACT_VERSION}\r\n"
        )
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            extra = row.keys() - known
            if extra:
                raise ValueError(f"row has unknown fields {sorted(extra)}")
            writer.writerow([format_value(row.get(c)) for c in columns])
    return DriverResult(path=path, columns=tuple(columns), rows=rows)
