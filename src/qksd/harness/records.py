"""Row records and deterministic CSV output.

Every driver writes one RFC-4180 CSV (CRLF line endings, `.` decimal point).
The first line is a comment row carrying the config hash, seed, and artifact
version so a result file is traceable to the exact run that produced it.
Floats are written with repr (shortest round-trip form); missing or
not-applicable values are written as the literal string `na`.  No cell is nan
or infinite: `write_csv` refuses a block holding one, as a NumericalError
naming its column.

Rows are written as they arrive, one block of rows at a time (`write_csv`):
error-norms and perturbation-bound hand over each budget's trial rows as one
block of columns, and every other row is a dict of scalars, a block of one
row.  The header and every block go through one line template (`_text`),
whose quoting is csv's minimal quoting: a cell holding a delimiter, a quote
or a line break is quoted, its quotes doubled, and a row's lone empty field
is `""`.  Lines go to `<out>.tmp`, which replaces `out` only once the last
row is written; a run that raises leaves no `.tmp` and any earlier `out` as
it was.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, NumericalError
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
# 0.6.0: every Hermitian Toeplitz matrix is built and decomposed in real
# symmetric form, which moves last bits of every driver; the sweep writes na
# for an ideal error past the exact overlap's rank, and optimal-threshold's
# mean_n_eps averages over every trial, as the sweep's does.
# 0.7.0: reduced pairs are solved for their eigenvalues only (eigvalsh), and
# the sweep takes every k from one projection onto all n overlap directions,
# which moves last bits of the sweep and of perturbation-bound's e0_sampled;
# singular-spectrum writes na for an exact value past the overlap's rank.
ARTIFACT_VERSION = "0.7.0"

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


def format_value(v) -> str:
    if v is None:
        return "na"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


_RUN = 4096  # rows of a column block formatted at a time
_BOOL = ("0", "1")  # a bool cell by its value

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
    row_count: int


def _finite(value) -> bool:
    """Whether a block value holds no nan or infinity: a float, or every float
    of an array (an object column's floats among its other cells)."""
    if type(value) is not np.ndarray:
        return not isinstance(value, float) or math.isfinite(value)
    if value.dtype.kind == "f":
        return bool(np.isfinite(value).all())
    return value.dtype.kind != "O" or all(map(_finite, value.tolist()))


def _quoted(text: str, alone: bool) -> str:
    """A cell as csv's minimal quoting writes it: in quotes, its quotes
    doubled, if it holds a delimiter, a quote or a line break, or if it is
    empty and alone on its row, which would otherwise be a blank line."""
    if "," in text or '"' in text or "\r" in text or "\n" in text or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(run: np.ndarray, alone: bool) -> list:
    """A run of a block column, as its line template (`_text`) takes it: a
    float or int array's own values, which %r and %s format as repr and str
    do; a bool array's "1" and "0"; any other array's format_value, quoted."""
    values = run.tolist()
    if run.dtype.kind in "fiu":
        return values
    if run.dtype.kind == "b":
        return [_BOOL[v] for v in values]
    return [_quoted(format_value(v), alone) for v in values]


def _text(block: Mapping, columns: Sequence[str], rows: int) -> Iterator[str]:
    """A block's lines as text, _RUN rows at a time.  Each constant is
    formatted and quoted once, into a line template with a %r per float
    column and a %s per other array column; the line end is a %s too, filled
    from a column of its own, so that a block with no array column still
    gives its rows."""
    alone = len(columns) == 1
    template, arrays = [], []
    for c in columns:
        value = block.get(c)
        if type(value) is np.ndarray:
            template.append("%r" if value.dtype.kind == "f" else "%s")
            arrays.append(value)
        else:
            template.append(_quoted(format_value(value), alone).replace("%", "%%"))
    line = ",".join(template) + "%s"
    for i in range(0, rows, _RUN):
        runs = [_cells(a[i : i + _RUN], alone) for a in arrays]
        ends = repeat("\r\n", min(_RUN, rows - i))
        yield "".join(map(line.__mod__, zip(*runs, ends)))


def write_csv(
    path: str,
    columns: Sequence[str],
    blocks: Iterable[Mapping],
    cfg: ExperimentConfig,
) -> int:
    """Write blocks of rows with the traceability header, each as it arrives;
    return how many rows were written.

    A block maps column names to values: a numpy array is a column of one
    value per row, every array of a block of the same length, and any other
    value repeats on each of its rows; a block with no array (a dict of
    scalars) is one row.  The column header, and each block once it is
    checked, is written through one line template, a run of rows at a time
    (`_text`); a nan or infinity in any of a block's values is a
    NumericalError naming the column.

    The file is `path` + ".tmp" until the last row is written, then renamed
    onto `path` by os.replace, which leaves no moment without `path`; on
    ext4, a rename over an existing file starts writing the new one's data
    out first, so a crash leaves no zero-length `path`.  That is kept at its
    cost: about 0.1 ms for a 3 KB file and 5-6 ms for 2.7 MB (medians; ext4,
    2-core x86-64), tens of ms when the disk is busy, against 0.01 ms onto a
    fresh path.  If a block or the iterable raises, the `.tmp` is removed and
    `path` is left as it was.  A `path` that exists but is no regular file (a
    device such as /dev/null, or a pipe) cannot be renamed onto, so it is
    written in place.  An output that cannot be opened (a directory, or a
    path under a missing one) is a ConfigError naming `path`.
    """
    known = set(columns)
    staged = os.path.isfile(path) or not os.path.exists(path)
    tmp = f"{path}.tmp" if staged else path
    count = 0
    try:
        f = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror or exc}") from exc
    try:
        with f:
            f.write(
                f"# config={config_hash(cfg)} seed={cfg.seed} "
                f"version={ARTIFACT_VERSION}\r\n"
            )
            f.writelines(_text(dict(zip(columns, columns)), columns, 1))
            for block in blocks:
                extra = block.keys() - known
                if extra:
                    raise ValueError(f"row has unknown fields {sorted(extra)}")
                for name, value in block.items():
                    if not _finite(value):
                        raise NumericalError(f"{name} is not finite: no CSV cell is nan or inf")
                lengths = {len(v) for v in block.values() if type(v) is np.ndarray}
                if len(lengths) > 1:
                    raise ValueError(f"block columns have unequal lengths {sorted(lengths)}")
                (rows,) = lengths or {1}  # a dict of scalars is one row
                f.writelines(_text(block, columns, rows))
                count += rows
        if staged:
            os.replace(tmp, path)
    except BaseException:
        if staged and os.path.exists(tmp):
            os.remove(tmp)
        raise
    return count
