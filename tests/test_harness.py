"""Configuration parsing, CSV records, and the experiment drivers.

Driver tests run at desk scale (tiny budgets, a handful of trials) and check
row structure plus the worker-count independence of the output bytes.
"""

import csv
import dataclasses
import errno
import hashlib
import importlib
import importlib.util
import io
import math
import os
import pickle
import re
import signal
import stat
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qksd import bounds, cli
from qksd.errors import (
    ConfigError,
    EmptyBasisError,
    IllPosedError,
    InfeasibleBudgetError,
    NumericalError,
    ResourceLimitError,
)
from qksd.gevp import basis_thresholding, solve_gevp, top_k_thresholding
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
from qksd.harness.records import _RUN, config_hash, format_value, write_csv
from qksd.krylov import CONSTRUCTIONS
from qksd.sampling import Sampler, draw_shared

from csvrows import read_rows
from oracles import (
    chi_reference,
    complex_path,
    cond_reference,
    eigenangle_flags_reference,
    exact_matrix_variance,
    expected_norm_from_variance,
    matrix_series_terms,
    per_cell_chunk,
    sample_pair,
    variance_statistic,
)


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
    with pytest.raises(ConfigError, match="largest supported"):
        ExperimentConfig(m_list=(10**6, 10**15 + 1))
    with pytest.raises(ConfigError, match="int64"):
        ExperimentConfig(seed=-(2**63) - 1)
    assert ExperimentConfig(m_list=(10**15,), seed=-(2**63)).seed == -(2**63)


def test_hardware_r_is_unknown_key(tmp_path, capsys):
    """Decay is set by hardware_lambda alone: hardware_r and hardware_depth
    are unknown keys, a config error (exit 2)."""
    with pytest.raises(ConfigError, match="unknown config keys: hardware_depth, hardware_r"):
        config_from_mapping({"L": "2", "hardware_r": "0.999", "hardware_depth": "100"})
    conf = tmp_path / "decay.conf"
    conf.write_text("L = 2\nn = 3\nM = 1e4\ntrials = 2\nhardware_r = 0.999\n")
    assert cli.main(["error-norms", "--config", str(conf)]) == 2
    assert "unknown config keys: hardware_r" in capsys.readouterr().err


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
    count = write_csv(
        str(path),
        ("x", "y"),
        (row for row in [{"x": 1, "y": None}, {"x": 0.25, "y": False}]),
        cfg,
    )
    assert count == 2
    assert list(tmp_path.iterdir()) == [path]  # the .tmp was renamed onto it
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
    path = tmp_path / "x.csv"
    path.write_bytes(b"earlier\r\n")
    with pytest.raises(ValueError, match="unknown fields"):
        write_csv(str(path), ("a",), [{"a": 1}, {"a": 1, "b": 2}], cfg)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"earlier\r\n"


def test_write_csv_blocks_format_as_format_value(tmp_path, monkeypatch):
    """A block's float, int and bool arrays are columns of one value a row,
    each element formatted as format_value formats it, here two elements at a
    time; its other values repeat on every row, and a dict of scalars is one
    row."""
    monkeypatch.setattr("qksd.harness.records._RUN", 2)
    floats = np.array([0.1, 1 / 3, -2.5e-300, 1e22, -0.0])
    ints = np.array([0, -7, 2**40, 3, 12])
    flags = np.array([True, False, True, True, False])
    path = tmp_path / "blocks.csv"
    block = {"f": floats, "i": ints, "b": flags, "s": 0.25, "t": True}
    count = write_csv(
        str(path), ("f", "i", "b", "s", "t", "z"), [block, {"f": 1.5}], ExperimentConfig()
    )
    assert count == 6
    rows = zip(floats.tolist(), ints.tolist(), flags.tolist())
    want = [
        ",".join(map(format_value, (f, i, b, 0.25, True, None))) for f, i, b in rows
    ] + ["1.5,na,na,na,na,na"]
    assert path.read_bytes().decode().split("\r\n")[2:] == [*want, ""]


def test_write_csv_refuses_unequal_block_columns(tmp_path):
    """Columns of unequal length raise ValueError and leave neither the CSV
    nor its .tmp."""
    blocks = [{"a": 1}, {"a": np.arange(3), "b": np.arange(2.0)}]
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv(str(tmp_path / "u.csv"), ("a", "b"), blocks, ExperimentConfig())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("where", ("float column", "object column", "scalar row"))
def test_write_csv_refuses_non_finite(tmp_path, where, bad):
    """A nan or infinity in a float column, in an object column next to None,
    or in a dict of scalars is a NumericalError naming its column, and leaves
    neither the CSV nor its .tmp."""
    first = {"a": np.arange(2), "b": np.array([0.5, 1.5])}
    block = {
        "float column": {"a": np.arange(2), "b": np.array([0.5, bad])},
        "object column": {"a": np.arange(2), "b": np.array([None, bad], dtype=object)},
        "scalar row": {"a": 3, "b": np.float64(bad)},
    }[where]
    path = tmp_path / "f.csv"
    with pytest.raises(NumericalError, match="^b is not finite"):
        write_csv(str(path), ("a", "b"), [first, block], ExperimentConfig())
    assert list(tmp_path.iterdir()) == []


def test_write_csv_empty_block_writes_nothing(tmp_path):
    """A zero-length block writes no line and counts no row."""
    path = tmp_path / "e.csv"
    blocks = [{"a": np.arange(0), "b": 1.5}, {"a": 2}, {"b": np.array([], dtype=bool)}]
    assert write_csv(str(path), ("a", "b"), blocks, ExperimentConfig()) == 1
    assert path.read_bytes().split(b"\r\n")[1:] == [b"a,b", b"2,na", b""]


def test_write_csv_lone_empty_field_is_quoted(tmp_path):
    """An empty cell alone on its row is written as `""`, in a dict of
    scalars and in a column block alike, so csv.reader reads it back as one
    empty field rather than a blank line."""
    path = tmp_path / "lone.csv"
    blocks = [{"x": ""}, {"x": np.array(["", "y"])}]
    assert write_csv(str(path), ("x",), blocks, ExperimentConfig()) == 3
    with open(path, newline="") as f:
        assert list(csv.reader(f))[1:] == [["x"], [""], [""], ["y"]]


def test_write_csv_rejects_unknown_block_field(tmp_path):
    """A block naming a column the file does not have raises, as a row does."""
    blocks = [{"a": np.arange(2)}, {"a": np.arange(2), "c": np.arange(2)}]
    with pytest.raises(ValueError, match=r"unknown fields \['c'\]"):
        write_csv(str(tmp_path / "k.csv"), ("a",), blocks, ExperimentConfig())
    assert list(tmp_path.iterdir()) == []


def _csv_writer_bytes(columns, blocks) -> tuple[bytes, int]:
    """The header and rows as csv.writer writes them, row by row, each cell
    format_value of its value: a block's arrays element by element (as
    Python scalars), its other values on every row; and the row count."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(columns)
    count = 0
    for block in blocks:
        arrays = {c: v.tolist() for c, v in block.items() if type(v) is np.ndarray}
        rows = len(next(iter(arrays.values()))) if arrays else 1
        count += rows
        for r in range(rows):
            writer.writerow(
                [format_value(arrays[c][r] if c in arrays else block.get(c)) for c in columns]
            )
    return text.getvalue().encode(), count


_SPECIAL_TEXT = st.one_of(
    st.sampled_from(("a,b", 'say "x"', "cr\r", "lf\n", "%s", "50%")),
    st.text(alphabet=',"\r\n% ab', max_size=5),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INT64 = st.integers(-(2**63), 2**63 - 1)
_SCALAR = st.one_of(st.none(), st.booleans(), _INT64, _FINITE, _SPECIAL_TEXT)


@st.composite
def _blocks(draw):
    """Column names, and blocks over them: column blocks whose arrays (float,
    int, bool, object arrays of None and floats, str arrays) share a length,
    zero included, next to constants, mostly text, and missing columns; and
    dicts of scalars."""
    columns = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6, unique=True))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # a dict of scalars
            names = draw(st.lists(st.sampled_from(columns), unique=True))
            blocks.append({c: draw(_SCALAR) for c in names})
            continue
        rows = draw(st.integers(0, 6))
        cells = {
            "float": _FINITE,
            "int": _INT64,
            "bool": st.booleans(),
            "object": st.one_of(st.none(), _FINITE),
            "str": st.one_of(st.sampled_from(("holds", "violated", "unknown")), _SPECIAL_TEXT),
        }
        dtypes = {"float": float, "int": np.int64, "bool": bool, "object": object, "str": str}
        array_at = draw(st.sampled_from(columns))  # a block has an array
        block = {}
        for c in columns:
            kinds = list(cells) if c == array_at else [*cells, "constant", "missing"]
            kind = draw(st.sampled_from(kinds))
            if kind == "constant":
                block[c] = draw(st.one_of(_SPECIAL_TEXT, _SCALAR))
            elif kind != "missing":
                values = draw(st.lists(cells[kind], min_size=rows, max_size=rows))
                block[c] = np.array(values, dtype=dtypes[kind])
        blocks.append(block)
    return columns, blocks


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_write_csv_matches_csv_writer(tmp_path_factory, columns_and_blocks):
    """Column blocks written as joined text, a run of rows at a time, and
    dicts of scalars give the bytes of csv.writer writing format_value cells
    row by row: csv's minimal quoting for a cell holding a delimiter, a quote
    or a line break, and a '%' kept as it is."""
    columns, blocks = columns_and_blocks
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    rows = write_csv(str(path), columns, blocks, ExperimentConfig())
    header, body = path.read_bytes().split(b"\r\n", 1)
    assert header.startswith(b"# config=")
    assert (body, rows) == _csv_writer_bytes(columns, blocks)


def test_write_csv_block_is_written_in_runs(tmp_path):
    """A 30,000-row block is written _RUN rows at a time, as csv.writer would
    write its rows: the write's peak holds one run's cells and text, so it
    does not grow with the rows past the first two runs."""
    columns = ("row_kind", "trial", "norm", "under_bound", "flag", "note")

    def block(rows):
        norms = np.random.default_rng(rows).random(rows)
        return {
            "row_kind": "trial", "trial": np.arange(rows), "norm": norms,
            "under_bound": norms < 0.5,
            "flag": np.where(norms < 0.25, "holds", "violated"), "note": 'a "b", c',
        }

    peaks = {}
    for rows in (2 * _RUN, 30_000):
        blocks = [block(rows)]
        path = tmp_path / f"{rows}.csv"
        tracemalloc.start()
        try:
            assert write_csv(str(path), columns, blocks, ExperimentConfig()) == rows
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        body = path.read_bytes().split(b"\r\n", 1)[1]
        assert (body, rows) == _csv_writer_bytes(columns, blocks)
    assert peaks[30_000] < 1.25 * peaks[2 * _RUN], peaks


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_write_csv_into_a_pipe(tmp_path):
    """A path that is no regular file is written in place, not renamed onto."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert write_csv(str(pipe), ("x",), [{"x": 1}], ExperimentConfig()) == 1
    reader.join(timeout=10)
    assert got and got[0].endswith(b"\r\nx\r\n1\r\n")
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert list(tmp_path.iterdir()) == [pipe]


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


def test_spec_norms_match_largest_singular_value():
    """On a Hermitian stack, the largest |eigenvalue| is the spectral norm."""
    rng = np.random.default_rng(5)
    for n in (2, 9, 25):
        a = rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n))
        stack = a + a.conj().transpose(0, 2, 1)
        np.testing.assert_allclose(
            drivers._spec_norms(stack),
            np.linalg.svd(stack, compute_uv=False)[:, 0],
            rtol=1e-12,
        )


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


def test_error_norm_driver_rows(tmp_path):
    cfg = small_cfg(tmp_path, "norms.csv", n_list=(3, 5))
    rows = read_rows(run_error_norm_ensemble(cfg))
    kinds = {r["row_kind"] for r in rows}
    assert kinds == {"trial", "cell_summary", "slope"}
    trials = [r for r in rows if r["row_kind"] == "trial"]
    # kinds: S toeplitz + H toeplitz, 2 n values, 1 budget, 5 trials
    assert len(trials) == 2 * 2 * 5
    for r in trials:
        assert r["norm"] >= 0
    summaries = [r for r in rows if r["row_kind"] == "cell_summary"]
    assert all(0.0 <= r["frac_under"] <= 1.0 for r in summaries)
    slopes = [r for r in rows if r["row_kind"] == "slope"]
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
    rows = read_rows(run_error_norm_ensemble(cfg))
    skipped = [r for r in rows if r["row_kind"] == "skipped"]
    assert len(skipped) == 1
    assert "25" in skipped[0]["note"]


def test_error_norm_driver_skips_starved_cell(tmp_path):
    """A plan that rounds a fragment to zero shots is skipped, not sampled biased.

    At L = 2, n = 9, M = 1000 the elementwise H's 81 configurations get about
    12 shots each, too few to split over its 6 fragments.  The other rows are
    pinned by their sha256, with the skipped row dropped.
    """
    cfg = small_cfg(
        tmp_path, "starved.csv", n_list=(9,), m_list=(1000, 10**6),
        constructions=("toeplitz", "nontoeplitz"), trials=8, seed=11,
    )
    starved = [
        r for r in read_rows(run_error_norm_ensemble(cfg))
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
        "3ce4f65395bbaf230b0fa0498d6d27fe2d170cf73d107e767093410669381f18"
    )


def test_singular_spectrum_driver(tmp_path):
    cfg = small_cfg(tmp_path, "spec.csv", m_list=(10_000, 40_000), trials=20)
    rows = read_rows(run_singular_spectrum(cfg))
    assert len(rows) == 2 * 3  # budgets x indices
    for r in rows:
        assert 1 <= r["index"] <= 3
        assert 0.0 <= r["weyl_fraction"] <= 1.0
        assert r["std_value"] >= 0
    # exact values descending per budget; the overlap has rank 2, so the
    # third is rounding noise (-3.3e-16), written as na
    first = [r["exact_value"] for r in rows if r["m_budget"] == 10_000]
    assert first[2] is None
    assert first[:2] == sorted(first[:2], reverse=True)


def test_exact_overlap_value_is_na_past_its_rank(tmp_path):
    """The shipped singular spectrum (L = 2, n = 15): the exact overlap has two
    eigenvalues of order 1 and 13 at rounding level, so exact_value is written
    for indices 1, 2 and is na wherever it is at most n eps_mach lambda_max(S),
    the sweep's rule for its ideal error."""
    cfg = load_config(
        str(CONFIG_DIR / "singular_spectrum.conf"),
        {"trials": 2, "out": str(tmp_path / "spec.csv")},
    )
    rows = read_rows(run_singular_spectrum(cfg))
    (cell,) = _cells(cfg, drivers.build_system(cfg), [("S", "toeplitz")])
    exact = np.linalg.eigvalsh(cell.s_exact)[::-1]
    floor = cell.n * np.finfo(float).eps * exact[0]
    assert (exact <= floor).tolist() == [False] * 2 + [True] * 13
    for budget in cfg.m_list:
        written = [r["exact_value"] for r in rows if r["m_budget"] == budget]
        assert written == exact[:2].tolist() + [None] * 13
    assert all(r["mean_value"] is not None for r in rows)  # sampled values stay


def test_threshold_sweep_driver(tmp_path):
    cfg = small_cfg(tmp_path, "sweep.csv", trials=8, m_list=(100_000,))
    rows = read_rows(run_threshold_sweep(cfg))
    sweep = [r for r in rows if r["row_kind"] == "sweep"]
    assert [r["k"] for r in sweep] == [1, 2, 3]
    eps_rows = [r for r in rows if r["row_kind"] == "epsilon_rule"]
    assert len(eps_rows) == 1
    assert eps_rows[0]["mean_n_eps"] >= 1.0
    assert eps_rows[0]["epsilon"] > 0


def test_threshold_sweep_driver_walks_every_order(tmp_path):
    """Every Krylov order of the config gets its cells, sweeping k = 1..n with
    its own noiseless sweep, as a run of that order alone would write them."""
    grid = dict(
        trials=4, m_list=(100_000, 200_000), constructions=("toeplitz", "nontoeplitz")
    )
    rows = read_rows(
        run_threshold_sweep(small_cfg(tmp_path, "both.csv", n_list=(3, 5), **grid))
    )
    for n in (3, 5):
        alone = read_rows(
            run_threshold_sweep(small_cfg(tmp_path, f"n{n}.csv", n_list=(n,), **grid))
        )
        assert [r for r in rows if r["n"] == n] == alone
        sweep = [r["k"] for r in alone if r["row_kind"] == "sweep"]
        assert sweep == list(range(1, n + 1)) * 4  # per (construction, M)
    assert len(rows) == 2 * 2 * (3 + 1) + 2 * 2 * (5 + 1)


def test_sweep_ideal_error_is_na_past_the_overlap_rank(tmp_path):
    """The shipped sweep (L = 2, n = 15): the exact overlap has two eigenvalues
    of order 1 and 13 at rounding level, so the exact pair's ideal error is
    written for k = 1, 2 and is na wherever the k-th kept eigenvalue is at
    most n eps_mach lambda_max(S)."""
    cfg = load_config(
        str(CONFIG_DIR / "threshold_sweep.conf"),
        {"trials": 2, "out": str(tmp_path / "sweep.csv")},
    )
    rows = read_rows(run_threshold_sweep(cfg))
    (cell, *_) = _cells(cfg, drivers.build_system(cfg))
    kept = np.linalg.eigvalsh(cell.s_exact)[::-1]
    floor = cell.n * np.finfo(float).eps * kept[0]
    ideal = [r["ideal_rel_error"] for r in rows if r["row_kind"] == "sweep"]
    assert len(ideal) == len(cfg.m_list) * cell.n
    for k, value in enumerate(ideal[: cell.n], 1):
        assert (value is None) == (kept[k - 1] <= floor), k
    assert [k for k, v in enumerate(ideal[: cell.n], 1) if v is not None] == [1, 2]
    assert ideal[cell.n :] == ideal[: cell.n]  # the exact pair has no budget


def test_threshold_rule_rows_share_mean_n_eps(tmp_path):
    """The sweep's epsilon_rule row and optimal-threshold's row of the same
    cell average n_eps over every trial, solved or not.  At hardware_lambda =
    3 the decayed overlap falls below eps in some trials, which keep nothing."""
    cfg = small_cfg(
        tmp_path, "rule.csv", n_list=(9,), m_list=(10_000,), trials=50, seed=5,
        hardware_lambda=3.0, constructions=("toeplitz", "nontoeplitz"),
    )
    sweep = [
        r for r in read_rows(run_threshold_sweep(cfg)) if r["row_kind"] == "epsilon_rule"
    ]
    scan = read_rows(run_optimal_threshold_scan(cfg))
    assert len(sweep) == len(scan) == 2
    for a, b in zip(sweep, scan):
        assert a["trials_used"] == b["trials_used"] < cfg.trials
        assert a["mean_n_eps"] == b["mean_n_eps"] < 1.0


def test_singular_spectrum_refuses_several_orders(tmp_path, monkeypatch):
    """Its rows carry no n, so a second Krylov order is a config error, raised
    before the system is built."""
    def no_build(cfg):
        raise AssertionError("system built")

    monkeypatch.setattr(drivers, "build_system", no_build)
    cfg = small_cfg(tmp_path, "spec.csv", n_list=(3, 5))
    with pytest.raises(ConfigError, match="one Krylov order"):
        run_singular_spectrum(cfg)
    assert not (tmp_path / "spec.csv").exists()


def test_optimal_threshold_scan_driver(tmp_path):
    cfg = small_cfg(tmp_path, "scan.csv", n_list=(3, 5), m_list=(50_000,), trials=6)
    rows = read_rows(run_optimal_threshold_scan(cfg))
    assert len(rows) == 2
    for r in rows:
        assert r["trials_used"] == 6
        assert r["rms_rel_error"] >= r["mean_rel_error"] * 0  # both present
        assert r["m_h"] + r["m_s"] == 50_000


def test_perturbation_driver_rows(tmp_path):
    cfg = small_cfg(tmp_path, "pert.csv", trials=6, m_list=(200_000,))
    rows = read_rows(run_perturbation_vs_bound(cfg))
    trials = [r for r in rows if r["row_kind"] == "trial"]
    assert len(trials) == 6
    for r in trials:
        assert r["eta"] >= max(r["dh_norm"], r["ds_norm"])
        assert r["chi_small"] in ("holds", "violated", "unknown")
        if r["qualifies"]:
            assert r["satisfied"] in (True, False)
        else:
            assert r["satisfied"] is None
    summary = [r for r in rows if r["row_kind"] == "cell_summary"]
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
def two_cpus(monkeypatch):
    """A machine that lends the drivers two CPUs."""
    monkeypatch.setattr(drivers, "_usable_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child the drivers fork, in order."""
    pids = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Per driver: its runner and a grid for three budgets; singular-spectrum
# refuses an infeasible budget, so its three are all feasible.
GROUPED_BUDGETS = {
    "error_norms": (
        run_error_norm_ensemble, {"n_list": (3, 5), "constructions": ("toeplitz", "nontoeplitz")}
    ),
    "singular_spectrum": (run_singular_spectrum, {"n_list": (5,)}),
    "threshold_sweep": (run_threshold_sweep, {}),
    "optimal_threshold": (run_optimal_threshold_scan, {"n_list": (3, 5)}),
    "perturbation_bound": (run_perturbation_vs_bound, {"constructions": ("nontoeplitz",)}),
}


def _lines_by_budget(path: Path) -> dict[bytes, list[bytes]]:
    """A CSV's data lines, grouped by their m_budget field, in file order."""
    header, *lines = path.read_bytes().split(b"\r\n")[1:-1]
    column = header.split(b",").index(b"m_budget")
    grouped: dict[bytes, list[bytes]] = {}
    for line in lines:
        grouped.setdefault(line.split(b",")[column], []).append(line)
    return grouped


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("mode", ("gaussian", "binomial"))
@pytest.mark.parametrize("name", list(GROUPED_BUDGETS))
def test_cell_budgets_match_one_budget_runs(tmp_path, two_cpus, forks, name, mode, workers):
    """A cell samples its budgets from one draw per block.  Each budget's
    lines (trial, summary, skipped and slope rows) are byte-equal to those of
    a run of that budget alone, so no draw leaks from one budget into
    another, and an infeasible budget between two feasible ones keeps its
    skipped rows in config order."""
    runner, grid = GROUPED_BUDGETS[name]
    budgets = (20_000, 40_000 if name == "singular_spectrum" else 4, 100_000)
    cfg = small_cfg(
        tmp_path, "all.csv", trials=4, mode=mode, workers=workers, m_list=budgets, **grid
    )
    runner(cfg)
    grouped = _lines_by_budget(Path(cfg.out))
    assert list(grouped) == [str(m).encode() for m in budgets]
    for m in budgets:
        alone = dataclasses.replace(cfg, m_list=(m,), out=str(tmp_path / f"m{m}.csv"))
        lines = grouped[str(m).encode()]
        try:
            runner(alone)
        except InfeasibleBudgetError:  # error-norms: no cell is feasible at M = 4
            assert m == 4 and all(line.startswith(b"skipped,") for line in lines)
            continue
        assert lines == _lines_by_budget(Path(alone.out))[str(m).encode()]
    # two workers fork a child per trial slice of every job; one forks none
    assert bool(forks) == (workers > 1) and len(forks) % workers == 0
    _no_child_left()


BOTH = ("toeplitz", "nontoeplitz")
POOLED_DRIVERS = {  # grid and its number of jobs, one per construction
    "threshold_sweep": (
        run_threshold_sweep,
        {"n_list": (3, 5), "m_list": (50_000, 100_000), "constructions": BOTH},
        2,
    ),
    "optimal_threshold": (
        run_optimal_threshold_scan, {"n_list": (3, 5), "constructions": BOTH}, 2
    ),
    "perturbation_bound": (
        run_perturbation_vs_bound,
        {"n_list": (3, 5), "m_list": (100_000, 200_000), "constructions": BOTH},
        2,
    ),
    # one Krylov order: one job of one cell, with both budgets
    "singular_spectrum": (run_singular_spectrum, {"m_list": (10_000, 40_000)}, 1),
    # a shipped config at three trials: two jobs of seven Krylov orders and
    # three budgets, each forked as slices of two trials and one over two
    # workers, and of one trial each over three
    "optimal_threshold_conf": (run_optimal_threshold_scan, "optimal_threshold.conf", 2),
}


@pytest.mark.parametrize("name", list(POOLED_DRIVERS))
def test_pooled_driver_output_worker_invariant(tmp_path, monkeypatch, forks, name):
    """Over W workers every job forks exactly W children, one per contiguous
    slice of its trials in order, each running its slice's blocks; one
    worker forks none.  The bytes do not depend on the worker count."""
    runner, grid, jobs = POOLED_DRIVERS[name]
    slices = {1: [], 2: [], 3: []}  # per worker count, each child's blocks
    real_map = drivers._map_chunks

    def counted_map(fn, ranges):
        slices[workers].append((fn, list(ranges)))
        return real_map(fn, ranges)

    monkeypatch.setattr(drivers, "_map_chunks", counted_map)
    out = {}
    for workers in slices:
        monkeypatch.setattr(drivers, "_usable_cpus", lambda: workers)
        path = tmp_path / f"w{workers}.csv"
        if isinstance(grid, str):
            cfg = load_config(
                str(CONFIG_DIR / grid), {"trials": 3, "workers": workers, "out": str(path)}
            )
        else:
            cfg = small_cfg(tmp_path, path.name, trials=7, workers=workers, **grid)
        runner(cfg)
        out[workers] = path.read_bytes()
        forked = slices[workers]
        assert len(forks) == sum(len(s) for s in slices.values())
        assert len(forked) == (jobs * workers if workers > 1 else 0)
        for job in range(0, len(forked), workers):
            children = forked[job : job + workers]
            assert len({fn for fn, _ in children}) == 1  # one job's chunk
            blocks = [block for _, ranges in children for block in ranges]
            assert [start for start, _ in blocks] == list(
                np.cumsum([0] + [count for _, count in blocks])[:-1]
            )
            covered = [(ranges[0][0], sum(c for _, c in ranges)) for _, ranges in children]
            assert covered == _chunk_ranges(cfg.trials, workers)
    assert out[1] == out[2] == out[3]
    _no_child_left()


def test_no_child_outlives_a_run(tmp_path, monkeypatch, two_cpus, forks):
    """A two-worker run forks two children per job and reaps them all on
    return; when its writer raises once the first job's rows are in, the
    first job's children are reaped and the second job's not yet forked, so
    no child is alive, and the run leaves no CSV and no .tmp.  One worker
    forks nothing."""
    cfg = small_cfg(
        tmp_path, "scan.csv", n_list=(3, 5), m_list=(50_000, 100_000),
        constructions=BOTH, trials=4, workers=2,
    )
    res = run_optimal_threshold_scan(cfg)
    assert [r["trials_used"] for r in read_rows(res)] == [4] * 8
    assert len(forks) == 2 * 2
    _no_child_left()

    run_optimal_threshold_scan(dataclasses.replace(cfg, workers=1))
    assert len(forks) == 4
    Path(cfg.out).unlink()

    at_raise = []
    real_write = drivers.write_csv

    def failing_write(path, columns, rows, cfg):
        def first_job_then_raise():
            for row in rows:
                yield row
                if row["construction"] == "toeplitz" and row["n"] == 5:
                    at_raise.append(len(forks))
                    _no_child_left()  # the first job's children are reaped
                    raise OSError("disk full")

        return real_write(path, columns, first_job_then_raise(), cfg)

    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1)  # one-trial blocks
    monkeypatch.setattr(drivers, "write_csv", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_optimal_threshold_scan(cfg)
    assert at_raise == [4 + 2]  # the first job's two children; the next job's not yet
    _no_child_left()
    assert list(tmp_path.iterdir()) == []


def _offset_trials(offset, rng):
    """A trial chunk: its block's trial indices plus offset."""
    start, count = rng
    return (np.arange(start, start + count) + offset,)


def _offset_jobs(offsets, reads=None):
    """One job of one cell per offset, the cell's n holding the offset and its
    one budget's M the job's index; None marks a job whose budget is
    infeasible, so that it samples nothing."""
    for i, offset in enumerate(offsets):
        if reads is not None:
            reads.append(("read", i))
        budget = drivers._Budget(i, note="infeasible" if offset is None else "")
        feasible, samplers = ((), {}) if offset is None else ((budget,), {"S": None})
        yield (drivers._Cell("S", "toeplitz", offset, None, None, (budget,), feasible, samplers),)


@pytest.fixture
def offset_chunks(monkeypatch):
    """Jobs of `_offset_jobs` run columns_of(offset, block) as their chunk,
    and each of their trials counts 1 MiB."""

    def chunk(columns_of, job, rng):
        ((cell,),) = job
        return columns_of(cell.n, rng)

    monkeypatch.setattr(drivers, "_per_job", chunk)
    monkeypatch.setattr(drivers, "_trial_bytes", lambda cell, stacks: 1 << 20)


@pytest.mark.parametrize("workers", (1, 2))
def test_stream_keeps_job_order(forks, monkeypatch, offset_chunks, workers):
    """Budgets come back in job order with their cells' trials in order, and a
    skipped job's budget passes through with no columns, at one worker and
    two; a skipped job forks nothing."""
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 2 << 20)  # two trials a block
    offsets = [None, 0, 100, None, 200, 300, None]
    cfg = ExperimentConfig(trials=5, workers=workers)
    out = list(drivers._sampled(cfg, _offset_jobs(offsets), _offset_trials, stacks=1))
    assert [budget.m for _, budget, _ in out] == list(range(len(offsets)))
    for (_, _, share), offset in zip(out, offsets):
        if offset is None:
            assert share is None
        else:
            (column,) = share
            assert column.tolist() == list(range(offset, offset + 5))
    assert len(forks) == (4 * workers if workers > 1 else 0)  # none for a skipped job
    _no_child_left()


class _Collected(NamedTuple):
    """A forked child's handle that logs when it is collected."""

    child: object
    events: list

    def result(self):
        self.events.append(("collect", self.child.pid))
        return self.child.result()


@pytest.mark.parametrize("workers", (1, 2))
def test_stream_runs_one_job_at_a_time(monkeypatch, offset_chunks, workers):
    """Each job is read, then its blocks run inline at one worker, or its two
    children are forked and collected in slice order at two, and only then
    is its budget taken: no job is read before the previous job's budget has
    been taken, a skipped job runs and forks nothing, and no child is left
    at any taken budget."""
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1 << 20)  # one-trial blocks
    events = []
    real_map = drivers._map_chunks

    def chunk(offset, rng):
        events.append(("run", offset))  # in a child, at two workers: not seen here
        return _offset_trials(offset, rng)

    def tracked_map(fn, ranges):
        child = real_map(fn, ranges)
        ((cell,),) = fn.args[1]  # fn is the job's chunk over (columns_of, job)
        events.append(("fork", cell.n, child.pid))
        return _Collected(child, events)

    monkeypatch.setattr(drivers, "_map_chunks", tracked_map)
    offsets = [0, 100, None, 200]
    cfg = ExperimentConfig(trials=3, workers=workers)
    for _, budget, _ in drivers._sampled(cfg, _offset_jobs(offsets, events), chunk, stacks=1):
        _no_child_left()
        events.append(("taken", budget.m))
    pids = iter(event[2] for event in events if event[0] == "fork")
    expected = []
    for i, offset in enumerate(offsets):
        expected.append(("read", i))
        if offset is not None and workers == 1:
            expected += [("run", offset)] * 3  # three one-trial blocks
        elif offset is not None:
            children = [next(pids), next(pids)]  # slices of two trials and one
            expected += [("fork", offset, pid) for pid in children]
            expected += [("collect", pid) for pid in children]
        expected.append(("taken", i))
    assert events == expected
    assert next(pids, None) is None


@pytest.mark.parametrize("workers", (2, 3))
def test_stream_forks_a_contiguous_slice_per_worker(monkeypatch, workers):
    """Each of a job's W children runs one contiguous slice of its trials, in
    blocks of as many trials as fit the byte budget and a last block of the
    slice's rest; the columns join in trial order."""
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 2 << 20)  # two trials a block
    runs = []
    real_map = drivers._map_chunks

    def recording_map(fn, ranges):
        runs.append(list(ranges))
        return real_map(fn, ranges)

    monkeypatch.setattr(drivers, "_map_chunks", recording_map)
    cfg = ExperimentConfig(trials=10, workers=workers)
    (column,) = drivers._trial_columns(cfg, lambda rng: _offset_trials(0, rng), 1 << 20)
    assert column.tolist() == list(range(10))
    assert runs == {  # full blocks of two trials, then the slice's rest
        2: [[(0, 2), (2, 2), (4, 1)], [(5, 2), (7, 2), (9, 1)]],
        3: [[(0, 2), (2, 2)], [(4, 2), (6, 1)], [(7, 2), (9, 1)]],
    }[workers]
    _no_child_left()


def _scan_cfg(tmp_path, **kw):
    return small_cfg(
        tmp_path, "scan.csv", n_list=(3, 5), m_list=(50_000, 100_000),
        constructions=BOTH, trials=4, workers=2, **kw,
    )


def test_child_error_raises_lowest_slice_first(tmp_path, monkeypatch, two_cpus, forks):
    """A chunk that raises in every child raises, in the parent, the same
    type and message as the lowest slice's, and on Python 3.11 and later
    carries the child's traceback, which names the raising function, as a
    note; the run leaves no CSV, no .tmp and no child."""

    def failing_job(columns_of, job, rng):
        raise LookupError(f"block at trial {rng[0]}")

    monkeypatch.setattr(drivers, "_per_job", failing_job)
    with pytest.raises(LookupError) as info:
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert str(info.value) == "block at trial 0"  # pytest's match reads notes too
    if sys.version_info >= (3, 11):
        (trace,) = info.value.__notes__
        assert trace.startswith("Traceback") and "in failing_job" in trace
        assert trace.rstrip().endswith("LookupError: block at trial 0")
    assert len(forks) == 2  # the first job's two slices: trials 0-1 and 2-3
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def test_error_building_next_job_raises_after_rows(tmp_path, monkeypatch, two_cpus, forks):
    """The next job is built once the current job's rows have been taken:
    an error in building it raises only once they have reached write_csv,
    and the run leaves no CSV, no .tmp and no child."""
    real_targets, real_write = drivers.targets_for, drivers.write_csv
    written = []

    def targets_for(system, n, construction):
        if construction == "nontoeplitz":
            raise ArithmeticError("second job")
        return real_targets(system, n, construction)

    def recording_write(path, columns, rows, cfg):
        return real_write(path, columns, (written.append(r) or r for r in rows), cfg)

    monkeypatch.setattr(drivers, "targets_for", targets_for)
    monkeypatch.setattr(drivers, "write_csv", recording_write)
    with pytest.raises(ArithmeticError, match="second job"):
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert [(r["construction"], r["n"], r["m_budget"]) for r in written] == [
        ("toeplitz", n, m) for n in (3, 5) for m in (50_000, 100_000)
    ]
    assert len(forks) == 2
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def test_killed_child_names_its_pid_and_signal(tmp_path, monkeypatch, two_cpus, forks):
    """A child killed by a signal before it sends its results raises an
    error naming its pid and the signal; the run leaves no CSV, no .tmp and
    no child."""
    parent = os.getpid()

    def killed_job(columns_of, job, rng):
        if os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(drivers, "_per_job", killed_job)
    killed = rf"child (\d+) was killed by signal {int(signal.SIGKILL)}$"
    with pytest.raises(RuntimeError, match=killed) as info:
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert re.search(r"child (\d+)", str(info.value))[1] == str(forks[0])
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


@pytest.mark.parametrize(
    "code, cut", [(0, False), (5, False), (0, True)], ids=("exit0", "exit5", "truncated")
)
def test_child_without_a_whole_pickle_names_its_status(
    tmp_path, monkeypatch, two_cpus, forks, code, cut
):
    """A child that exits before it sends its results, with status 0 or 5, or
    whose pickle is cut off halfway, raises an error naming its pid and its
    exit status; the run leaves no CSV, no .tmp and no child."""
    parent = os.getpid()
    real_job, real_dumps = drivers._per_job, pickle.dumps

    def exiting_job(columns_of, job, rng):
        if os.getpid() != parent and not cut:  # never the test process itself
            os._exit(code)
        return real_job(columns_of, job, rng)

    def cut_dumps(obj, protocol=None):
        sent = real_dumps(obj, protocol)
        return sent if os.getpid() == parent else sent[: len(sent) // 2]

    monkeypatch.setattr(drivers, "_per_job", exiting_job)
    if cut:
        monkeypatch.setattr(pickle, "dumps", cut_dumps)
    with pytest.raises(RuntimeError, match=rf"child (\d+) exited with status {code}$") as info:
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert re.search(r"child (\d+)", str(info.value))[1] == str(forks[0])
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


class _NeedsTwoArguments(Exception):
    """Pickles, but unpickling calls __init__ with args alone and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("local", (True, False))
def test_unpicklable_child_error_arrives_as_its_repr(tmp_path, monkeypatch, two_cpus, local):
    """An exception a child cannot send as it is (a class pickle cannot find,
    or one that does not unpickle) arrives as a RuntimeError carrying its
    repr; the run leaves no CSV, no .tmp and no child."""

    class Local(Exception):
        pass

    error = Local("no class to find") if local else _NeedsTwoArguments("bad", "block")

    def failing_job(columns_of, job, rng):
        raise error

    monkeypatch.setattr(drivers, "_per_job", failing_job)
    with pytest.raises(RuntimeError) as info:
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert str(info.value) == repr(error)
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


@pytest.mark.parametrize("code", (errno.EAGAIN, errno.ENOMEM))
def test_failed_fork_is_a_resource_limit(tmp_path, monkeypatch, capsys, two_cpus, code):
    """A fork the system refuses raises ResourceLimitError (exit code 2) and
    leaves no CSV, no .tmp and no child."""

    def refused_fork():
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "fork", refused_fork)
    with pytest.raises(ResourceLimitError, match="cannot fork"):
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    out = tmp_path / "cli.csv"
    argv = ["optimal-threshold", "--config", str(CONFIG_DIR / "optimal_threshold.conf"),
            "--trials", "2", "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "cannot fork" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def test_fork_refused_at_second_slice(tmp_path, monkeypatch, capsys, two_cpus):
    """A fork refused at a job's second slice, its first slice's child
    already running, raises ResourceLimitError (exit code 2); the first child
    is killed and reaped, and the run leaves no CSV and no .tmp."""
    pids = []
    real_fork = os.fork

    def second_refused():
        if len(pids) % 2:  # every second fork, counting from one per run
            pids.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", second_refused)
    with pytest.raises(ResourceLimitError, match="cannot fork"):
        run_optimal_threshold_scan(_scan_cfg(tmp_path))
    assert len(pids) == 2 and pids[1] is None
    _no_child_left()
    out = tmp_path / "cli.csv"
    argv = ["optimal-threshold", "--config", str(CONFIG_DIR / "optimal_threshold.conf"),
            "--trials", "2", "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "cannot fork" in capsys.readouterr().err
    assert len(pids) == 4 and pids[3] is None
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


@pytest.mark.parametrize("workers", (1, 2))
def test_out_of_memory_is_a_resource_limit(
    tmp_path, monkeypatch, capsys, two_cpus, forks, workers
):
    """A MemoryError, raised inline at one worker or in a forked child at two,
    exits 2 as a resource limit, with its message, and leaves no CSV, no .tmp
    and no child.  The chunk raises it; nothing is allocated to trigger it."""

    def exhausted(args, stacks, i):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(drivers, "_scan_columns", exhausted)
    out = tmp_path / "cli.csv"
    argv = ["optimal-threshold", "--config", str(CONFIG_DIR / "optimal_threshold.conf"),
            "--trials", "2", "--workers", str(workers), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "resource limit: out of memory: Unable to allocate 1.00 TiB\n"
    assert bool(forks) == (workers > 1)
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def test_workers_off_linux_is_a_config_error(tmp_path, monkeypatch, capsys, two_cpus):
    """Forking is used on Linux only: elsewhere, a run whose worker count
    comes to more than one exits 2 naming the platform, before the system is
    built or any file is opened; one worker runs."""
    monkeypatch.setattr(sys, "platform", "darwin")
    out = tmp_path / "scan.csv"
    argv = ["optimal-threshold", "--config", str(CONFIG_DIR / "optimal_threshold.conf"),
            "--trials", "2", "--out", str(out)]
    assert cli.main([*argv, "--workers", "2"]) == 2
    assert "darwin" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert cli.main([*argv, "--workers", "1"]) == 0
    assert out.exists()
    out.unlink()

    def never(*args):
        raise AssertionError("the run went past its worker count")

    monkeypatch.setattr(drivers, "build_system", never)  # _run refuses before it
    cfg = ExperimentConfig(trials=2, workers=2, out=str(out))
    with pytest.raises(ConfigError, match="Linux"):
        drivers._run(cfg, drivers.SCAN_COLUMNS, never)
    assert list(tmp_path.iterdir()) == []


def test_driver_rows_match_written_file(tmp_path):
    cfg = small_cfg(tmp_path, "again.csv", trials=3)
    res = run_error_norm_ensemble(cfg)
    text = (tmp_path / "again.csv").read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[1].split(",")[0] == "row_kind"
    # one line per row plus comment, header, and trailing newline
    assert len(lines) == res.row_count + 3


# Per driver: the columns function its chunks call and a grid of two
# (construction, n) cells or more; singular-spectrum has one Krylov order, so
# one cell and one job.
FAILING_RUNS = {
    "error_norms": (run_error_norm_ensemble, "_norm_columns", {"n_list": (3, 5)}),
    "singular_spectrum": (
        run_singular_spectrum, "_spectrum_columns", {"m_list": (10_000, 40_000)}
    ),
    "threshold_sweep": (
        run_threshold_sweep, "_sweep_columns", {"n_list": (3, 5), "m_list": (50_000, 100_000)}
    ),
    "optimal_threshold": (run_optimal_threshold_scan, "_scan_columns", {"n_list": (3, 5)}),
    "perturbation_bound": (
        run_perturbation_vs_bound, "_perturbation_columns",
        {"n_list": (3, 5), "m_list": (100_000, 200_000)},
    ),
}


@pytest.mark.parametrize("name", list(FAILING_RUNS))
def test_run_raising_mid_stream_leaves_no_file(tmp_path, monkeypatch, name):
    """A run of two constructions that raises in its second job's chunk
    (singular-spectrum: at its second budget), once the first job's rows
    have reached write_csv and `<out>.tmp`, leaves neither `out` nor
    `out.tmp`, and an earlier `out` keeps its bytes."""
    runner, columns_of, grid = FAILING_RUNS[name]
    if name == "singular_spectrum":  # one job, whatever the grid
        columns_of, grid = None, {"m_list": (10_000, 4)}  # 4 is infeasible
    cfg = small_cfg(tmp_path, "run.csv", constructions=BOTH, **grid)
    out, tmp = Path(cfg.out), Path(f"{cfg.out}.tmp")
    jobs = []  # each (kind, construction) whose chunk has run, in order
    if columns_of:
        real = getattr(drivers, columns_of)

        def second_job_raises(args, stacks, i):
            job = args[0].kind, args[0].construction
            if job not in jobs:
                jobs.append(job)
            if len(jobs) == 2:
                raise RuntimeError("second job")
            return real(args, stacks, i)

        monkeypatch.setattr(drivers, columns_of, second_job_raises)
    real_write = drivers.write_csv
    at_raise = []  # per run, (rows handed to write_csv, whether the .tmp exists)

    def recording_write(path, columns, rows, cfg):
        def recorded():
            written = 0
            try:
                for written, row in enumerate(rows, 1):
                    yield row
            except Exception:
                at_raise.append((written, tmp.exists()))
                raise

        return real_write(path, columns, recorded(), cfg)

    monkeypatch.setattr(drivers, "write_csv", recording_write)
    error, match = (RuntimeError, InfeasibleBudgetError), "second job|below one shot"
    with pytest.raises(error, match=match):
        runner(cfg)
    assert list(tmp_path.iterdir()) == []

    jobs.clear()
    out.write_bytes(b"an earlier run\r\n")
    with pytest.raises(error, match=match):
        runner(cfg)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"an earlier run\r\n"
    (written, tmp_existed), again = at_raise
    assert written > 0, "no row reached write_csv before the raise"
    assert tmp_existed, "rows are not streamed to the .tmp"
    assert again == (written, True)


def test_perturbation_rows_are_checked_finite(tmp_path, monkeypatch):
    """A nan chi in a solved trial is refused by the writer, naming its
    column: the driver raises NumericalError, and the CLI exits 4 with no
    file left."""

    def nan_chi(ex, h, vals, vecs, dims):
        return np.full(len(dims), math.nan)

    monkeypatch.setattr(drivers, "chi_between_thresholds", nan_chi)
    with pytest.raises(NumericalError, match="^chi is not finite"):
        run_perturbation_vs_bound(small_cfg(tmp_path, "nan.csv", trials=2))
    assert list(tmp_path.iterdir()) == []
    conf = tmp_path / "nan.conf"
    conf.write_text("L = 2\nn = 3\nM = 1e4\ntrials = 2\nseed = 3\nworkers = 1\n")
    out = tmp_path / "nan_cli.csv"
    assert cli.main(["perturbation-bound", "--config", str(conf), "--out", str(out)]) == 4
    assert not out.exists() and not Path(f"{out}.tmp").exists()


def test_error_norms_non_finite_norm_exits_4(tmp_path, monkeypatch, capsys):
    """A nan spectral norm reaches no CSV: error-norms exits 4 through the CLI
    and leaves neither the file nor its .tmp."""
    monkeypatch.setattr(drivers, "_spec_norms", lambda stack: np.full(len(stack), math.nan))
    conf = tmp_path / "norms.conf"
    conf.write_text("L = 2\nn = 3\nM = 1e4\ntrials = 2\nseed = 3\nworkers = 1\n")
    out = tmp_path / "norms.csv"
    assert cli.main(["error-norms", "--config", str(conf), "--out", str(out)]) == 4
    assert "numerical failure: norm is not finite" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.tmp").exists()


def test_perturbation_non_finite_energy_is_ill_posed(tmp_path, monkeypatch):
    """A non-finite stacked energy at n_eps > 0 raises IllPosedError, exit 4."""
    real = drivers.top_k_ground_energies

    def overflowing(h, vals, vecs, dims):
        energies = real(h, vals, vecs, dims)
        energies[dims > 0] = math.nan  # as an overflowing B^-1/2 A B^-1/2 gives
        return energies

    monkeypatch.setattr(drivers, "top_k_ground_energies", overflowing)
    with pytest.raises(IllPosedError, match="^trial 0: B.* is not finite"):
        run_perturbation_vs_bound(small_cfg(tmp_path, "ill.csv", trials=2))
    conf = tmp_path / "ill.conf"
    conf.write_text("L = 2\nn = 3\nM = 1e4\ntrials = 2\nseed = 3\n")
    out = tmp_path / "ill_cli.csv"
    assert cli.main(["perturbation-bound", "--config", str(conf), "--out", str(out)]) == 4
    assert not out.exists()


def na_columns(row: dict) -> frozenset:
    return frozenset(c for c, v in row.items() if v is None)


def test_perturbation_empty_sampled_basis(tmp_path, monkeypatch):
    """A sampled S~ with no direction above eps gives a full 'na' trial row:
    every trial column a solved trial fills is filled, and only the solve's
    own columns are na."""
    cfg = small_cfg(tmp_path, "full.csv", trials=2, m_list=(200_000,))
    full = read_rows(run_perturbation_vs_bound(cfg))
    summary_only = {"qualifying_trials", "satisfaction_rate"}
    solved = [r for r in full if r["row_kind"] == "trial"]
    assert len(solved) == 2
    for r in solved:  # satisfied is na unless the trial qualifies
        assert na_columns(r) - {"satisfied"} == summary_only
        assert (r["satisfied"] is None) == (r["qualifies"] == 0)

    real_eigh = drivers._sampled_eigh

    def no_overlap_above_eps(*args):
        h_stack, s_stack, vals, vecs, dims = real_eigh(*args)
        return h_stack, s_stack, np.zeros_like(vals), vecs, np.zeros_like(dims)

    monkeypatch.setattr(drivers, "_sampled_eigh", no_overlap_above_eps)
    rows = read_rows(
        run_perturbation_vs_bound(dataclasses.replace(cfg, out=str(tmp_path / "e.csv")))
    )
    trials = [r for r in rows if r["row_kind"] == "trial"]
    assert len(trials) == 2
    empty = {"n_eps", "chi", "e0_sampled", "cond_s", "observed", "satisfied"}
    for r in trials:
        assert na_columns(r) == summary_only | empty
        assert r["qualifies"] == 0 and r["satisfied"] is None
        for flag in ("chi_small", "angle_gap", "norms_under", "chi_le_eta", "dims_matched"):
            assert r[flag] == "unknown"
        for col in ("n_eps", "chi", "e0_sampled", "cond_s", "observed"):
            assert r[col] is None
        assert r["eta"] >= max(r["dh_norm"], r["ds_norm"])
    (summary,) = [r for r in rows if r["row_kind"] == "cell_summary"]
    assert summary["qualifying_trials"] == 0
    assert summary["satisfaction_rate"] is None


@pytest.mark.parametrize("block", (1, 16))
def test_stacked_perturbation_rows_match_per_trial_oracle(tmp_path, monkeypatch, block):
    """Each trial row's n_eps, chi, assumption flags, e0_sampled and cond_s are
    the per-trial path's bits (basis_thresholding, solve_gevp, the oracle chi),
    in one-trial blocks and in one 16-trial block.  Shipped perturbation_bound
    at M = 1e6: trial 12 keeps a different dimension from the exact pair."""
    cfg = load_config(
        str(CONFIG_DIR / "perturbation_bound.conf"),
        {"m_list": (10**6,), "trials": 16, "out": str(tmp_path / "p.csv")},
    )
    if block == 1:
        monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1)
    sizes = []
    real_columns = drivers._perturbation_columns

    def recording(args, stacks, i):  # one budget, so one call per block
        sizes.append(len(stacks["H"]))
        return real_columns(args, stacks, i)

    monkeypatch.setattr(drivers, "_perturbation_columns", recording)
    rows = read_rows(run_perturbation_vs_bound(cfg))
    rows = [r for r in rows if r["row_kind"] == "trial"]
    assert sizes == [block] * (16 // block)

    system = drivers.build_system(cfg)
    (cell,) = _cells(cfg, system)
    (budget,) = cell.feasible
    ex = basis_thresholding(cell.h_exact, cell.s_exact, budget.eps)
    sol_ex = solve_gevp(ex.A, ex.B)
    lam_min = float(np.min(ex.b_diagonal))
    targets = drivers.targets_for(system, cell.n, cell.construction)
    plan_h = drivers._plan_for("H", cell.construction, budget.m_h, cell.n, targets.betas)
    plan_s = drivers._plan_for("S", cell.construction, budget.m_s, cell.n, targets.betas)
    h_stack, s_stack = sample_pair(targets, plan_h, plan_s, drivers.noise_from(cfg), 16)
    for row, h, s in zip(rows, h_stack, s_stack, strict=True):
        pe = basis_thresholding(h, s, budget.eps)
        chi = chi_reference(ex, pe)
        assert (row["n_eps"], row["chi"], row["e0_sampled"], row["cond_s"]) == (
            pe.n_eps, chi, solve_gevp(pe.A, pe.B).ground_energy, cond_reference(pe)
        ), row["trial"]
        flags = tuple(
            "holds" if ok else "violated"
            for ok in eigenangle_flags_reference(sol_ex, chi, lam_min)
        )
        assert (row["chi_small"], row["angle_gap"]) == flags, row["trial"]
    assert [r["trial"] for r in rows if r["dims_matched"] == "violated"] == [12]


def test_every_chunk_returns_per_trial_arrays(tmp_path):
    """Each job's trial chunk returns a tuple of arrays with one leading row
    per trial of its block, here the block (start = 5, count = 3) of a job
    of two Krylov orders."""
    cfg = small_cfg(tmp_path, "chunks.csv", trials=8, n_list=(3, 5), m_list=(100_000,))
    system = drivers.build_system(cfg)
    pair, h_only, s_only = (
        tuple(_cells(cfg, system, [(kind, "toeplitz")])) for kind in ("HS", "H", "S")
    )
    chunks = {
        drivers._norm_columns: [(cell,) for cell in h_only],
        drivers._spectrum_columns: [(cell,) for cell in s_only],
        drivers._sweep_columns: [(cell,) for cell in pair],
        drivers._scan_columns: [(cell,) for cell in pair],
        drivers._perturbation_columns: [
            (cell, *drivers._exact_solutions(cell, cfg.epsilon_ideal)) for cell in pair
        ],
    }
    for columns_of, job in chunks.items():
        columns = drivers._per_job(columns_of, tuple(job), (5, 3))
        assert isinstance(columns, tuple) and columns, columns_of.__name__
        for column in columns:
            assert isinstance(column, np.ndarray), columns_of.__name__
            assert column.shape[0] == 3, columns_of.__name__


# Every target at each of a config's Krylov orders, one cell a (kind, n).
EVERY_TARGET = [("S", "toeplitz"), ("H", "toeplitz"), ("H", "nontoeplitz")]


@pytest.mark.parametrize("first", (0, 37))
def test_draw_at_each_order_leads_the_longer_ones(first):
    """The stream key carries no n: for each gaussian target and every pair
    of a config's Krylov orders n < n', the draw at n is the leading
    cols.size columns of the draw at n', bit for bit; and the shared draw of
    a target's samplers is each sampler's own."""
    cfg = load_config(str(CONFIG_DIR / "optimal_threshold.conf"), {"trials": 8})
    cells = _cells(cfg, drivers.build_system(cfg), EVERY_TARGET)
    for kind, construction in EVERY_TARGET:
        samplers = [
            cell.samplers[kind] for cell in cells
            if (cell.kind, cell.construction) == (kind, construction)
        ]
        assert [s.n for s in samplers] == list(cfg.n_list)
        draws = [s.draw(5, first) for s in samplers]
        for shorter, n_draw in zip(samplers, draws):
            for longer, longer_draw in zip(samplers, draws):
                if longer.n > shorter.n:
                    lead = longer_draw[:, : shorter.cols.size]
                    assert lead.tobytes() == n_draw.tobytes(), (kind, shorter.n, longer.n)
        shared = draw_shared(samplers, 5, first)
        assert [d.tobytes() for d in shared] == [d.tobytes() for d in draws]


# Per driver: its columns function, its cells' (kind, construction)s, and
# the args its chunk takes beyond the cell
_JOB_CHUNKS = {
    "norms": (drivers._norm_columns, EVERY_TARGET, lambda cell, cfg: ()),
    "spectrum": (drivers._spectrum_columns, [("S", "toeplitz")], lambda cell, cfg: ()),
    "sweep": (drivers._sweep_columns, [("HS", c) for c in CONSTRUCTIONS], lambda cell, cfg: ()),
    "scan": (drivers._scan_columns, [("HS", c) for c in CONSTRUCTIONS], lambda cell, cfg: ()),
    "perturbation": (
        drivers._perturbation_columns,
        [("HS", c) for c in CONSTRUCTIONS],
        lambda cell, cfg: drivers._exact_solutions(cell, cfg.epsilon_ideal),
    ),
}


def _cells(cfg, system, kinds=()):
    """Every cell of a run's jobs (`drivers._jobs`), in order."""
    return [cell for job in drivers._jobs(cfg, system, kinds) for cell in job]


def _jobs(cfg, kinds, extra):
    """The jobs of a run (`drivers._jobs`), each as its cells' args."""
    jobs = drivers._jobs(cfg, drivers.build_system(cfg), kinds)
    return [tuple((cell, *extra(cell, cfg)) for cell in job) for job in jobs]


@pytest.mark.parametrize("blocks", (7, 3))
@pytest.mark.parametrize("mode", ("gaussian", "binomial"))
@pytest.mark.parametrize("name", list(_JOB_CHUNKS))
def test_job_chunk_matches_per_cell_chunks(tmp_path, name, mode, blocks):
    """A job's chunk, drawing each gaussian matrix once for every Krylov
    order, returns per block what the per-cell chunk returns for each cell in
    turn, bit for bit: at one-trial blocks and at three blocks of 7 trials.
    The widest cell comes first; a cell with no feasible budget (S and the
    pair at n = 1) adds no columns, and one with an infeasible budget (the
    pair at M = 12) gives its feasible budget's alone."""
    columns_of, kinds, extra = _JOB_CHUNKS[name]
    cfg = small_cfg(
        tmp_path, "j.csv", n_list=(5, 1, 3), m_list=(12, 100_000), trials=7, mode=mode
    )
    jobs = _jobs(cfg, kinds, extra)
    assert jobs and all(len(job) == 3 for job in jobs)
    for job in jobs:
        for rng in _chunk_ranges(cfg.trials, blocks):
            got = drivers._per_job(columns_of, job, rng)
            want = [column for args in job for column in per_cell_chunk(columns_of, args, rng)]
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


@pytest.mark.parametrize("mode", ("gaussian", "binomial"))
def test_binomial_jobs_draw_per_cell(tmp_path, monkeypatch, mode):
    """A gaussian job draws each sampled matrix once a block, from its widest
    cell's sampler; a binomial job draws per cell, whose counts depend on
    each cell's shots and probabilities."""
    cfg = small_cfg(tmp_path, "d.csv", n_list=(3, 5, 7), m_list=(100_000,), mode=mode)
    (job,) = _jobs(cfg, [("HS", "toeplitz")], lambda cell, cfg: ())
    drawn = []
    real_draw = Sampler.draw

    def recording_draw(self, trials, first_trial):
        drawn.append((self.target, self.n))
        return real_draw(self, trials, first_trial)

    monkeypatch.setattr(Sampler, "draw", recording_draw)
    drivers._per_job(drivers._scan_columns, job, (0, 5))
    if mode == "gaussian":
        assert drawn == [("H_toeplitz", 7), ("S_toeplitz", 7)]
    else:
        assert drawn == [(t, n) for t in ("H_toeplitz", "S_toeplitz") for n in (3, 5, 7)]


@pytest.mark.parametrize("name", list(FAILING_RUNS))
def test_targets_built_once_per_cell(tmp_path, monkeypatch, name):
    """Every driver builds each (construction, n)'s targets once per run:
    error-norms' S cells and Toeplitz H cells of the same n share theirs."""
    runner, _, grid = FAILING_RUNS[name]
    built = Counter()
    real = drivers.targets_for

    def counting(system, n, construction):
        built[construction, n] += 1
        return real(system, n, construction)

    monkeypatch.setattr(drivers, "targets_for", counting)
    cfg = small_cfg(tmp_path, "t.csv", constructions=CONSTRUCTIONS, **grid)
    runner(cfg)
    constructions = ("toeplitz",) if name == "singular_spectrum" else CONSTRUCTIONS
    assert built == {(c, n): 1 for c in constructions for n in cfg.n_list}


def test_error_norm_cells_release_shared_targets(tmp_path, monkeypatch):
    """The S job holds its Toeplitz targets for the H cells of the same n,
    which release them: once a job is built, no targets outlive their last
    taker but the last ones built or taken."""
    cfg = small_cfg(tmp_path, "x.csv", n_list=(3, 5), constructions=CONSTRUCTIONS)
    system = drivers.build_system(cfg)
    built = {}
    real = drivers.targets_for

    def recording(system, n, construction):
        targets = real(system, n, construction)
        built[construction, n] = weakref.ref(targets)
        return targets

    monkeypatch.setattr(drivers, "targets_for", recording)
    kinds = [("S", "toeplitz"), ("H", "toeplitz"), ("H", "nontoeplitz")]
    alive = [
        sorted(key for key, ref in built.items() if ref() is not None)
        for job in drivers._jobs(cfg, system, kinds)
    ]
    t3, t5 = ("toeplitz", 3), ("toeplitz", 5)
    n5 = ("nontoeplitz", 5)
    assert alive == [
        [t3, t5],  # the S job: both held for the Toeplitz H cells
        [t5],  # the Toeplitz H job took them; the n = 3 targets are freed
        [n5],  # the non-Toeplitz H job: n = 3's freed with the n = 5 cell after
    ]


def _solves(reduce, h, s, cut) -> bool:
    """Whether one trial's per-trial path reduces and solves its pair."""
    try:
        pair = reduce(h, s, cut)
        solve_gevp(pair.A, pair.B)
    except (EmptyBasisError, IllPosedError):
        return False
    return True


def test_sweep_trials_used_counts_solvable_trials(tmp_path):
    """trials_used on each threshold-sweep row is the number of trials the
    per-trial path solves: top_k_thresholding (basis_thresholding for the
    epsilon_rule row), then solve_gevp.  The shipped config loses trials at
    larger k, so some rows use only part of them."""
    cfg = load_config(
        str(CONFIG_DIR / "threshold_sweep.conf"),
        {"trials": 16, "out": str(tmp_path / "sweep.csv")},
    )
    rows = read_rows(run_threshold_sweep(cfg))
    system = drivers.build_system(cfg)
    expected = []
    for cell in _cells(cfg, system):
        targets = drivers.targets_for(system, cell.n, cell.construction)
        for budget in cell.feasible:
            plans = [
                drivers._plan_for(z, cell.construction, share, cell.n, targets.betas)
                for z, share in (("H", budget.m_h), ("S", budget.m_s))
            ]
            pairs = list(zip(*sample_pair(
                targets, *plans, drivers.noise_from(cfg), cfg.trials
            )))
            for k in range(1, cell.n + 1):
                expected.append(sum(_solves(top_k_thresholding, h, s, k) for h, s in pairs))
            expected.append(
                sum(_solves(basis_thresholding, h, s, budget.eps) for h, s in pairs)
            )
    assert [r["trials_used"] for r in rows] == expected
    assert any(0 < used < cfg.trials for used in expected)


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
    "long_order": run_error_norm_ensemble,
    "singular_spectrum": run_singular_spectrum,
    "threshold_sweep": run_threshold_sweep,
    "optimal_threshold": run_optimal_threshold_scan,
    "perturbation_bound": run_perturbation_vs_bound,
    "chain": run_perturbation_vs_bound,  # bench/chain.conf
}
# Overrides applied on top of a shipped config, by variant name.
VARIANTS = {
    None: {},
    "binomial": {"mode": "binomial", "constructions": ("toeplitz", "nontoeplitz")},
    "binomial_decay": {"mode": "binomial", "hardware_lambda": 0.3},
    "gaussian_decay": {"mode": "gaussian", "hardware_lambda": 0.3},
    "three_trials": {"trials": 3},
    "elementwise": {"constructions": ("nontoeplitz",)},
}
# sha256 of each CSV at trials = 8, header included; artifact version 0.7.0.
# A change that moves any of these must bump ARTIFACT_VERSION and re-pin them.
DRIVER_DIGESTS = {
    ("error_norms", None):
        "63db7bdfce42e84e0615d33c29d6a99f049b6628537aa6e39dccf9b9cef08ab7",
    ("singular_spectrum", None):
        "2322eea10d26cacd9c8eed0c84c43c662efd5b0633a09bf48c9dcbd5ecbd57f8",
    ("threshold_sweep", None):
        "f30740b5bc950123e9cbfef6d608848c6e3bd5b4e5ec1e38bf7b582aa3d7c407",
    ("optimal_threshold", None):
        "71aa0157f090573104496a6b0030fd86cc21c4433f9c54f4b092bf441999ca95",
    ("perturbation_bound", None):
        "a138b23a0f2266a84fa865addce93a79d2e0a61df2e5f23a42ed4a6b679f44d8",
    ("perturbation_bound", "binomial"):
        "31c8c2c64f4a599ef5c645b076ab90a01918a63ec4df5b8e90368b03a15a04f9",
    ("error_norms", "binomial_decay"):
        "c9011fc78357afa02bc0d1a071590bc2fd193c7d9d285a1c816a7faed4037be4",
    ("error_norms", "gaussian_decay"):
        "29f8d41fbbca393fcf7409b3616df976cb13fc3d9edb0196cfabe0b9a98059f0",
    ("long_order", None):
        "42a7fb9ab603f8dd867d421a1e3800a2edff14add28e418873ea7e69ae5d04ea",
    ("threshold_sweep", "elementwise"):
        "2c4cb4fb5b363493eb700d7a2c427edf2e5b51275d3e68e81537cb8b5b549af4",
    # L = 5, binomial, both constructions: J = 17 fragments per H grid
    ("chain", None):
        "a39110e26b42e930e72abadb61577bfd0631a7f2426901942d39d9435cc8a448",
}


def config_path(name: str) -> Path:
    """A shipped config's file, or the benchmark's chain config's."""
    return BENCH_DIR / "chain.conf" if name == "chain" else CONFIG_DIR / f"{name}.conf"


def config_digest(tmp_path, name, variant, **overrides):
    """sha256 of a shipped config's CSV at trials = 8 (unless the variant sets
    them), under a variant."""
    out = tmp_path / f"{name}.csv"
    overrides = {"trials": 8, "out": str(out), **VARIANTS[variant], **overrides}
    cfg = load_config(str(config_path(name)), overrides)
    DRIVER_FOR_CONFIG[name](cfg)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, variant", list(DRIVER_DIGESTS), ids=lambda v: v or "shipped"
)
def test_driver_digests(tmp_path, name, variant):
    """Every shipped config reproduces its pinned CSV bytes."""
    assert config_digest(tmp_path, name, variant) == DRIVER_DIGESTS[(name, variant)]


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize(
    "name, variant",
    # at three trials, one-trial Toeplitz blocks meet reduced solves that a
    # three-trial block would round differently if its stack were strided
    [
        *DRIVER_DIGESTS,
        ("optimal_threshold", "three_trials"),
        ("threshold_sweep", "three_trials"),
    ],
    ids=lambda v: v or "shipped",
)
def test_driver_digests_smallest_blocks(
    tmp_path, monkeypatch, forks, name, variant, workers
):
    """Trial blocks do not show in the bytes: with the smallest blocks (one
    trial each), every config reproduces its bytes at the default budget
    (pinned where DRIVER_DIGESTS has them) inline and over forked children
    of two and three workers, which fork a child per worker for every job;
    a single-worker run of many blocks forks none."""
    want = DRIVER_DIGESTS.get((name, variant)) or config_digest(tmp_path, name, variant)
    monkeypatch.setattr(drivers, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1)
    digest = config_digest(tmp_path, name, variant, workers=workers)
    assert digest == want
    assert bool(forks) == (workers > 1) and len(forks) % workers == 0
    _no_child_left()


@pytest.mark.parametrize("name", sorted({name for name, _ in DRIVER_DIGESTS}))
def test_no_run_calls_a_numpy_sort_kernel(tmp_path, monkeypatch, name):
    """No run calls numpy.sort, or numpy.argsort other than the stable float
    argsort that fixes the allocation's tie order.  Each of those kernels is
    about 0.25 MB of resident code a run touches once (the sector's Fock
    indices, the shot rounding's queue ranks), and so shows in every run's
    peak RSS; the program sorts those with Python's sorted() and a scatter."""

    def refused(*args, **kwargs):
        raise AssertionError("numpy.sort called")

    argsort = np.argsort

    def stable_only(a, axis=-1, kind=None, order=None, **kwargs):
        if kind != "stable":
            raise AssertionError(f"numpy.argsort called with kind={kind!r}")
        return argsort(a, axis=axis, kind=kind, order=order, **kwargs)

    monkeypatch.setattr(np, "sort", refused)
    monkeypatch.setattr(np, "argsort", stable_only)
    out = tmp_path / f"{name}.csv"
    cfg = load_config(str(config_path(name)), {"trials": 8, "out": str(out)})
    DRIVER_FOR_CONFIG[name](cfg)
    assert out.stat().st_size > 0


# Every shipped L = 2 config and the benchmark's chain config (L = 5, binomial).
ORACLE_CONFIGS = {
    **{
        path.stem: (path, DRIVER_FOR_CONFIG[path.stem])
        for path in sorted(CONFIG_DIR.glob("*.conf"))
        if load_config(str(path)).sites == 2
    },
    "chain": (BENCH_DIR / "chain.conf", run_perturbation_vs_bound),
}
_THRESHOLDING = (run_threshold_sweep, run_optimal_threshold_scan, run_perturbation_vs_bound)


def _cells_at_threshold(cfg, cells) -> set:
    """(construction, n, M) of each cell with an exact overlap eigenvalue
    within 1e-9 relative of its threshold eps or of epsilon_ideal, where
    rounding alone can change which directions are kept."""
    near = set()
    for cell in cells:
        vals = np.linalg.eigvalsh(cell.s_exact)
        for budget in cell.feasible:
            for eps in (budget.eps, cfg.epsilon_ideal):
                if np.any(np.abs(vals - eps) <= 1e-9 * eps):
                    near.add((cell.construction, cell.n, budget.m))
    return near


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_real_form_matches_complex_path(tmp_path, name):
    """Each config at trials = 8 writes, with every Toeplitz matrix in real
    form, what the complex path writes from the same draws: identical row
    kinds, flags, counts and na cells, and every float within 1e-9 relative.
    Two columns have a floor: `observed`, a difference of near-equal
    energies, within 1e-12 |e0_sector|; and `ideal_rel_error`, within the
    rounding floor docs/schemas.md states for an exact solve, n eps_mach.
    A cell with an exact overlap eigenvalue at its threshold is refused."""
    path, runner = ORACLE_CONFIGS[name]
    cfg = load_config(str(path), {"trials": 8, "workers": 1, "out": str(tmp_path / "r.csv")})
    real = read_rows(runner(cfg))
    with complex_path():
        oracle = read_rows(runner(dataclasses.replace(cfg, out=str(tmp_path / "c.csv"))))
    cells = _cells(cfg, drivers.build_system(cfg))
    refused = _cells_at_threshold(cfg, cells) if runner in _THRESHOLDING else set()
    n = max(cfg.n_list)
    ideal_floor = n * drivers._RANK_FLOOR
    compared = 0
    for want, got in zip(oracle, real, strict=True):
        cell = (want.get("construction", "toeplitz"), want.get("n", n), want.get("m_budget"))
        if cell in refused:
            continue
        compared += 1
        assert want.keys() == got.keys()
        for column, w in want.items():
            g = got[column]
            if not (isinstance(w, float) and isinstance(g, float)):
                assert g == w, (column, want)
            elif column == "observed":
                assert abs(g - w) <= 1e-12 * abs(want["e0_sector"]), (column, want)
            elif column == "ideal_rel_error":
                assert abs(g - w) <= max(1e-9 * abs(w), ideal_floor), (column, want)
            else:
                assert abs(g - w) <= 1e-9 * abs(w), (column, want)
    assert compared > len(oracle) // 2


# The (kind, construction)s a driver's jobs sample, where they are not a
# pair ("HS") per construction.
DRIVER_KINDS = {
    run_error_norm_ensemble: lambda cfg: (
        [("S", "toeplitz")] + [("H", c) for c in cfg.constructions]
    ),
    run_singular_spectrum: lambda cfg: [("S", "toeplitz")],
}


def test_exact_matrix_variance_under_statistic_and_bound():
    """The exact variance v of each sampled error matrix
    (`oracles.exact_matrix_variance`) is at most its plan's variance
    statistic, which counts every fragment's 1 - mu_j^2 as 1, and the
    matrix-series bound sqrt(2 v log 2n) on its expected norm is at most the
    drivers' e_Z / sqrt(M_Z), with M_H and M_S for pair cells: for every
    cell, budget and sampled matrix of every shipped L = 2 config and the
    benchmark's chain config, 127 matrices.  v is at least each column's
    expected squared error, sum_c ||D_c e_k||^2, the diagonal of
    sum_c D_c D_c, which squaring by D_c D_c^T would undercount for the
    complex elementwise H.  The chain's cells are built in
    gaussian mode, since sigma_c is the binomial estimator's variance in
    either mode.  Here v / statistic reads 0.41 to 0.63, and the bound ratio
    0.48 to 0.76.  long_order is left out: its n = 101 elementwise cells,
    one (n, n) stack per filled (element, configuration), took 47 s."""
    checked = 0
    for name, (path, runner) in ORACLE_CONFIGS.items():
        cfg = load_config(str(path), {"mode": "gaussian"})
        system = drivers.build_system(cfg)
        kinds = DRIVER_KINDS.get(runner, lambda cfg: ())(cfg)
        for cell in _cells(cfg, system, kinds):
            for z, sampler in cell.samplers.items():
                v_z = 1.0 if z == "S" else system.beta_norm
                construction = "toeplitz" if z == "S" else cell.construction
                for i, budget in enumerate(cell.feasible):
                    where = (name, z, cell.construction, cell.n, budget.m)
                    share = budget.m_h if z == "H" else budget.m_s
                    plan = drivers._plan_for(z, cell.construction, share, cell.n, sampler.betas)
                    v = exact_matrix_variance(sampler, i)
                    columns = np.sum(np.abs(matrix_series_terms(sampler, i)) ** 2, axis=(0, 1))
                    assert v >= (1 - 1e-12) * columns.max(), where
                    assert v <= variance_statistic(plan, v_z), where
                    bound = bounds.error_norm_bound(cell.n, v_z, construction) / math.sqrt(share)
                    assert expected_norm_from_variance(v, cell.n) <= bound, where
                    checked += 1
    assert checked == 127


# Trials at which every job of the config runs at least one full block.
FULL_BLOCK_TRIALS = {
    "error_norms": 100,
    "singular_spectrum": 280,
    "threshold_sweep": 80,
    "optimal_threshold": 140,
    "perturbation_bound": 300,
    "chain": 300,
}


@pytest.mark.parametrize("mode", ("gaussian", "binomial"))
@pytest.mark.parametrize("name", list(FULL_BLOCK_TRIALS))
def test_block_traced_peak_matches_its_count(tmp_path, monkeypatch, name, mode):
    """What a full trial block allocates, traced around its chunk, is 0.5 to
    1.25 times its counted bytes (its trials times `_trial_bytes`), for every
    driver in both noise modes: the count is what a block holds, so the
    block budget bounds a block's memory.  Here it reads 0.61 to 1.13.  A
    nominal count, 8 bytes per (element, configuration, fragment) of each
    plan and a complex (n, n) stack per stack held, reads 0.24 to 0.44."""
    cfg = load_config(
        str(config_path(name)),
        {"trials": FULL_BLOCK_TRIALS[name], "mode": mode, "workers": 1,
         "out": str(tmp_path / "b.csv")},
    )
    runner = DRIVER_FOR_CONFIG[name]
    runner(dataclasses.replace(cfg, trials=2))  # warm up: lazy imports and caches
    counted, blocks = [], []
    real_columns, real_job = drivers._trial_columns, drivers._per_job

    def recording_columns(cfg, fn, trial_bytes):
        counted.append(trial_bytes)
        return real_columns(cfg, fn, trial_bytes)

    def traced_job(columns_of, job, rng):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        columns = real_job(columns_of, job, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
        blocks.append((len(counted) - 1, rng[1], peak))
        return columns

    monkeypatch.setattr(drivers, "_trial_columns", recording_columns)
    monkeypatch.setattr(drivers, "_per_job", traced_job)
    tracemalloc.start()
    try:
        runner(cfg)
    finally:
        tracemalloc.stop()
    full = [
        (job, peak / (count * counted[job]))
        for job, count, peak in blocks
        if count >= drivers._BLOCK_BYTES // counted[job]
    ]
    assert {job for job, _ in full} == set(range(len(counted))), "a job ran no full block"
    assert all(0.5 <= ratio <= 1.25 for _, ratio in full), full


def test_cell_peak_memory_flat_in_trials(tmp_path, monkeypatch):
    """An error-norms H-elementwise cell peaks at its trial block, not at `trials`.

    At n = 25 a trial counts 25,000 bytes (`_trial_bytes`), so a 1 MiB budget
    makes blocks of 41 trials and a smaller last one: 64 trials run in blocks
    of 41 and 23, and 512 in 12 of 41 and one of 20.  Unblocked, the
    512-trial peak is about 8x the 64-trial one; blocked, only the per-trial
    norms grow, which the 25% margin covers.
    """
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1 << 20)
    cfg = small_cfg(
        tmp_path, "peak.csv", n_list=(25,), m_list=(10**8,),
        constructions=("nontoeplitz",),
    )
    run_error_norm_ensemble(cfg)  # warm up: lazy imports and caches
    peaks = {}
    for trials in (64, 512):
        tracemalloc.start()
        try:
            run_error_norm_ensemble(dataclasses.replace(cfg, trials=trials))
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[512] < 1.25 * peaks[64], peaks


def test_run_peak_memory_flat_in_trials(tmp_path, monkeypatch):
    """An error-norms run's peak does not grow with `trials`: its rows stream
    to the file as they are built.  At n = 25 a Toeplitz trial counts about
    10.4 kB, so with a 1 MiB block budget a cell of 300 trials runs in 3
    blocks and one of 1,500 in 15, of 100 trials each; only the per-trial
    norms (8 bytes a trial per cell) grow.  Held for one write at the end,
    the 1,500-trial run's 6,000 rows would put its peak about 1.5x the
    300-trial one's."""
    monkeypatch.setattr(drivers, "_BLOCK_BYTES", 1 << 20)
    cfg = small_cfg(tmp_path, "flat.csv", n_list=(25,), m_list=(10**6, 10**8))
    run_error_norm_ensemble(dataclasses.replace(cfg, trials=2))  # warm up
    peaks = {}
    for trials in (300, 1500):
        tracemalloc.start()
        try:
            run_error_norm_ensemble(dataclasses.replace(cfg, trials=trials))
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1500] < 1.25 * peaks[300], peaks


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
