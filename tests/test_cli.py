"""CLI surface: driver dispatch, overrides, exit codes."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qksd.cli import main


@pytest.fixture
def conf(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text(
        "L = 2\nt = 0.2\nu = 0.1\nn = 3\nM = 1e4\ntrials = 4\nseed = 2\n"
        f"out = {tmp_path / 'res.csv'}\n"
    )
    return p


def test_main_success(conf, tmp_path, capsys):
    rc = main(["error-norms", "--config", str(conf)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "res.csv" in out
    lines = (tmp_path / "res.csv").read_bytes().splitlines()
    assert out.strip().endswith(f"({len(lines) - 2} rows)")  # comment, header
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv", "run.conf"]


def test_main_override_out_and_seed(conf, tmp_path):
    target = tmp_path / "other.csv"
    rc = main(
        ["error-norms", "--config", str(conf), "--out", str(target), "--seed", "9"]
    )
    assert rc == 0
    header = target.read_bytes().split(b"\r\n")[0]
    assert b"seed=9" in header


def test_main_construction_override(conf, tmp_path):
    rc = main(
        [
            "error-norms",
            "--config",
            str(conf),
            "--construction",
            "nontoeplitz",
            "--out",
            str(tmp_path / "nt.csv"),
        ]
    )
    assert rc == 0
    body = (tmp_path / "nt.csv").read_bytes().decode()
    assert "nontoeplitz" in body


def test_main_config_error(tmp_path, capsys):
    p = tmp_path / "bad.conf"
    p.write_text("banana = 3\n")
    assert main(["error-norms", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["error-norms", "--config", str(tmp_path / "nope.conf")]) == 2


@pytest.mark.parametrize(
    "line, reason",
    [
        # the float64 budget split rounds its floors past these totals
        ("M = 1e6, 1e16", "largest supported"),
        ("M = 1e18", "largest supported"),
        # these overflowed the int64 casts
        ("M = 1e19", "largest supported"),
        ("seed = 1e19", "int64"),
        ("seed = -9223372036854775809", "int64"),
    ],
)
def test_main_refuses_oversized_budget_and_seed(tmp_path, capsys, line, reason):
    p = tmp_path / "big.conf"
    out = tmp_path / "never.csv"
    p.write_text(f"L = 2\nn = 3\ntrials = 2\n{line}\nout = {out}\n")
    assert main(["optimal-threshold", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and reason in err
    assert not out.exists()


def test_main_budget_and_seed_limits_are_inclusive(tmp_path, capsys):
    p = tmp_path / "edge.conf"
    p.write_text(f"L = 2\nn = 3\nM = 1e15\ntrials = 2\nout = {tmp_path / 'edge.csv'}\n")
    top = str(2**63 - 1)
    assert main(["optimal-threshold", "--config", str(p), "--seed", top]) == 0
    assert main(["optimal-threshold", "--config", str(p), "--seed", str(2**63)]) == 2
    assert "int64" in capsys.readouterr().err


def test_main_infeasible(conf, capsys):
    # trials/seed fine, but M too small for any plan
    rc = main(["error-norms", "--config", str(conf), "--trials", "2", "--out", "/dev/null"])
    assert rc == 0  # sanity: the base config is feasible
    bad = conf.parent / "small.conf"
    bad.write_text("L = 2\nn = 3\nM = 4\ntrials = 2\nout = /dev/null\n")
    assert main(["error-norms", "--config", str(bad)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_main_infeasible_leaves_no_file(tmp_path, capsys):
    """Every error-norms cell infeasible: the skipped rows stream before the
    run raises, and it still exits 3 with no CSV and no .tmp left."""
    bad = tmp_path / "small.conf"
    bad.write_text(f"L = 2\nn = 3, 5\nM = 4\ntrials = 2\nout = {tmp_path / 'x.csv'}\n")
    assert main(["error-norms", "--config", str(bad)]) == 3
    assert "every (kind, n, M) cell was infeasible" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["small.conf"]


@pytest.mark.parametrize("where", ["directory", "missing parent", "empty"])
def test_main_unwritable_out(conf, tmp_path, capsys, monkeypatch, where):
    """An --out that cannot be opened, a directory, a path under a missing
    one or the empty path, is a config error naming it (exit 2), and leaves
    no file behind."""
    monkeypatch.chdir(tmp_path)  # where an empty out would stage its ".tmp"
    (tmp_path / "outdir").mkdir()
    out = {
        "directory": tmp_path / "outdir",
        "missing parent": tmp_path / "missing" / "res.csv",
        "empty": "",
    }[where]
    assert main(["error-norms", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "run.conf"]
    assert list((tmp_path / "outdir").iterdir()) == []


@pytest.mark.parametrize(
    "body, reason",
    [
        ("L = 1\n", "ground energy"),  # sector (1, 0): E0 = 0, relative errors undefined
        ("L = 2\nt = 0\nu = 0\n", "multiple of the identity"),
    ],
)
def test_main_degenerate_system(tmp_path, capsys, body, reason):
    p = tmp_path / "degenerate.conf"
    out = tmp_path / "never.csv"
    p.write_text(body + f"n = 3\nM = 1e4\ntrials = 2\nout = {out}\n")
    assert main(["optimal-threshold", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and reason in err
    assert not out.exists()


def test_main_sector_cap(conf, tmp_path, capsys, monkeypatch):
    from qksd import evolution

    monkeypatch.setattr(evolution, "SECTOR_DIM_CAP", 3)  # L = 2 half filling has 4
    assert main(["error-norms", "--config", str(conf)]) == 2
    assert "resource limit" in capsys.readouterr().err
    assert not (tmp_path / "res.csv").exists()


def test_main_unknown_driver(conf):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", str(conf)])


def test_workers_flag_no_output_change(conf, tmp_path):
    paths = []
    for w in ("1", "2"):
        p = tmp_path / f"w{w}.csv"
        rc = main(
            [
                "perturbation-bound",
                "--config",
                str(conf),
                "--workers",
                w,
                "--out",
                str(p),
            ]
        )
        assert rc == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "qksd.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "error-norms" in proc.stdout


def test_console_script_declaration(conf, tmp_path):
    """pyproject.toml declares `qksd = qksd.cli:main`, and that target runs a
    driver the way the generated console script calls it: sys.exit(main())."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("qksd") == "qksd.cli:main"
    module, func = scripts["qksd"].split(":")
    out = tmp_path / "decl.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())",
            "singular-spectrum",
            "--config",
            str(conf),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("mode", ("binomial", "gaussian"))
def test_run_never_imports_scipy(conf, tmp_path, mode):
    """The runtime is numpy only: a driver run in either mode loads no scipy module."""
    script = (
        "import sys; from qksd.cli import main; "
        "rc = main(sys.argv[1:]); "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded; "
        "sys.exit(rc)"
    )
    for driver in ("error-norms", "perturbation-bound"):
        out = tmp_path / f"{driver}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, driver, "--config", str(conf),
             "--mode", mode, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_one_worker_run_never_imports_the_pool(conf, tmp_path):
    """No run imports the process-pool machinery: importing the CLI, and a
    run at one worker or at two, which forks its children itself, leave
    concurrent.futures and multiprocessing out of sys.modules."""
    script = (
        "import sys; from qksd.cli import main; "
        "from qksd.harness import drivers; "
        "drivers._usable_cpus = lambda: 2; "
        "pools = ('concurrent.futures', 'multiprocessing'); "
        "assert not any(p in sys.modules for p in pools), 'on import'; "
        "rc = main(sys.argv[1:]); "
        "assert not any(p in sys.modules for p in pools), 'after the run'; "
        "sys.exit(rc)"
    )
    for workers in ("1", "2"):
        out = tmp_path / f"sweep_w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, "threshold-sweep", "--config", str(conf),
             "--workers", workers, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_run_never_imports_csv(tmp_path):
    """The writer formats every CSV line itself: an optimal-threshold run of
    the shipped config leaves the csv module out of sys.modules."""
    script = (
        "import sys; from qksd.cli import main; "
        "rc = main(sys.argv[1:]); "
        "loaded = [m for m in ('csv', '_csv') if m in sys.modules]; "
        "assert not loaded, loaded; "
        "sys.exit(rc)"
    )
    config = Path(__file__).resolve().parents[1] / "configs" / "optimal_threshold.conf"
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-c", script, "optimal-threshold", "--config", str(config),
         "--trials", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.skipif(
    shutil.which("qksd") is None,
    reason="the `qksd` console script is not on PATH (package not installed)",
)
def test_installed_entry_point(conf, tmp_path):
    out = tmp_path / "ep.csv"
    proc = subprocess.run(
        ["qksd", "singular-spectrum", "--config", str(conf), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
