"""Every function the package defines is reached from the command line.

The drivers are the package's reason to exist: API that no driver, config
key or CLI flag reaches is dead weight.  This runs every shipped config and
the benchmark's chain config through `qksd.cli.main` under a profile hook,
plus the paths a default run does not take (a two-worker pool, the
hardware-fidelity config keys), and asserts that every function, method and
property defined under `src/qksd` was called.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import qksd
from qksd import cli
from qksd.harness import drivers
from qksd.harness.config import config_from_mapping

SRC = Path(qksd.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
BENCH_DIR = ROOT / "bench"

DRIVER_OF = {  # config file stem -> CLI driver
    "error_norms": "error-norms",
    "long_order": "error-norms",
    "singular_spectrum": "singular-spectrum",
    "threshold_sweep": "threshold-sweep",
    "optimal_threshold": "optimal-threshold",
    "perturbation_bound": "perturbation-bound",
    "chain": "perturbation-bound",
}
# Defined but unreached.  Beyond these, the names the benchmark's tracer hooks
# (bench/spans.py TRACED) must exist, so they stay whether reached or not.
EXEMPT = {
    "qksd.rngstream._mix_int",  # called only by stream_key, a TRACED name
    "qksd.bounds.concentration_tail",  # the tail bound, not yet in a driver's rows
}


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def under src/qksd.

    The first line is the code object's: a decorated function's code starts
    at its first decorator.
    """
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                    defs[str(path), min(lines)] = name
                elif isinstance(child, ast.ClassDef):
                    name = f"{prefix}.{child.name}"
                visit(child, name)

        visit(ast.parse(path.read_text()), module)
    return defs


def _traced_names() -> set[str]:
    """The benchmark tracer's hooks (bench/spans.py TRACED), as dotted names."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{module}.{name}" for module, name, _ in spans.TRACED}


def test_every_definition_is_reached(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    configs = sorted(CONFIG_DIR.glob("*.conf")) + [BENCH_DIR / "chain.conf"]
    assert {p.stem for p in configs} == set(DRIVER_OF)
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    def run(config, *extra):
        out = tmp_path / f"{config.stem}.csv"
        argv = [DRIVER_OF[config.stem], "--config", str(config), "--trials", "2"]
        assert cli.main([*argv, "--out", str(out), *extra]) == 0

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for config in configs:
            run(config)
        with monkeypatch.context() as m:
            m.setattr(drivers, "_usable_cpus", lambda: 2)
            run(CONFIG_DIR / "threshold_sweep.conf", "--workers", "2")
        config_from_mapping(
            {"L": "2", "t": "0.2", "u": "0.1", "n": "5", "M": "1e6",
             "hardware_r": "0.999", "hardware_depth": "10"}
        )
    finally:
        sys.setprofile(previous)

    resolved = {f: str(Path(f).resolve()) for f, _ in called}
    called = {(resolved[f], line) for f, line in called}
    defs = _definitions()
    assert EXEMPT <= set(defs.values())  # no exemption outlives its function
    allowed = EXEMPT | _traced_names()
    unreached = sorted(
        name for key, name in defs.items() if key not in called and name not in allowed
    )
    assert not unreached, "never called: " + ", ".join(unreached)
