"""The README's Python example runs, and the API names it cites exist."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import qksd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(tmp_path):
    """The example, in a fresh interpreter, exits 0 and prints a finite energy;
    the top-level `qksd` exports exactly the names it imports from there."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "qksd"
        for alias in node.names
    ]
    assert sorted(qksd.__all__) == sorted(imported)
    env = dict(os.environ)
    root = str(Path(qksd.__file__).resolve().parents[1])  # where qksd imports from
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    energy, n_eps = proc.stdout.split()
    assert math.isfinite(float(energy)) and int(n_eps) >= 1


def _resolve(dotted: str):
    """The object a dotted name under qksd names: its longest importable
    module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_cited_names_resolve():
    """Every dotted name the README puts in backticks resolves under qksd."""
    cited = {
        name if name.startswith("qksd.") else f"qksd.{name}"
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text())
    }
    assert {
        "qksd.krylov.exact_sequences",
        "qksd.krylov.toeplitz_matrix",
        "qksd.bounds.concentration_tail",
        "qksd.sampling.expected_pair",
    } <= cited
    for name in sorted(cited):
        assert _resolve(name) is not None, name

