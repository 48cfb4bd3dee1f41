"""Outside-in span recording for the qksd layers.

The child side (`Recorder`) replaces every module-level binding of each
traced function with a wrapper that appends one span (name, start, end,
parent, raised) to in-memory arrays; `dump` writes them once, after the run.
The parent side (`Spans` and `layer_metrics`) turns spans into self times:
a span's duration minus the durations of its direct children.

Only stdlib is imported here, so the child can install the recorder before
numpy is touched by anything but qksd itself.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, function, span name).  Every binding of the function object in any
# loaded qksd module is wrapped, e.g. qksd.harness.drivers.solve_gevp as well
# as qksd.gevp.solve_gevp, and qksd.evolution.pauli_to_dense as well as
# qksd.hamiltonian.pauli_to_dense.
TRACED = (
    ("qksd.hamiltonian", "build_hubbard_1d", "hamiltonian.build_hubbard_1d"),
    ("qksd.hamiltonian", "sorted_insertion_partition", "hamiltonian.sorted_insertion_partition"),
    ("qksd.hamiltonian", "pauli_to_dense", "hamiltonian.pauli_to_dense"),
    ("qksd.hamiltonian", "fragment_dense", "hamiltonian.fragment_dense"),
    ("qksd.evolution", "diagonalize", "evolution.diagonalize"),
    ("qksd.evolution", "hartree_fock_state", "evolution.hartree_fock_state"),
    ("qksd.evolution", "sector_ground_energy", "evolution.sector_ground_energy"),
    ("qksd.krylov", "measurement_targets", "krylov.measurement_targets"),
    ("qksd.sampling", "split_budget", "sampling.split_budget"),
    ("qksd.sampling", "allocate_toeplitz", "sampling.allocate"),
    ("qksd.sampling", "allocate_nontoeplitz", "sampling.allocate"),
    ("qksd.sampling", "expected_pair", "sampling.expected_pair"),
    ("qksd.sampling", "sample_overlap_ensemble", "sampling.sample_overlap_ensemble"),
    ("qksd.sampling", "sample_hamiltonian_ensemble", "sampling.sample_hamiltonian_ensemble"),
    ("qksd.rngstream", "stream_keys", "rngstream.stream_keys"),
    ("qksd.rngstream", "normals", "rngstream.normals"),
    ("qksd.rngstream", "stream_key", "rngstream.stream_key"),
    ("qksd.rngstream", "generator", "rngstream.generator"),
    ("qksd.gevp", "basis_thresholding", "gevp.basis_thresholding"),
    ("qksd.gevp", "top_k_thresholding", "gevp.top_k_thresholding"),
    ("qksd.gevp", "solve_gevp", "gevp.solve_gevp"),
    ("qksd.gevp", "chi_between_thresholds", "gevp.chi_between_thresholds"),
    ("qksd.gevp", "eigenangle_check", "gevp.eigenangle_check"),
    ("qksd.harness.drivers", "build_system", "harness.build_system"),
    ("qksd.harness.drivers", "_spec_norms", "harness.spec_norms"),
    ("qksd.harness.drivers", "_map_chunks", "harness.map_chunks"),
    ("qksd.harness.records", "write_csv", "harness.write_csv"),
)
# Every public function of qksd.bounds is traced as bounds.<name>.
BOUNDS_MODULE = "qksd.bounds"
IMPORT_SPAN = "import.qksd"
POOL_SPAN = "harness.pool_open"
THRESHOLDINGS = ("gevp.basis_thresholding", "gevp.top_k_thresholding")

LAYERS = (
    "import", "hamiltonian", "evolution", "krylov", "sampling",
    "rngstream", "gevp", "bounds", "harness",
)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.raised = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._gevp_ids: set[int] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith("gevp."):
                self._gevp_ids.add(self._ids[name])
        return self._ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (top level, did not raise)."""
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.raised.append(0)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name: str, count=None):
        """Wrapper recording a span per call; count(result) adds to counts[name]."""
        sid = self._id(name)
        rec = self
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(sid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.raised.append(0)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised[idx] = 1
                raise
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
            if count is not None:
                rec.counts[name] += count(result)
            return result

        return traced

    def in_gevp(self) -> bool:
        return any(self.name_id[i] in self._gevp_ids for i in self.stack)

    def install(self) -> None:
        """Wrap the traced functions in every loaded qksd module."""
        import numpy.linalg

        from qksd.harness import drivers

        bounds = sys.modules[BOUNDS_MODULE]
        targets = [(getattr(sys.modules[m], f), name) for m, f, name in TRACED]
        targets += [
            (fn, f"bounds.{attr}")
            for attr, fn in vars(bounds).items()
            if inspect.isfunction(fn)
            and fn.__module__ == BOUNDS_MODULE
            and not attr.startswith("_")
        ]
        counters = {
            "rngstream.stream_keys": lambda keys: keys.size,
            "sampling.sample_overlap_ensemble": lambda res: len(res[0]),
            "sampling.sample_hamiltonian_ensemble": lambda res: len(res[0]),
        }
        wrappers = {id(fn): self.wrap(fn, name, counters.get(name)) for fn, name in targets}
        originals = {id(fn): fn for fn, _ in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qksd" or mod_name.startswith("qksd.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    setattr(mod, attr, wrappers[id(value)])

        eigh = numpy.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if self.in_gevp():
                self.counts["gevp.eigh"] += 1
            return eigh(*args, **kwargs)

        numpy.linalg.eigh = counted_eigh

        pool = drivers.ProcessPoolExecutor

        class CountedPool(pool):
            __init__ = self.wrap(pool.__init__, POOL_SPAN)

        drivers.ProcessPoolExecutor = CountedPool

    def dump(self, path: Path) -> None:
        """Write all spans once: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.start)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.raised, self.start, self.end):
                arr.tofile(f)


class Spans:
    """Spans read back from a `Recorder.dump` file."""

    def __init__(self, path: Path):
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            self.names: list[str] = header["names"]
            self.counts: dict[str, int] = header["counts"]
            n = header["spans"]
            self.name_id, self.parent = array.array("i"), array.array("i")
            self.raised = array.array("b")
            self.start, self.end = array.array("d"), array.array("d")
            for arr in (self.name_id, self.parent, self.raised, self.start, self.end):
                arr.fromfile(f, n)

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own


def layer_metrics(spans: Spans, t_spawn: float, t_done: float) -> tuple[dict, list[str]]:
    """Per-layer sums of one traced invocation, and self-test failures.

    The traced wall time runs from spawning the interpreter (t_spawn) to the
    close of its last CSV (t_done); time covered by no span is the driver's
    own self time.
    """
    wall = t_done - t_spawn
    own = spans.self_times()
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    failed: Counter = Counter()
    top = 0.0
    problems = []
    for i, nid in enumerate(spans.name_id):
        name = spans.names[nid]
        self_s[name] += own[i]
        calls[name] += 1
        failed[name] += spans.raised[i]
        if spans.parent[i] < 0:
            top += spans.end[i] - spans.start[i]
        if own[i] < -1e-9:
            problems.append(f"span {name} has negative self time {own[i]}")
    if len(spans) and (min(spans.start) < t_spawn or max(spans.end) > t_done):
        problems.append("a span lies outside the traced wall time")
    driver_self = wall - top
    if driver_self < 0:
        problems.append("top-level spans overlap")

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer
        )
    m["harness.self_s"] += driver_self
    m["harness.driver.self_s"] = driver_self
    for _, _, name in TRACED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    attempted = sum(calls.get(n, 0) for n in THRESHOLDINGS)
    solved = calls.get("gevp.solve_gevp", 0) - failed.get("gevp.solve_gevp", 0)
    m["gevp.thresholdings"] = attempted
    m["gevp.solved"] = solved
    m["gevp.eigh_calls"] = spans.counts.get("gevp.eigh", 0)
    m["rngstream.keys"] = spans.counts.get("rngstream.stream_keys", 0)
    m["sampling.trials_sampled"] = spans.counts.get(
        "sampling.sample_overlap_ensemble", 0
    ) + spans.counts.get("sampling.sample_hamiltonian_ensemble", 0)
    m["harness.pools_opened"] = calls.get(POOL_SPAN, 0)
    m["harness.map_chunks.wait_s"] = _pool_wait(spans)

    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times sum to {total}, traced wall time is {wall}")
    return m, problems


def _pool_wait(spans: Spans) -> float:
    """Wall time of the chunk maps that opened a pool: the parent waits it out."""
    ids = {n: i for i, n in enumerate(spans.names)}
    pool_id, map_id = ids.get(POOL_SPAN), ids.get("harness.map_chunks")
    if pool_id is None or map_id is None:
        return 0.0
    waiting = {spans.parent[i] for i, nid in enumerate(spans.name_id) if nid == pool_id}
    return sum(
        spans.end[i] - spans.start[i]
        for i in waiting
        if i >= 0 and spans.name_id[i] == map_id
    )
