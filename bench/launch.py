"""Child side of the benchmark: one qksd action in this fresh interpreter.

    launch.py run <meta.json> <trace 0|1> -- <qksd CLI arguments>
    launch.py scale <L> <meta.json>
    launch.py env <meta.json>

`run` calls the qksd CLI and records, with time.monotonic (the clock the
parent stamps the spawn with), when each build_system returns and when each
CSV is closed.  With trace 1 it also wraps the layer functions (see spans.py)
and writes their spans to <meta.json>.spans after the run.  `scale` times
build_system plus the n = 9 measurement targets of both constructions for an
L-site chain.  `env` records library versions and the BLAS setup.
"""

import functools
import json
import os
import resource
import sys
import time


def _mark(fn, stamps: list):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        stamps.append(time.monotonic())
        return result

    return marked


def _peak_rss_mb() -> float:
    """Peak RSS of this process image or of any child it has reaped, in MB.

    ru_maxrss of RUSAGE_SELF would also count the spawning process's RSS,
    which Linux carries across exec, so this process's own peak is VmHWM.
    Pool workers are forked from this process; their peaks are theirs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            own = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run(meta_path: str, trace: bool, argv: list[str]) -> int:
    t0 = time.monotonic()
    import qksd
    from qksd import cli
    from qksd.harness import drivers

    t1 = time.monotonic()
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        recorder.add(spans.IMPORT_SPAN, t0, t1)
        recorder.install()
    built: list[float] = []
    closed: list[float] = []
    drivers.build_system = _mark(drivers.build_system, built)
    drivers.write_csv = _mark(drivers.write_csv, closed)
    code = cli.main(argv)
    meta = {
        "built": built,
        "closed": closed,
        "exit": code,
        "rss_mb": _peak_rss_mb(),
        "qksd_file": qksd.__file__,
    }
    if recorder is not None:
        recorder.dump(meta_path + ".spans")
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(meta, f)
    return code


def scale(sites: int, meta_path: str) -> int:
    from qksd.harness import ExperimentConfig, build_system, targets_for

    t0 = time.monotonic()
    system = build_system(ExperimentConfig(sites=sites, n_list=(9,)))
    for construction in ("toeplitz", "nontoeplitz"):
        targets_for(system, 9, construction)
    build_s = time.monotonic() - t0
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump({"build_s": build_s, "rss_mb": _peak_rss_mb()}, f)
    return 0


def env(meta_path: str) -> int:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


def main(argv: list[str]) -> int:
    action = argv[0]
    if action == "run":
        meta_path, trace, sep, *cli_args = argv[1:]
        if sep != "--":
            raise SystemExit("usage: launch.py run <meta.json> <0|1> -- <qksd args>")
        return run(meta_path, trace == "1", cli_args)
    if action == "scale":
        return scale(int(argv[1]), argv[2])
    if action == "env":
        return env(argv[1])
    raise SystemExit(f"unknown action {action!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
