"""Test session setup and terminal summary.

BLAS runs on one thread, set here before numpy is first imported: at L >= 6
the sector eigendecomposition is large enough that OpenBLAS's threaded
kernels move its last bits with the thread count, and the pinned CSV digests
are recorded at one thread, as the CI workflow and the benchmark run.

The summary prints one CRITERION line per numbered acceptance test.
"""

import os
import re

os.environ["OPENBLAS_NUM_THREADS"] = "1"

_ACCEPT = re.compile(r"test_acceptance\.py::test_(\d{2})_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = _ACCEPT.search(getattr(rep, "nodeid", ""))
            if m:
                outcomes[int(m.group(1))] = word
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for k in sorted(outcomes):
            terminalreporter.write_line(f"CRITERION {k} {outcomes[k]}")
