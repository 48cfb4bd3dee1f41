"""Command-line entry point.

    qksd <driver> --config <path> [--seed N] [--trials N] [--out PATH]
                  [--mode binomial|gaussian] [--construction ...] [--workers N]

Exit codes: 0 success, 2 configuration error or resource limit (system
above the size cap, a refused fork, out of memory), 3 infeasible budget,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleBudgetError, NumericalError, ResourceLimitError
from .harness import config as config_mod
from .harness import drivers
from .krylov import CONSTRUCTIONS

DRIVERS = {
    "error-norms": drivers.run_error_norm_ensemble,
    "singular-spectrum": drivers.run_singular_spectrum,
    "threshold-sweep": drivers.run_threshold_sweep,
    "optimal-threshold": drivers.run_optimal_threshold_scan,
    "perturbation-bound": drivers.run_perturbation_vs_bound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qksd",
        description="Sampled Krylov-pair experiment drivers (CSV output).",
    )
    parser.add_argument("driver", choices=sorted(DRIVERS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--mode", choices=config_mod.MODES, default=None)
    parser.add_argument("--construction", choices=CONSTRUCTIONS, default=None)
    parser.add_argument("--workers", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "out": args.out,
        "mode": args.mode,
        "workers": args.workers,
        "constructions": (args.construction,) if args.construction else None,
    }
    try:
        cfg = config_mod.load_config(args.config, overrides)
        result = DRIVERS[args.driver](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # raised in this process or in a forked child
        detail = f": {exc}" if str(exc) else ""
        print(f"resource limit: out of memory{detail}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {result.path} ({result.row_count} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
