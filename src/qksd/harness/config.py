"""Flat key=value experiment configuration.

Config files are plain text: one `key = value` per line, `#` comments, blank
lines ignored.  Lists are comma separated.  Integer budgets accept scientific
notation (M = 1e8).  Unknown or duplicate keys are errors: silently ignoring
a misspelled key would silently change the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ConfigError
from ..krylov import CONSTRUCTIONS
from ..sampling import MODES

# Above this total budget the float64 budget split can round its per-part
# floors past the total.
MAX_BUDGET = 10**15


@dataclass(frozen=True)
class ExperimentConfig:
    sites: int = 2
    t_hop: float = 0.2
    u_int: float = 0.1
    n_up: Optional[int] = None  # default: half filling, extra electron spin-up
    n_down: Optional[int] = None
    n_list: tuple[int, ...] = (5,)
    dt: Optional[float] = None  # default: pi / weight norm
    m_list: tuple[int, ...] = (10**6,)
    constructions: tuple[str, ...] = ("toeplitz",)
    mode: str = "gaussian"
    hardware_lambda: float = 0.0
    epsilon_ideal: float = 1e-10  # stand-in threshold for "exact" reference solves
    seed: int = 0
    trials: int = 1000
    out: str = "results.csv"
    workers: int = 1

    def __post_init__(self):
        if self.sites < 1:
            raise ConfigError("L must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.out:
            raise ConfigError("out is empty: it must name the output CSV")
        if not self.n_list:
            raise ConfigError("n list is empty")
        for n in self.n_list:
            if n < 1 or n % 2 == 0:
                raise ConfigError(f"Krylov order n = {n} must be odd and >= 1")
        if not self.m_list:
            raise ConfigError("M list is empty")
        for m in self.m_list:
            if m < 2:
                raise ConfigError(f"budget M = {m} must be >= 2")
            if m > MAX_BUDGET:
                raise ConfigError(f"budget M = {m} exceeds the largest supported, 1e15")
        if not -(2**63) <= self.seed < 2**63:  # seeds are hashed as int64
            raise ConfigError(f"seed = {self.seed} is outside the int64 range")
        if not self.constructions:
            raise ConfigError("construction list is empty")
        for c in self.constructions:
            if c not in CONSTRUCTIONS:
                raise ConfigError(f"unknown construction {c!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.hardware_lambda < 0:
            raise ConfigError("hardware_lambda must be >= 0")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.epsilon_ideal > 0:
            raise ConfigError("epsilon_ideal must be positive")
        for name in ("n_up", "n_down"):
            v = getattr(self, name)
            if v is not None and not 0 <= v <= self.sites:
                raise ConfigError(f"{name} = {v} out of range for L = {self.sites}")

    @property
    def filling(self) -> tuple[int, int]:
        n_up = (self.sites + 1) // 2 if self.n_up is None else self.n_up
        n_down = self.sites // 2 if self.n_down is None else self.n_down
        return n_up, n_down


def _parse_int(key: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        v = float(token)
    except ValueError:
        raise ConfigError(f"{key}: {token!r} is not an integer") from None
    if not math.isfinite(v) or v != int(v):
        raise ConfigError(f"{key}: {token!r} is not an integer")
    return int(v)


def _parse_float(key: str, token: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ConfigError(f"{key}: {token!r} is not a number") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite")
    return v


def _parse_str(key: str, token: str) -> str:
    return token


def _parse_str_list(key: str, token: str) -> tuple[str, ...]:
    return tuple(p for p in (s.strip() for s in token.split(",")) if p)


def _parse_int_list(key: str, token: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, s) for s in _parse_str_list(key, token))


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value-string mapping; duplicate keys are errors."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


# Config key -> (ExperimentConfig field, parser).
_KEYS = {
    "L": ("sites", _parse_int),
    "t": ("t_hop", _parse_float),
    "u": ("u_int", _parse_float),
    "n_up": ("n_up", _parse_int),
    "n_down": ("n_down", _parse_int),
    "n": ("n_list", _parse_int_list),
    "dt": ("dt", _parse_float),
    "M": ("m_list", _parse_int_list),
    "construction": ("constructions", _parse_str_list),
    "mode": ("mode", _parse_str),
    "hardware_lambda": ("hardware_lambda", _parse_float),
    "epsilon_ideal": ("epsilon_ideal", _parse_float),
    "seed": ("seed", _parse_int),
    "trials": ("trials", _parse_int),
    "out": ("out", _parse_str),
    "workers": ("workers", _parse_int),
}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {
        field: parse(key, raw[key]) for key, (field, parse) in _KEYS.items() if key in raw
    }
    return ExperimentConfig(**kwargs)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a config file and apply CLI-style overrides (already-typed values)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = config_from_mapping(parse_config_text(text))
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg
