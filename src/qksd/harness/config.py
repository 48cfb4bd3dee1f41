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
from ..sampling import MODES, decay_exponent


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


def _split_list(token: str) -> list[str]:
    return [p for p in (s.strip() for s in token.split(",")) if p]


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


_KNOWN_KEYS = {
    "L", "t", "u", "n_up", "n_down", "n", "dt", "M", "construction", "mode",
    "hardware_lambda", "hardware_r", "hardware_depth", "epsilon_ideal",
    "seed", "trials", "out", "workers",
}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    kwargs: dict = {}
    if "L" in raw:
        kwargs["sites"] = _parse_int("L", raw["L"])
    if "t" in raw:
        kwargs["t_hop"] = _parse_float("t", raw["t"])
    if "u" in raw:
        kwargs["u_int"] = _parse_float("u", raw["u"])
    for key, dest in (("n_up", "n_up"), ("n_down", "n_down")):
        if key in raw:
            kwargs[dest] = _parse_int(key, raw[key])
    if "n" in raw:
        kwargs["n_list"] = tuple(_parse_int("n", s) for s in _split_list(raw["n"]))
    if "dt" in raw:
        kwargs["dt"] = _parse_float("dt", raw["dt"])
    if "M" in raw:
        kwargs["m_list"] = tuple(_parse_int("M", s) for s in _split_list(raw["M"]))
    if "construction" in raw:
        kwargs["constructions"] = tuple(_split_list(raw["construction"]))
    if "mode" in raw:
        kwargs["mode"] = raw["mode"]
    if "epsilon_ideal" in raw:
        kwargs["epsilon_ideal"] = _parse_float("epsilon_ideal", raw["epsilon_ideal"])
    for key, dest in (("seed", "seed"), ("trials", "trials"), ("workers", "workers")):
        if key in raw:
            kwargs[dest] = _parse_int(key, raw[key])
    if "out" in raw:
        kwargs["out"] = raw["out"]

    # decay: either a direct exponent or (fidelity, depth), not both
    if "hardware_lambda" in raw and ("hardware_r" in raw or "hardware_depth" in raw):
        raise ConfigError("give hardware_lambda or (hardware_r, hardware_depth), not both")
    if "hardware_lambda" in raw:
        kwargs["hardware_lambda"] = _parse_float("hardware_lambda", raw["hardware_lambda"])
    elif "hardware_r" in raw or "hardware_depth" in raw:
        if not ("hardware_r" in raw and "hardware_depth" in raw):
            raise ConfigError("hardware_r and hardware_depth must be given together")
        r = _parse_float("hardware_r", raw["hardware_r"])
        depth = _parse_int("hardware_depth", raw["hardware_depth"])
        if depth < 0:
            raise ConfigError("hardware_depth must be >= 0")
        sites = kwargs.get("sites", ExperimentConfig.sites)
        try:
            kwargs["hardware_lambda"] = decay_exponent(r, 2 * sites, depth)
        except ValueError as exc:
            raise ConfigError(f"hardware_r: {exc}") from None

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
