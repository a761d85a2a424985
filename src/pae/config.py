"""Flat key-value experiment configuration files.

One experiment per file, ``key = value`` lines, ``#`` comments.  Every field
has a default so configs stay small and diff-able; ``parse_config`` and
``serialize_config`` round-trip exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .driver import BACKENDS

EXPERIMENT_KINDS = ("rmse_vs_queries", "rmse_vs_depth", "bias_sweep",
                    "tl_curve", "single_run")


class ConfigError(ValueError):
    """Raised with a line/field diagnostic for malformed configs."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "rmse_vs_queries"
    amplitudes: tuple[float, ...] = ()
    amplitude_grid: int = 0          # when > 0: linspace(0, 1, amplitude_grid)
    k_min: int = 1
    k_max: int = 9
    strategy: str = "full_sequential"
    parallelism: int = 0             # general strategy only
    nu_variant: str = "optimized"
    nu_final: int = 7
    beta: float = 0.05
    trials: int = 100
    backend: str = "ideal"
    n: int = 2
    shots: int = 100000              # bias sweep
    l_table: str = "auto"            # auto | plus | plus_i
    t_min: float = 1.0               # tl curve
    t_max: float = 100.0
    t_step: float = 1.0
    seed: int = 1
    output_dir: str = "pae-out"
    jobs: int = 1                    # only 1: kept so configs that set it still parse


def _convert(field: dataclasses.Field, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if field.type == "tuple[float, ...]":
            if not raw:
                return ()
            return tuple(float(v) for v in raw.split(","))
        if field.type == "int":
            return int(raw)
        if field.type == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: field {field.name!r}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: field {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _convert(fields[key], raw, lineno)
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"field 'experiment': unknown kind {cfg.experiment!r}")
    if cfg.trials < 1:
        raise ConfigError(f"field 'trials': must be >= 1, got {cfg.trials}")
    if cfg.k_min < 1 or cfg.k_max < cfg.k_min:
        raise ConfigError(f"field 'k_min'/'k_max': bad range {cfg.k_min}..{cfg.k_max}")
    if cfg.shots < 1:
        raise ConfigError(f"field 'shots': must be >= 1, got {cfg.shots}")
    if cfg.backend not in BACKENDS:
        raise ConfigError(f"field 'backend': unknown backend {cfg.backend!r}")
    if cfg.l_table not in ("auto", "plus", "plus_i"):
        raise ConfigError(f"field 'l_table': unknown table {cfg.l_table!r}")
    if cfg.amplitude_grid < 0:
        raise ConfigError(f"field 'amplitude_grid': must be >= 0, got {cfg.amplitude_grid}")
    if cfg.amplitudes and cfg.amplitude_grid:
        raise ConfigError("fields 'amplitudes' and 'amplitude_grid': set one, not both")
    if cfg.jobs != 1:
        raise ConfigError(f"field 'jobs': must be 1, got {cfg.jobs}")
    if cfg.seed < 0:
        raise ConfigError(f"field 'seed': must be >= 0, got {cfg.seed}")
    if not cfg.output_dir:
        raise ConfigError("field 'output_dir': must not be empty")


def serialize_config(cfg: ExperimentConfig) -> str:
    """The config as ``key = value`` lines that :func:`parse_config` reads
    back to an equal config; a string that the format cannot carry (a
    ``#``, a line break, or surrounding whitespace) raises ConfigError."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "tuple[float, ...]":
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, str) and (
                "#" in value or value != value.strip() or len(value.splitlines()) > 1):
            raise ConfigError(f"field {f.name!r}: cannot write {value!r} as a config value")
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
