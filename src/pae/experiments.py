"""Experiment drivers: error-vs-resources sweeps, bias calibration, and the
strength-to-length curve, with deterministic content-hashed seeds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from . import circuit as circ
from . import driver, qsp
from .config import ExperimentConfig
from .core_model import make_instance


@dataclass(frozen=True)
class ResultRow:
    a: float
    K: int
    strategy: str
    n_queries: int
    oracle_depth: int
    width: int
    rmse: float
    trials: int
    seed: int


def trial_seed(base_seed: int, a: float, K: int, trial: int) -> int:
    """Stable per-trial seed: base seed xor a content hash of (a, K, trial)."""
    digest = hashlib.sha256(f"a={a!r}|K={K}|trial={trial}".encode()).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & (2 ** 63 - 1)


def _resolve_l_table(cfg: ExperimentConfig):
    if cfg.l_table == "plus":
        return driver.PARALLEL_L_TABLE_PLUS
    if cfg.l_table == "plus_i":
        return driver.PARALLEL_L_TABLE_PLUS_I
    return None


def _amplitudes(cfg: ExperimentConfig):
    if cfg.amplitude_grid > 0:
        return [float(v) for v in np.linspace(0.0, 1.0, cfg.amplitude_grid)]
    return list(cfg.amplitudes)


def _schedule_for(cfg: ExperimentConfig, K: int) -> driver.Schedule:
    return driver.build_schedule(
        strategy=cfg.strategy, k_max=K,
        parallelism=cfg.parallelism or None, beta=cfg.beta,
        nu_variant=cfg.nu_variant, nu_final=cfg.nu_final,
        l_table=_resolve_l_table(cfg))


def _cells(cfg: ExperimentConfig, ks):
    """Probability phase of an experiment over the configured amplitudes and
    the step counts ``ks``: yields ``(a, K, schedule, probabilities, seed)``
    per (amplitude, K) cell, amplitudes outermost.

    Each schedule is built once per K.  Each distinct step, keyed on
    ``(p, t, s, l)``, is evaluated once for all amplitudes by one
    :func:`driver.step_probabilities` call, and every K takes its ``(K, 2)``
    rows from that table.  ``seed`` is the cell's ``trial_seed(seed, a, K, 0)``.
    """
    amplitudes = _amplitudes(cfg)
    if not amplitudes:
        raise driver.ConfigurationError(
            f"{cfg.experiment} needs 'amplitudes' or 'amplitude_grid'")
    schedules = {K: _schedule_for(cfg, K) for K in ks}
    steps = {(st.p, st.t, st.s, st.l): st
             for schedule in schedules.values() for st in schedule}
    table = driver.step_probabilities([make_instance(a, cfg.n) for a in amplitudes],
                                      list(steps.values()), cfg.backend)
    column = {key: j for j, key in enumerate(steps)}
    probabilities = {K: table[:, [column[(st.p, st.t, st.s, st.l)] for st in schedule]]
                     for K, schedule in schedules.items()}
    for i, a in enumerate(amplitudes):
        for K, schedule in schedules.items():
            yield a, K, schedule, probabilities[K][i], trial_seed(cfg.seed, a, K, 0)


def run_rmse_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """RMSE over ``trials`` independent runs for every (amplitude, K).

    The probability phase is :func:`_cells`.  The sampling phase then draws
    each cell's trials in one batch on one generator seeded by the cell's
    trial-0 seed, so trial 0 of a cell equals :func:`driver.run` at that
    seed, and recovers the phase of all trials at once.
    """
    rows = []
    for a, K, schedule, probabilities, seed in _cells(
            cfg, range(cfg.k_min, cfg.k_max + 1)):
        estimate, _ = driver.sample_and_recover(schedule, probabilities, seed, cfg.trials)
        report = driver.resource_report(schedule, cfg.n)
        rows.append(ResultRow(
            a=a, K=K, strategy=cfg.strategy, n_queries=report.n_queries,
            oracle_depth=report.oracle_depth, width=report.width,
            rmse=float(np.sqrt(np.mean((estimate.a_hat - a) ** 2))),
            trials=cfg.trials, seed=cfg.seed))
    return rows


@dataclass(frozen=True)
class BiasRow:
    k: int
    l: int
    beta_plus: float
    beta_i: float


def run_bias_sweep(cfg: ExperimentConfig) -> list[BiasRow]:
    """Measured probability bias of the synthesized parallel circuit.

    For every step ``k`` (strength 1, ``2^(k-1)`` branches, query length from
    the configured table) the even-parity frequency at ``shots`` draws is
    compared with the exact-shifter probability, maximized over the
    amplitude grid.  Requires a backend that actually synthesizes
    (``analytic`` or ``statevector``).
    """
    if cfg.backend == "ideal":
        raise driver.ConfigurationError("bias sweep needs a synthesizing backend")
    table = _resolve_l_table(cfg) or driver.PARALLEL_L_TABLE_PLUS
    amps = _amplitudes(cfg) or [float(v) for v in np.linspace(0.0, 1.0, 101)]
    instances = [make_instance(a, cfg.n) for a in amps]
    schedule = driver.build_schedule(strategy="full_parallel", k_max=cfg.k_max,
                                     l_table=table)
    schedule = replace(schedule, steps=schedule.steps[cfg.k_min - 1:])
    probs = driver.step_probabilities(instances, schedule, cfg.backend)
    ideal = driver.step_probabilities(instances, schedule, "ideal")
    rows = []
    for i, st in enumerate(schedule):
        # one draw per step: rows are amplitudes, columns PLUS and PLUS_I
        counts = circ.sample_even_parity(probs[:, i], cfg.shots,
                                         np.random.SeedSequence([cfg.seed, st.k]))
        worst = np.max(np.abs(counts / cfg.shots - ideal[:, i]), axis=0)
        rows.append(BiasRow(k=st.k, l=st.l, beta_plus=float(worst[0]), beta_i=float(worst[1])))
    return rows


@dataclass(frozen=True)
class TlRow:
    t: float
    l_min: int


def run_tl_curve(cfg: ExperimentConfig) -> list[TlRow]:
    """Minimal even query length over a grid of shifter strengths.

    The grid ``t_min + i t_step`` is computed in decimal from the configured
    values, so a step of 0.1 gives 0.3, not 0.30000000000000004.
    """
    if not 0 < cfg.t_step < math.inf:
        raise driver.ConfigurationError(
            f"t_step must be positive and finite, got {cfg.t_step}")
    if not -math.inf < cfg.t_min <= cfg.t_max < math.inf:
        raise driver.ConfigurationError(
            f"empty or unbounded strength grid: t_min {cfg.t_min}, t_max {cfg.t_max}")
    t_min, t_step = Decimal(repr(cfg.t_min)), Decimal(repr(cfg.t_step))
    count = math.floor((Decimal(repr(cfg.t_max)) - t_min) / t_step) + 1
    rows = []
    for i in range(count):
        t = float(t_min + i * t_step)
        rows.append(TlRow(t=t, l_min=qsp.minimal_query_length(t)))
    return rows


def run_single(cfg: ExperimentConfig):
    """One full run per configured amplitude at ``k_max`` steps: a list of
    ``(a, estimate, report, counts)`` with each run's ``(K, 2)`` counts.

    The probability phase is :func:`_cells` with the one step count
    ``k_max``; each amplitude then samples one run with its trial-0 seed, so
    every run equals a :func:`driver.run` of that amplitude alone.
    """
    out = []
    for a, _, schedule, probabilities, seed in _cells(cfg, [cfg.k_max]):
        estimate, counts = driver.sample_and_recover(schedule, probabilities, seed)
        out.append((a, estimate, driver.resource_report(schedule, cfg.n), counts))
    return out
