"""Experiment drivers: error-vs-resources sweeps, bias calibration, and the
strength-to-length curve, with deterministic content-hashed seeds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import driver, qsp, rpe
from .config import ExperimentConfig
from .core_model import DomainError, make_instance

# The most bytes one table of float64s of a sweep may hold: the (cells,
# trials, K, 2) frequencies of an RMSE sweep and the (amplitudes, sum K, 2)
# probabilities of every sweep.  A sweep with a table past it is refused
# before any work, as circuit.check_capacity refuses statevector blocks.
_TABLE_MAX_BYTES = 2 ** 30
# The most strengths a tl_curve grid may hold.  Each row is one length
# search of 10 to 22 us (T = 1 to 1e6, one core of an x86-64 host), and
# `pae run` of the longest grid, T = 1..1e5, took 2.6 s and wrote 1.4 MB of
# CSV and 6.9 MB of SVG there; the curve is smooth, about e T plus a log
# term, so a finer grid adds nothing to read.
_TL_MAX_ROWS = 10 ** 5


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


def _amplitude_count(cfg: ExperimentConfig) -> int:
    """The number of amplitudes :func:`_amplitudes` gives, without them."""
    return cfg.amplitude_grid if cfg.amplitude_grid > 0 else len(cfg.amplitudes)


def _check_table(name: str, shape: tuple[int, ...]) -> None:
    """Raise :class:`DomainError` when a float64 table of ``shape`` would
    hold more than ``_TABLE_MAX_BYTES``."""
    nbytes = 8 * math.prod(shape)
    if nbytes > _TABLE_MAX_BYTES:
        raise DomainError(
            f"the {name} table, {' x '.join(map(str, shape))} floats, needs "
            f"{nbytes / 2 ** 30:.3g} GiB, over the {_TABLE_MAX_BYTES / 2 ** 30:g} GiB guard")


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

    Each schedule is built once per K, and the steps of all of them go to
    one :func:`driver.step_probabilities` call for all amplitudes, which
    evaluates each distinct step once.  Each K takes its ``(K, 2)`` rows by
    splitting that ``(n, sum K, 2)`` table at the schedule boundaries.
    ``seed`` is the cell's ``trial_seed(seed, a, K, 0)``.  A probability
    table past ``_TABLE_MAX_BYTES`` is refused before any work.
    """
    if not _amplitude_count(cfg):
        raise DomainError(
            f"{cfg.experiment} needs 'amplitudes' or 'amplitude_grid'")
    if not ks:
        raise DomainError(
            f"{cfg.experiment} needs k_min <= k_max, got {cfg.k_min}..{cfg.k_max}")
    _check_table("probability", (_amplitude_count(cfg), sum(ks), 2))
    amplitudes = _amplitudes(cfg)
    schedules = [_schedule_for(cfg, K) for K in ks]
    table = driver.step_probabilities([make_instance(a, cfg.n) for a in amplitudes],
                                      [st for schedule in schedules for st in schedule],
                                      cfg.backend)
    probabilities = np.split(table, np.cumsum([sched.K for sched in schedules])[:-1], axis=1)
    for i, a in enumerate(amplitudes):
        for schedule, probs in zip(schedules, probabilities):
            yield a, schedule.K, schedule, probs[i], trial_seed(cfg.seed, a, schedule.K, 0)


def run_rmse_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """RMSE over ``trials`` independent runs for every (amplitude, K).

    The probability phase is :func:`_cells`.  The sampling phase then draws
    each cell's trials in one batch on one generator seeded by the cell's
    trial-0 seed (:func:`driver.draw_counts`), so trial 0 of a cell equals
    :func:`driver.run` at that seed.  The frequencies of all cells, padded
    to the largest K, go to one :func:`rpe.estimate_phase` call, which
    recovers every trial of every cell at once; recovery is elementwise
    and step ``k`` reads only steps ``1..k``, so each cell's final estimate
    is read at its own K, with the bits of a recovery of that cell alone.
    A frequency table past ``_TABLE_MAX_BYTES`` is refused before any work.
    """
    ks = range(cfg.k_min, cfg.k_max + 1)
    _check_table("frequency", (_amplitude_count(cfg) * len(ks), cfg.trials, cfg.k_max, 2))
    cells = list(_cells(cfg, ks))
    ks = [K for _, K, _, _, _ in cells]
    frequencies = np.zeros((len(cells), cfg.trials, max(ks), 2))
    for freqs, (_, K, schedule, probabilities, seed) in zip(frequencies, cells):
        freqs[:, :K] = driver.draw_counts(schedule, probabilities, seed, cfg.trials)[1]
    trajectory = rpe.estimate_phase(frequencies).trajectory
    a_hat = rpe.finalize([np.array([trajectory[K - 1][i] for i, K in enumerate(ks)])]).a_hat
    schedules = {K: schedule for _, K, schedule, _, _ in cells}
    reports = {K: driver.resource_report(schedule, cfg.n) for K, schedule in schedules.items()}
    rows = []
    for (a, K, _, _, _), estimates in zip(cells, a_hat):
        report = reports[K]
        rows.append(ResultRow(
            a=a, K=K, strategy=cfg.strategy, n_queries=report.n_queries,
            oracle_depth=report.oracle_depth, width=report.width,
            rmse=float(np.sqrt(np.mean((estimates - a) ** 2))),
            trials=cfg.trials, seed=cfg.seed))
    return rows


@dataclass(frozen=True)
class BiasRow:
    k: int
    l: int
    beta_plus: float
    beta_i: float
    a_plus: float
    a_i: float


def run_bias_sweep(cfg: ExperimentConfig) -> list[BiasRow]:
    """Exact probability bias of the synthesized parallel circuit.

    For every step ``k`` from ``k_min`` to ``k_max`` (strength 1,
    ``2^(k-1)`` branches, query length from the configured table, ``plus``
    when ``auto``) the probability of each setting on the configured
    backend is compared with the exact-shifter one of the ``ideal``
    backend.  ``beta_plus`` and ``beta_i`` are the largest ``|p - p_ideal|``
    over the amplitudes, and ``a_plus`` and ``a_i`` the amplitudes where
    they fall, the first one on ties.  The amplitudes are the configured
    ones, or 101 evenly spaced in ``[0, 1]`` when neither ``amplitudes``
    nor ``amplitude_grid`` is set.

    The bias is exact on the amplitude grid: nothing is drawn, so the rows
    depend on neither ``shots`` nor ``seed``.  Requires a backend that
    actually synthesizes (``analytic`` or ``statevector``).  A probability
    table past ``_TABLE_MAX_BYTES`` is refused before any work.
    """
    if cfg.backend == "ideal":
        raise DomainError("bias sweep needs a synthesizing backend")
    _check_table("probability", (_amplitude_count(cfg) or 101, cfg.k_max - cfg.k_min + 1, 2))
    table = _resolve_l_table(cfg) or driver.PARALLEL_L_TABLE_PLUS
    amps = _amplitudes(cfg) or [float(v) for v in np.linspace(0.0, 1.0, 101)]
    instances = [make_instance(a, cfg.n) for a in amps]
    steps = driver.build_schedule(strategy="full_parallel", k_max=cfg.k_max,
                                  l_table=table).steps[cfg.k_min - 1:]
    bias = np.abs(driver.step_probabilities(instances, steps, cfg.backend)
                  - driver.step_probabilities(instances, steps, "ideal"))
    where = np.argmax(bias, axis=0)
    worst = np.take_along_axis(bias, where[None], axis=0)[0].tolist()
    at = np.asarray(amps)[where].tolist()
    return [BiasRow(k=st.k, l=st.l, beta_plus=b[0], beta_i=b[1], a_plus=a[0], a_i=a[1])
            for st, b, a in zip(steps, worst, at)]


@dataclass(frozen=True)
class TlRow:
    t: float
    l_min: int


def run_tl_curve(cfg: ExperimentConfig) -> list[TlRow]:
    """The calibrated query length, ``qsp.select_L_empirical``, the one
    that schedules use, over a grid of shifter strengths.

    The grid ``t_min + i t_step`` is computed in decimal from the configured
    values, so a step of 0.1 gives 0.3, not 0.30000000000000004.  A grid of
    more than ``_TL_MAX_ROWS`` strengths is refused before the first search.
    """
    if not 0 < cfg.t_step < math.inf:
        raise DomainError(
            f"t_step must be positive and finite, got {cfg.t_step}")
    if not -math.inf < cfg.t_min <= cfg.t_max < math.inf:
        raise DomainError(
            f"empty or unbounded strength grid: t_min {cfg.t_min}, t_max {cfg.t_max}")
    t_min, t_step = Decimal(repr(cfg.t_min)), Decimal(repr(cfg.t_step))
    count = math.floor((Decimal(repr(cfg.t_max)) - t_min) / t_step) + 1
    if count > _TL_MAX_ROWS:
        raise DomainError(
            f"strength grid t_min {cfg.t_min} to t_max {cfg.t_max} in steps of "
            f"{cfg.t_step} has more than {_TL_MAX_ROWS} points, the row limit")
    rows = []
    for i in range(count):
        t = float(t_min + i * t_step)
        rows.append(TlRow(t=t, l_min=qsp.select_L_empirical(t)))
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
