"""End-to-end estimation runs: schedules, execution, and query accounting.

A schedule fixes, for every resolution step ``k``, the split of the signal
multiplier ``2^(k-1) = P_k T_k S_k`` into parallel branches, shifter
strength, and sequential repetitions, together with shot counts ``nu_k``
and query lengths ``L_k``.

A run has two phases:

* the probability phase, :func:`step_probabilities`, computes the exact
  even-parity probability of both measurement settings of every step on the
  selected backend.  It is deterministic: it depends on the amplitude and
  the schedule, never on a seed, so it is done once and shared by every
  trial of a sweep.  On the analytic backend the eigenphase blocks depend
  on a step's ``(t, l, s)`` alone, so they are built once for all steps
  that share it and contracted for each step's branch count ``p``, and the
  ``ideal`` backend evaluates the closed form
  :func:`circuit.ideal_probabilities` once per step for all instances;
* the sampling and recovery phase, :func:`sample_and_recover`, seeds one
  generator, draws the parity counts of one run, ``(K, 2)``, or of a batch
  of trials, ``(trials, K, 2)``, from those probabilities in one binomial
  call, and passes the frequencies ``counts / nu`` straight to
  :func:`rpe.estimate_phase`.  Both return the estimate and the counts.
  The trials of a batch are consecutive ``(K, 2)`` draws of that one
  stream: trial 0 is the single run at the same seed, and the first ``m``
  trials of any batch are the ``m``-trial batch.

``run`` composes the two, returns the run's ``(K, 2)`` counts, and reports
the exact query count ``N = 2 sum_k nu_k P_k S_k L_k`` alongside depth and
width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as circ
from . import qsp, rpe
from .core_model import AmplitudeInstance, DomainError

# Calibrated per-step query lengths for T=1 parallel runs that keep the
# measured probability bias of each setting at or below 0.05 (steps 1..9).
PARALLEL_L_TABLE_PLUS = (10, 12, 12, 14, 16, 16, 18, 20, 20)
PARALLEL_L_TABLE_PLUS_I = (12, 14, 14, 14, 16, 16, 18, 20, 20)

BACKENDS = ("analytic", "statevector", "ideal")


class ConfigurationError(ValueError):
    """Raised for invalid schedule or strategy parameters."""


@dataclass(frozen=True)
class ScheduleStep:
    k: int
    m: int          # signal multiplier 2^(k-1)
    p: int          # parallel branches
    t: float        # shifter strength
    s: int          # sequential repetitions
    nu: int         # shots per setting
    l: int          # queries per shifter application


@dataclass(frozen=True)
class Schedule:
    steps: tuple[ScheduleStep, ...]
    strategy: str
    K: int

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class ResourceReport:
    n_queries: int       # total oracle calls, both settings included
    oracle_depth: int    # max_k S_k * L_k sequential oracle calls
    ghz_layers: int      # max_k ceil(log2 P_k)
    width: int           # max_k P_k * (n + 1)


def _split_t_s(ts: int, t_cap: int) -> tuple[float, int]:
    """Factor a multiplier into strength <= t_cap and repetitions."""
    if ts <= t_cap:
        return float(ts), 1
    return float(t_cap), ts // t_cap


def build_schedule(strategy: str = "full_sequential", eps: float | None = None,
                   k_max: int | None = None, parallelism: int | None = None,
                   beta: float = 0.05, nu_variant: str = "optimized",
                   nu_final: int = 7, l_table=None, certified: bool = False,
                   t_cap: int = 8) -> Schedule:
    """Build the per-step resource schedule.

    Exactly one of ``eps`` (proof mode, ``K = ceil(log2(1/eps)) + 6``) and
    ``k_max`` (experiment mode) fixes the step count.  Strategies:

    * ``full_parallel``: ``T_k = 1``, ``P_k = 2^(k-1)``;
    * ``full_sequential``: ``P_k = 1``, ``T_k = 2^(k-1)``;
    * ``general``: ``P_k = 1`` while ``2^k <= 2^K / parallelism``, beyond
      that ``T_k S_k = 2^(K-1) / parallelism`` with the strength capped at
      ``t_cap`` and the rest folded into repetitions.  ``parallelism``
      belongs to this strategy alone; the other two reject it.

    ``l_table`` overrides the per-step query lengths, step ``k`` at index
    ``k - 1``, and needs at least ``K`` entries; otherwise they come from
    the calibrated selector (or the certified one when ``certified``).
    """
    if (eps is None) == (k_max is None):
        raise ConfigurationError("give exactly one of eps (proof mode) and k_max")
    if eps is not None:
        if not 0.0 < eps < 1.0:
            raise ConfigurationError(f"target error must lie in (0, 1), got {eps}")
        K = math.ceil(math.log2(1.0 / eps)) + 6
    else:
        K = int(k_max)
    if K < 1:
        raise ConfigurationError(f"step count must be >= 1, got {K}")
    if not 0.0 < beta < rpe.ROBUSTNESS_LIMIT:
        raise ConfigurationError(f"bias budget must lie in (0, sqrt(6)/8), got {beta}")
    if t_cap < 1 or t_cap & (t_cap - 1):
        raise ConfigurationError(f"strength cap must be a power of two, got {t_cap}")
    if l_table is not None and len(l_table) < K:
        raise ConfigurationError(f"l_table has {len(l_table)} entries, schedule needs {K}")

    if parallelism is not None and strategy != "general":
        raise ConfigurationError(
            f"parallelism applies to the general strategy only, got {parallelism} "
            f"for {strategy!r}")
    if strategy == "general":
        p_total = parallelism
        if p_total is None or p_total < 1 or (p_total & (p_total - 1)):
            raise ConfigurationError(
                f"general mode needs a power-of-two parallelism, got {p_total}")
        if p_total > 2 ** (K - 1):
            raise ConfigurationError(
                f"parallelism {p_total} exceeds the top multiplier 2^{K - 1}")

    steps = []
    for k in range(1, K + 1):
        m = 2 ** (k - 1)
        if strategy == "full_parallel":
            p, t, s = m, 1.0, 1
        elif strategy == "full_sequential":
            p, t, s = 1, float(m), 1
        elif strategy == "general":
            if 2 ** k <= 2 ** K // p_total:
                p = 1
                t, s = _split_t_s(m, t_cap)
            else:
                ts = 2 ** (K - 1) // p_total
                p = m // ts
                t, s = _split_t_s(ts, t_cap)
        else:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        nu = rpe.schedule_nu(K, k, variant=nu_variant, beta=beta, nu_final=nu_final)
        if l_table is not None:
            l = int(l_table[k - 1])
        elif certified:
            l = qsp.select_L(t, beta / (math.sqrt(2.0) * p * s))
        else:
            l = qsp.select_L_empirical(t)
        if p * t * s != m:
            raise ConfigurationError(
                f"step {k}: P*T*S = {p}*{t:g}*{s} differs from 2^(k-1) = {m}")
        steps.append(ScheduleStep(k=k, m=m, p=p, t=t, s=s, nu=nu, l=l))
    return Schedule(steps=tuple(steps), strategy=strategy, K=K)


def query_count(schedule: Schedule) -> int:
    """Exact oracle-call total ``2 sum_k nu_k P_k S_k L_k``."""
    return 2 * sum(st.nu * st.p * st.s * st.l for st in schedule)


def resource_report(schedule: Schedule, n: int) -> ResourceReport:
    return ResourceReport(
        n_queries=query_count(schedule),
        oracle_depth=max(st.s * st.l for st in schedule),
        ghz_layers=max(circ.ghz_depth(st.p) for st in schedule),
        width=max(st.p * (n + 1) for st in schedule),
    )


def _analytic_columns(thetas: list[float], steps) -> list[np.ndarray]:
    """Analytic ``(n, 2)`` probabilities of each step, one row per instance
    angle: the eigenphase blocks are built once per distinct ``(t, l, s)``
    and contracted for each step's ``p``."""
    blocks = {}
    columns = []
    for st in steps:
        key = (st.t, st.l, st.s)
        if key not in blocks:
            blocks[key] = circ.eigenphase_blocks(qsp.synthesize_shifter(st.t, st.l),
                                                 st.s, thetas)
        columns.append(circ._parity_probabilities(blocks[key], st.p))
    return columns


def step_probabilities(instances, schedule: Schedule,
                       backend: str = "analytic") -> np.ndarray:
    """Probability phase: the exact even-parity probabilities, one row per
    step, columns PLUS and PLUS_I, of one instance, ``(K, 2)``, or of a
    sequence of instances, ``(n, K, 2)``, evaluated together step by step.
    ``schedule`` may also be any sequence of steps.  A step's probabilities
    depend on the instance and on its ``(p, t, s, l)`` alone."""
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    single = isinstance(instances, AmplitudeInstance)
    batch = [instances] if single else list(instances)
    if backend == "analytic":
        columns = _analytic_columns([inst.theta for inst in batch], schedule)
    elif backend == "ideal":
        phis = np.array([inst.phi for inst in batch])
        columns = [circ.ideal_probabilities(st.m, phis) for st in schedule]
    else:
        columns = [circ.statevector_even_parity_probabilities(
            qsp.synthesize_shifter(st.t, st.l), st.p, st.s, batch) for st in schedule]
    probabilities = np.stack(columns, axis=1)
    return probabilities[0] if single else probabilities


def sample_and_recover(schedule: Schedule, probabilities: np.ndarray, seed,
                       trials: int | None = None):
    """Sampling and recovery phase: draw every step's counts from the
    ``(K, 2)`` ``probabilities`` of one instance (as returned by
    :func:`step_probabilities`) and recover the phase.

    ``seed`` is one seed (an integer or a ``SeedSequence``) of one
    ``default_rng``, which draws the counts, ``nu_k`` shots per setting, in
    one ``binomial`` call: ``(K, 2)`` counts without ``trials``, and
    ``(n, K, 2)`` with ``trials=n``.  A batch is ``n`` consecutive
    ``(K, 2)`` draws of the same stream, so trial 0 equals the single run at
    ``seed`` and the first ``m`` trials equal an ``m``-trial batch.  Returns
    ``(PhaseEstimate, counts)``: the recovery runs once over ``counts / nu``,
    so the estimate's fields are scalars for a single run and ``(n,)``
    arrays for a batch.
    """
    if np.ndim(seed) != 0:
        raise DomainError(f"seed must be a single seed, got shape {np.shape(seed)}")
    if trials is not None and trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    nu = np.array([[st.nu] for st in schedule])
    if np.shape(probabilities) != (len(nu), 2):
        raise DomainError(f"probabilities must have shape ({len(nu)}, 2), "
                          f"got {np.shape(probabilities)}")
    shape = (len(nu), 2) if trials is None else (trials, len(nu), 2)
    counts = np.random.default_rng(seed).binomial(nu, np.broadcast_to(probabilities, shape))
    return rpe.estimate_phase(counts / nu), counts


def run(instance: AmplitudeInstance, schedule: Schedule, seed: int,
        backend: str = "analytic"):
    """Execute a full estimation run: both phases, composed.

    Returns ``(PhaseEstimate, ResourceReport, counts)`` with the run's
    ``(K, 2)`` parity counts, columns PLUS and PLUS_I.
    """
    probabilities = step_probabilities(instance, schedule, backend)
    estimate, counts = sample_and_recover(schedule, probabilities, seed)
    return estimate, resource_report(schedule, instance.n), counts


def hl_reference(n_queries: int) -> float:
    """Reference error level ``pi / (2 (N - 1))`` of the most query-efficient
    sequential estimator, for plot overlays."""
    if n_queries <= 1:
        raise DomainError(f"query count must exceed 1, got {n_queries}")
    return math.pi / (2.0 * (n_queries - 1))


def theorem_resources(eps: float, parallelism: int, beta: float = 0.05) -> tuple[int, int]:
    """Concrete (non-asymptotic) query and depth sums of the proof-mode
    schedule at ``eps`` with the given parallelism: returns
    ``(N, max_k S_k L_k + ceil(log2 P))``."""
    sched = build_schedule(strategy="general", eps=eps, parallelism=parallelism,
                           beta=beta, nu_variant="theoretical")
    depth = max(st.s * st.l for st in sched) + circ.ghz_depth(parallelism)
    return query_count(sched), depth
