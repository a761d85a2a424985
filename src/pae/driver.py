"""End-to-end estimation runs: schedules, execution, and query accounting.

A schedule is a sequence of :class:`ScheduleStep`.  Step ``k`` splits its
multiplier ``m = 2^(k-1) = P_k T_k S_k`` into parallel branches, shifter
strength and sequential repetitions, and carries its shot count ``nu_k``
and query length ``L_k``.  The step holds that contract: ``m`` is derived
from ``k``, and a step that breaks it cannot be constructed.
:func:`build_schedule` splits every step by one rule, ``T_k S_k = min(m,
2^(K-1) / parallelism)`` with the strength ``T_k`` capped at ``t_cap``;
``full_parallel`` and ``full_sequential`` are its presets ``parallelism =
2^(K-1)`` and ``parallelism = 1, t_cap = 2^(K-1)``, the two ends of
``general``.

A run has two phases:

* the probability phase, :func:`step_probabilities`, computes the exact
  even-parity probability of both measurement settings of every step on the
  selected backend.  It depends on the amplitude and the steps, never on a
  seed, so it is done once and shared by every trial of a sweep, and it
  evaluates each distinct ``(p, t, s, l)`` once, all of them in one
  contraction per register size;
* the sampling and recovery phase, :func:`sample_and_recover`, draws the
  parity counts of one run, ``(K, 2)``, or of a batch of trials,
  ``(trials, K, 2)``, from those probabilities in one binomial call of one
  seeded generator (:func:`draw_counts`), and recovers the phase from
  ``counts / nu`` with :func:`rpe.estimate_phase`.  Trial 0 of a batch is
  the single run at the same seed, and the first ``m`` trials of any batch
  are the ``m``-trial batch.

``run`` composes the two and reports the exact query count ``N = 2 sum_k
nu_k P_k S_k L_k`` alongside depth and width; :func:`theorem_resources`
gives the count and depth of the proof-mode schedule at a target error, at
the calibrated lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as circ
from . import qsp, rpe
from .core_model import AmplitudeInstance, DomainError, checked_count, checked_length

# Calibrated per-step query lengths for T=1 parallel runs that keep the
# measured probability bias of each setting at or below 0.05 (steps 1..9).
PARALLEL_L_TABLE_PLUS = (10, 12, 12, 14, 16, 16, 18, 20, 20)
PARALLEL_L_TABLE_PLUS_I = (12, 14, 14, 14, 16, 16, 18, 20, 20)

BACKENDS = ("analytic", "statevector", "ideal")


def _power_of_two(value) -> bool:
    """Whether ``value`` passes :func:`checked_count` and holds a power of two."""
    try:
        n = checked_count("power of two", value)
    except DomainError:
        return False
    return not n & (n - 1)


@dataclass(frozen=True)
class ScheduleStep:
    """Resolution step ``k``, its multiplier ``m = 2^(k-1)`` split as ``P T S``;
    construction refuses ``k``, ``P``, ``S`` or a shot count ``nu`` that is
    not an integer of at least 1, a ``k`` above 63, whose multiplier would
    not fit a signed 64-bit count, any other split, and a query length
    ``l`` that is not a positive even integer, with :class:`DomainError`."""
    k: int
    p: int          # parallel branches
    t: float        # shifter strength
    s: int          # sequential repetitions
    nu: int         # shots per setting
    l: int          # queries per shifter application

    def __post_init__(self):
        checked_count("step index", self.k)
        where = f"step {self.k}: "
        if self.k > 63:
            raise DomainError(f"{where}the multiplier 2^(k-1) = 2^{self.k - 1} must fit "
                              f"a signed 64-bit count, so k <= 63")
        checked_count(where + "branch count", self.p)
        checked_count(where + "repetition count", self.s)
        if self.p * self.t * self.s != self.m:
            raise DomainError(
                f"{where}P*T*S = {self.p}*{self.t:g}*{self.s} must equal "
                f"2^(k-1) = {self.m}")
        checked_count(where + "shots per setting", self.nu)
        checked_length(where + "query length", self.l)

    @property
    def m(self) -> int:
        """Signal multiplier ``2^(k-1)``."""
        return 2 ** (self.k - 1)


@dataclass(frozen=True)
class Schedule:
    steps: tuple[ScheduleStep, ...]

    @property
    def K(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class ResourceReport:
    n_queries: int       # total oracle calls, both settings included
    oracle_depth: int    # max_k S_k * L_k sequential oracle calls
    ghz_layers: int      # max_k ceil(log2 P_k)
    width: int           # max_k P_k * (n + 1)


def build_schedule(strategy: str = "full_sequential", k_max: int | None = None,
                   parallelism: int | None = None, beta: float = 0.05,
                   nu_variant: str = "optimized", nu_final: int = 7, l_table=None,
                   certified: bool = False, t_cap: int | None = None) -> Schedule:
    """Build the schedule of ``K = k_max`` steps, an integer of at least 1.
    With ``top = 2^(K-1) / parallelism``, every step splits ``m = 2^(k-1)``
    as ``T_k S_k = min(m, top)``, ``P_k = m / (T_k S_k)``, ``T_k = min(T_k
    S_k, t_cap)`` and ``S_k`` the rest.
    ``general`` takes a power-of-two ``parallelism`` up to ``2^(K-1)`` and
    a power-of-two ``t_cap``, 8 unless given; ``full_parallel`` is the
    preset ``parallelism = 2^(K-1)`` (``T_k = S_k = 1``) and
    ``full_sequential`` the preset ``parallelism = 1, t_cap = 2^(K-1)``
    (``P_k = S_k = 1``).  The presets reject ``parallelism`` and ``t_cap``.
    The bias budget ``beta`` must lie in ``[0, sqrt(6)/8)``
    (:func:`rpe.check_bias`), and the shot counts come from
    :func:`rpe.schedule_nu`, which refuses a ``nu_final`` that is not an
    integer of at least 1.  Every refusal is a :class:`DomainError`.

    ``l_table`` overrides the per-step query lengths, step ``k`` at index
    ``k - 1``, and needs at least ``K`` entries; otherwise they come from
    the calibrated ``qsp.select_L_empirical``, the shortest length whose
    truncation bound meets ``qsp.BIAS_DELTA_THRESHOLD``, or, when
    ``certified``, from ``qsp.select_L``: the shortest length whose
    certified state error meets the step's share ``beta / (sqrt(2) P_k
    S_k)`` of the bias budget.  Both come from the one length search
    ``qsp._shortest_length``.  A step whose length the search refuses, a
    share below ``select_L``'s floor or a strength that needs a length
    above ``2^62``, raises its :class:`DomainError` prefixed with the step,
    ``step k (P = P_k, S = S_k): ``.
    """
    K = checked_count("step count", k_max)
    rpe.check_bias(beta)
    if t_cap is not None and not _power_of_two(t_cap):
        raise DomainError(f"strength cap must be a power of two, got {t_cap}")
    if l_table is not None and len(l_table) < K:
        raise DomainError(f"l_table has {len(l_table)} entries, schedule needs {K}")

    for name, value in (("parallelism", parallelism), ("t_cap", t_cap)):
        if value is not None and strategy != "general":
            raise DomainError(
                f"{name} applies to the general strategy only, got {value} "
                f"for {strategy!r}")
    top = 2 ** (K - 1)
    if t_cap is None:
        t_cap = 8
    if strategy == "full_parallel":
        parallelism = top
    elif strategy == "full_sequential":
        parallelism, t_cap = 1, top
    elif strategy != "general":
        raise DomainError(f"unknown strategy {strategy!r}")
    elif not _power_of_two(parallelism):
        raise DomainError(
            f"general mode needs a power-of-two parallelism, got {parallelism}")
    elif parallelism > top:
        raise DomainError(
            f"parallelism {parallelism} exceeds the top multiplier 2^{K - 1}")

    steps = []
    for k in range(1, K + 1):
        m = 2 ** (k - 1)
        ts = min(m, top // parallelism)
        strength = min(ts, t_cap)
        p, t, s = m // ts, float(strength), ts // strength
        nu = rpe.schedule_nu(K, k, variant=nu_variant, beta=beta, nu_final=nu_final)
        if l_table is not None:
            l = l_table[k - 1]
        else:
            try:
                l = (qsp.select_L(t, beta / (math.sqrt(2.0) * p * s)) if certified
                     else qsp.select_L_empirical(t))
            except DomainError as err:
                raise DomainError(f"step {k} (P = {p}, S = {s}): {err}") from err
        steps.append(ScheduleStep(k=k, p=p, t=t, s=s, nu=nu, l=l))
    return Schedule(steps=tuple(steps))


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


def step_probabilities(instances, schedule: Schedule,
                       backend: str = "analytic") -> np.ndarray:
    """Probability phase: the exact even-parity probabilities, one row per
    step, columns PLUS and PLUS_I, of one instance, ``(K, 2)``, or of a
    sequence of instances, ``(n, K, 2)``.  ``schedule`` may be any sequence
    of steps, repeats included; each :class:`ScheduleStep` has checked its
    own split when it was made.

    The ideal backend evaluates the closed form of every step at once.  The
    analytic and statevector backends compose the stages of :mod:`circuit`
    alike: the shifters of every distinct ``(t, l)`` come from one
    ``qsp.synthesize_shifters`` batch, after the memory guard and before
    any stage; then one stage call that asks every distinct ``(t, l)`` for
    every ``s`` the steps ask of it, then one
    ``circuit.parity_probabilities`` call that contracts the stack of every
    distinct ``(p, t, s, l)``, each on the blocks of its ``s`` for its
    ``p``.  The stage is ``circuit.analytic_stage`` of the instance angles
    on the analytic backend, one call for all instances, and
    ``circuit.statevector_stage`` around the controlled-Grover blocks on
    the statevector one, one call per register size, as is the
    contraction; those blocks are built once per instance and call, after
    the memory guard has passed every register size, and each size's only
    when its group runs."""
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}")
    steps = list(schedule)
    single = isinstance(instances, AmplitudeInstance)
    batch = [instances] if single else list(instances)
    if backend == "ideal":
        probabilities = circ.ideal_probabilities(
            np.array([st.m for st in steps]), np.array([inst.phi for inst in batch])[:, None])
        return probabilities[0] if single else probabilities
    if backend == "statevector":
        ns = [inst.n for inst in batch]
        circ.check_capacity(ns)
        sizes = [[row for row, n in enumerate(ns) if n == size] for size in dict.fromkeys(ns)]
        groups = ((rows, circ.controlled_grover_blocks([batch[row] for row in rows]))
                  for rows in sizes)
        stage = circ.statevector_stage
    else:
        groups = [(slice(None), [inst.theta for inst in batch])]
        stage = circ.analytic_stage
    powers = {}
    for st in steps:
        powers.setdefault((st.t, st.l), set()).add(st.s)
    specs = qsp.synthesize_shifters(powers)
    requests = [(specs[key], ss) for key, ss in powers.items()]
    index = {}
    column = [index.setdefault((st.p, st.t, st.s, st.l), len(index)) for st in steps]
    probabilities = np.empty((len(batch), len(steps), 2))
    # an empty schedule has nothing to stack, and builds no oracle
    for rows, operand in groups if steps else ():
        blocks = dict(zip(powers, stage(requests, operand)))
        columns = circ.parity_probabilities(
            np.stack([blocks[t, l][s] for _, t, s, l in index]),
            np.array([p for p, _, _, _ in index]))
        probabilities[rows] = columns[column].swapaxes(0, 1)
    return probabilities[0] if single else probabilities


def draw_counts(schedule: Schedule, probabilities: np.ndarray, seed,
                trials: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sampling phase: draw every step's counts from the ``(K, 2)``
    ``probabilities`` of one instance (as returned by
    :func:`step_probabilities`).

    ``seed`` is one seed (an integer or a ``SeedSequence``) of one
    ``default_rng``, which draws the counts, ``nu_k`` shots per setting, in
    one ``binomial`` call: ``(K, 2)`` counts without ``trials``, and
    ``(n, K, 2)`` with ``trials=n``.  A batch is ``n`` consecutive
    ``(K, 2)`` draws of the same stream, so trial 0 equals the single run at
    ``seed`` and the first ``m`` trials equal an ``m``-trial batch.  Returns
    ``(counts, counts / nu)``, the counts and the frequencies that
    :func:`rpe.estimate_phase` reads.
    """
    if np.ndim(seed) != 0:
        raise DomainError(f"seed must be a single seed, got shape {np.shape(seed)}")
    if trials is not None:
        trials = checked_count("trials", trials)
    nu = np.array([[st.nu] for st in schedule])
    if not len(nu):
        raise DomainError("a run needs at least one step, got an empty schedule")
    # recovery reads row i as the multiplier 2^i: step k must be row k - 1
    ks = [st.k for st in schedule]
    if ks != list(range(1, len(ks) + 1)):
        raise DomainError(f"a run's steps must be numbered 1..{len(ks)} in order, got k = {ks}")
    if np.shape(probabilities) != (len(nu), 2):
        raise DomainError(f"probabilities must have shape ({len(nu)}, 2), "
                          f"got {np.shape(probabilities)}")
    shape = (len(nu), 2) if trials is None else (trials, len(nu), 2)
    counts = np.random.default_rng(seed).binomial(nu, np.broadcast_to(probabilities, shape))
    return counts, counts / nu


def sample_and_recover(schedule: Schedule, probabilities: np.ndarray, seed,
                       trials: int | None = None):
    """Sampling and recovery phase: :func:`draw_counts`, then the phase
    recovered once over the frequencies.  Returns ``(PhaseEstimate,
    counts)``; the estimate's fields are scalars for a single run and
    ``(n,)`` arrays for a batch of ``trials=n``.
    """
    counts, frequencies = draw_counts(schedule, probabilities, seed, trials)
    return rpe.estimate_phase(frequencies), counts


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
    return math.pi / (2.0 * (checked_count("query count", n_queries, 2) - 1))


def theorem_resources(eps: float, parallelism: int, beta: float = 0.05) -> tuple[int, int]:
    """Concrete (non-asymptotic) query and depth sums of the proof-mode
    schedule at target error ``eps`` in ``(0, 1)``: the ``general`` schedule
    of ``K = ceil(log2(1/eps)) + 6`` steps with the given parallelism and
    theoretical shot counts, at the calibrated lengths
    (``qsp.select_L_empirical``); the certified lengths, and their
    resources, come from ``build_schedule(..., certified=True)``.  Returns
    ``(N, max_k S_k L_k + ceil(log2 P))``."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"target error must lie in (0, 1), got {eps}")
    sched = build_schedule(strategy="general", k_max=math.ceil(math.log2(1.0 / eps)) + 6,
                           parallelism=parallelism, beta=beta, nu_variant="theoretical")
    depth = max(st.s * st.l for st in sched) + circ.ghz_depth(parallelism)
    return query_count(sched), depth
