"""Robust phase estimation: multi-resolution recovery of the kicked-back phase.

Each step ``k`` measures the two parity settings of a circuit with signal
multiplier ``M_k = 2^(k-1)``; the observed frequencies give ``M_k phi``
modulo ``2 pi``, and the unwrapping selects, among the three candidates
adjacent to the previous estimate, the one consistent with it.  The
procedure tolerates a bounded bias ``beta`` in every measurement
probability, with a closed-form mean-squared-error bound.

The recovery reads one ``(..., K, 2)`` table of frequencies: step ``k`` at
index ``k - 1``, columns PLUS and PLUS_I, and any leading axes a batch of
runs of the same schedule.  Every raw step phase comes from one elementwise
:func:`step_phase` call, then :func:`unwrap_step` runs once per step over
the whole batch, so a run's estimate has the same bits whether it is
recovered alone or inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_model import DomainError

ROBUSTNESS_LIMIT = math.sqrt(6.0) / 8.0


@dataclass(frozen=True)
class PhaseEstimate:
    """Final phase estimate and the amplitude it implies (``(trials,)``
    arrays in every field for a batch of runs)."""

    phi_hat: float | np.ndarray     # in [-pi, pi)
    trajectory: tuple               # per-step estimates in [0, 2*pi)
    a_hat: float | np.ndarray       # clamp((2 - phi_hat)/4, 0, 1)


def step_phase(f_plus, f_i):
    """``atan2(2 f_i - 1, 2 f_plus - 1)`` mapped into ``[0, 2 pi)``,
    elementwise over the even-parity frequencies of the PLUS and PLUS_I
    settings (floats or arrays of one shape).

    The measure-zero tie with both centered frequencies zero returns 0:
    ``2 f - 1`` is never ``-0``, and ``arctan2(+0, +0) = +0``.
    """
    y = 2.0 * np.asarray(f_i) - 1.0
    x = 2.0 * np.asarray(f_plus) - 1.0
    val = np.arctan2(y, x)
    return val + 2.0 * math.pi * (val < 0.0)


def unwrap_step(k: int, phi_step, prev=None):
    """Select the step-``k`` estimate consistent with the previous one.

    ``phi_step`` is the raw ``[0, 2 pi)`` output of :func:`step_phase` (an
    estimate of ``M_k phi`` mod ``2 pi``).  For ``k = 1`` it is returned as
    is; otherwise the candidate ``phi_step / M_k + m pi / 2^(k-2)`` with
    ``m`` in ``{eta - 1, eta, eta + 1}`` is chosen by the two threshold
    tests against ``pi / 2^(k-1)``, then wrapped into ``[0, 2 pi)``.
    """
    if k < 1:
        raise DomainError(f"step index must be >= 1, got {k}")
    if (prev is None) != (k == 1):
        raise DomainError("previous estimate must be given exactly when k > 1")
    if k == 1:
        return phi_step
    m_k = 2 ** (k - 1)
    base = phi_step / m_k
    step = math.pi / 2 ** (k - 2)
    half = math.pi / 2 ** (k - 1)
    eta = np.floor(prev / step)
    lower = base + (eta - 1.0) * step
    upper = base + (eta + 1.0) * step
    cand = np.where(prev - lower <= half, lower,
                    np.where(upper - prev < half, upper, base + eta * step))
    # wrapping shifts eta and the candidates of later steps by exact
    # multiples of their grid, leaving the final estimate unchanged mod 2*pi
    return cand % (2.0 * math.pi)


def finalize(trajectory: Sequence) -> PhaseEstimate:
    """Map the last per-step estimate to ``[-pi, pi)`` and invert the
    amplitude encoding ``phi = 2 (1 - 2 a)`` with clamping."""
    last = trajectory[-1]
    phi_hat = last - 2.0 * math.pi * np.floor((last + math.pi) / (2.0 * math.pi))
    a_hat = np.minimum(np.maximum((2.0 - phi_hat) / 4.0, 0.0), 1.0)
    return PhaseEstimate(phi_hat=phi_hat, trajectory=tuple(trajectory), a_hat=a_hat)


def estimate_phase(freqs) -> PhaseEstimate:
    """Recover the phase from ``(..., K, 2)`` frequencies: step ``k`` at
    index ``k - 1``, columns PLUS and PLUS_I.  Every raw step phase comes
    from one :func:`step_phase` call; the steps are then unwrapped in order
    and the last one is finalized, with the leading axes carried through."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim < 2 or freqs.shape[-2] == 0:
        raise DomainError(f"recovery needs at least one step, got shape {freqs.shape}")
    phases = step_phase(freqs[..., 0], freqs[..., 1])
    trajectory = []
    prev = None
    for k, phase in enumerate(np.moveaxis(phases, -1, 0), start=1):
        prev = unwrap_step(k, phase, prev)
        trajectory.append(prev)
    return finalize(trajectory)


def mse_bound(K: int, nu: Sequence[int], beta: float) -> float:
    """Mean-squared-error bound
    ``(2 pi/3)^2 (4^-K + sum_k 4^(4-k) exp(-2 nu_k (sqrt(6)/8 - beta)^2))``.

    Requires ``beta < sqrt(6)/8`` (the robustness condition) and one shot
    count per step.
    """
    if not 0.0 <= beta < ROBUSTNESS_LIMIT:
        raise DomainError(f"bias must lie in [0, sqrt(6)/8), got {beta}")
    if len(nu) != K:
        raise DomainError(f"need {K} shot counts, got {len(nu)}")
    gap = (ROBUSTNESS_LIMIT - beta) ** 2
    total = 4.0 ** (-K)
    for k in range(1, K + 1):
        total += math.exp(-2.0 * nu[k - 1] * gap) / 4.0 ** (k - 4)
    return (2.0 * math.pi / 3.0) ** 2 * total


def schedule_nu(K: int, k: int, variant: str = "theoretical", beta: float = 0.05,
                nu_final: int = 7) -> int:
    """Shots per setting at step ``k``.

    ``theoretical``: ``1 + ceil(ln(6) (K - k) / (2 (sqrt(6)/8 - beta)^2))``.
    ``optimized``: ``round(4.0835 (K - k) + nu_final)`` (half to even),
    which needs ``nu_final >= 1``: the final step takes the fewest shots.
    """
    if not 1 <= k <= K:
        raise DomainError(f"step index {k} outside 1..{K}")
    if variant == "theoretical":
        if not 0.0 <= beta < ROBUSTNESS_LIMIT:
            raise DomainError(f"bias must lie in [0, sqrt(6)/8), got {beta}")
        return 1 + math.ceil(math.log(6.0) * (K - k) / (2.0 * (ROBUSTNESS_LIMIT - beta) ** 2))
    if variant == "optimized":
        if not nu_final >= 1:
            raise DomainError(f"final shot count must be >= 1, got {nu_final}")
        return round(4.0835 * (K - k) + nu_final)
    raise DomainError(f"unknown shot-schedule variant {variant!r}")
