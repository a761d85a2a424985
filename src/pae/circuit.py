"""Simulation of the parallel kick-back circuit and its parity measurements.

One circuit is: a GHZ state across ``P`` ancilla qubits, ``S`` sequential
applications of the phase shifter on every (ancilla, system) branch, then
per-ancilla X-basis readout classified by the parity of the number of 1s.

Two backends compute the even-parity probability, and both contract the
same way: :func:`parity_probabilities` reads each branch's final ancilla
state from ``(c, n, 2, 2)`` blocks, one ancilla block per component of the
system register, and the product over identical branches collapses to
complex powers, so the cost is independent of ``P``.  Each stage here
takes and returns one plain array and knows nothing of ``S``: the caller
raises the shifter blocks to ``S`` with one ``np.linalg.matrix_power``
between building and contracting them.  ``driver.step_probabilities``
composes the stages for a run, sharing blocks across steps; the
per-setting views :func:`setting_probability` and
:func:`statevector_even_parity_probability` compose them for one circuit.
The backends differ in where the blocks come from:

* analytic -- on each Grover eigenphase ``e^{+-2i theta}`` the shifter is
  the 2x2 ancilla product ``qsp.rotation_product`` at ``pi/2 +- 2 theta``
  (:func:`eigenphase_blocks`, which do not depend on ``P``); the two
  eigencomponents of ``|0..0>`` are the two components; exact, and batched
  over instance angles.
* statevector -- the shifter as a dense matrix built from the explicit
  oracle, used to cross-validate the analytic backend:
  :func:`controlled_grover_blocks` stacks the controlled-Grover blocks of
  instances of one register size, ``qsp.interleaved_shifter`` multiplies
  the shifter around the whole stack, and
  :func:`statevector_parity_probabilities` takes the two shifter columns
  that a system register at ``|0..0>`` reaches and hands their ``2^n``
  system components to :func:`parity_probabilities`.  The full
  ``(n+1)P``-qubit state is never built; :func:`check_capacity` bounds the
  dense stacks instead.  The explicit oracle and ``interleaved_shifter``
  share no code with the eigenphase reduction and ``rotation_product``,
  so the two backends check each other.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core_model import (AmplitudeInstance, DomainError, build_explicit_oracle,
                         build_grover_unitary)
from .qsp import (PhaseShifterSpec, controlled_grover, interleaved_shifter,
                  rotation_product)

# Bytes the statevector backend may allocate in the dense stacks of one
# register size (see :func:`check_capacity`).
STATEVECTOR_MAX_BYTES = 2 ** 30


class CapacityError(RuntimeError):
    """Raised when a statevector request exceeds the memory guard."""


class MeasurementSetting(enum.Enum):
    """X-parity readout, optionally preceded by e^{i pi Z/4} on one ancilla."""

    PLUS = "plus"
    PLUS_I = "plus_i"


@dataclass(frozen=True)
class ParallelCircuit:
    """``P`` parallel branches of an ``S``-fold sequential shifter."""

    P: int
    spec: PhaseShifterSpec
    S: int
    instance: AmplitudeInstance


def _check_count(what: str, value: int) -> None:
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")


def eigenphase_blocks(spec: PhaseShifterSpec, thetas) -> np.ndarray:
    """``(2, n, 2, 2)`` ancilla blocks of the shifter on the two Grover
    eigenphases of every instance angle: one ``rotation_product`` call at
    ``pi/2 + 2 theta`` then ``pi/2 - 2 theta``."""
    two_theta = 2.0 * np.asarray(thetas, dtype=float).reshape(-1)
    return rotation_product(spec.angles.xi, np.concatenate(
        [np.pi / 2 + two_theta, np.pi / 2 - two_theta])).reshape(2, -1, 2, 2)


def parity_probabilities(blocks: np.ndarray, P: int) -> np.ndarray:
    """``(n, 2)`` probabilities of ``P`` branches from ``(c, n, 2, 2)``
    blocks (already to the power S): axis 0 runs over the components of
    the system register, each block ``sqrt(2)`` times that component's
    share of the branch state, and column ``j`` of a block is its part of
    the ancilla state ``phi_j``.  For the analytic backend the components
    are the two Grover eigenphases, which ``|0..0>`` weights ``1/sqrt(2)``
    each (the ``(2, n, 2, 2)`` :func:`eigenphase_blocks`); for the
    statevector backend the ``2^n`` system basis states.

    With ``x_j = <phi_j|X|phi_j>`` and ``z = <phi_1|X|phi_0>`` over all
    components, the product over identical branches collapses to
    ``p = 1/2 + (x_0^P + x_1^P)/4 + Re(z^P)/2``.
    The extra rotation of the PLUS_I setting turns branch 0's ``X`` into ``Y``.
    Every expectation is read elementwise from the block entries ``b_ij``,
    for any 2x2 block: ``x_0 + i y_0 = 2 conj(b00) b10`` (``b01``, ``b11``
    for ``j = 1``), ``z_x = conj(b01) b10 + conj(b11) b00`` and
    ``z_y = i (conj(b11) b00 - conj(b01) b10)``.
    """
    _check_count("branch count", P)
    b00, b01, b10, b11 = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
    # with blocks sqrt(2) times each share, each sum is twice its expectation
    w0 = np.sum(b00.conj() * b10, axis=0)
    w1 = np.sum(b01.conj() * b11, axis=0)
    u = 0.5 * np.sum(b01.conj() * b10, axis=0)
    v = 0.5 * np.sum(b11.conj() * b00, axis=0)
    x0, y0, x1, y1 = w0.real, w0.imag, w1.real, w1.imag
    zx, zy = u + v, 1j * (v - u)
    plus = 0.5 + 0.25 * (x0 ** P + x1 ** P) + 0.5 * (zx ** P).real
    plus_i = (0.5 + 0.25 * (y0 * x0 ** (P - 1) + y1 * x1 ** (P - 1))
              + 0.5 * (zy * zx ** (P - 1)).real)
    return np.clip(np.stack([plus, plus_i], axis=1), 0.0, 1.0)


def setting_probability(circuit: ParallelCircuit,
                        setting: MeasurementSetting) -> float:
    """Exact even-parity probability of the synthesized circuit."""
    _check_count("repetition count", circuit.S)
    blocks = eigenphase_blocks(circuit.spec, [circuit.instance.theta])
    return float(parity_probabilities(np.linalg.matrix_power(blocks, circuit.S), circuit.P)
                 [0, list(MeasurementSetting).index(setting)])


def ideal_probabilities(multiplier, phi) -> np.ndarray:
    """Closed form with the exact shifter substituted: ``(..., 2)``
    probabilities, PLUS then PLUS_I, ``(1 + cos(M phi))/2`` and
    ``(1 + sin(M phi))/2``, elementwise over ``M`` and ``phi`` broadcast
    against each other (``2 ** np.arange(K)`` and ``phis[:, None]`` give a
    run's ``(n, K, 2)`` table)."""
    angle = np.multiply(multiplier, phi)
    return np.stack([(1.0 + np.cos(angle)) / 2.0, (1.0 + np.sin(angle)) / 2.0],
                    axis=-1)


def sample_even_parity(probability, shots: int, seed):
    """Count of even-parity outcomes in ``shots`` shots: one binomial draw
    per probability.

    ``probability`` may be a float, which gives an int, or an array, which
    gives an integer array of the same shape drawn in C order.  A
    probability outside ``[0, 1]``, or NaN, raises ``ValueError``.  ``seed``
    may be anything ``numpy.random.default_rng`` accepts, including an
    existing generator.
    """
    counts = np.random.default_rng(seed).binomial(shots, probability)
    return int(counts) if np.ndim(counts) == 0 else counts


def ghz_depth(P: int) -> int:
    """Entangling layers of the doubling ladder preparing the GHZ state."""
    _check_count("branch count", P)
    return math.ceil(math.log2(P))


# ---------------------------------------------------------------------------
# Statevector backend

def check_capacity(L: int, ns) -> None:
    """Raise :class:`CapacityError` at the first register size in ``ns``
    whose dense stacks exceed :data:`STATEVECTOR_MAX_BYTES`: the ``2L``
    ancilla x-rotations that ``interleaved_shifter`` lifts at once and one
    controlled-Grover block per amplitude of that size, each
    ``(2^(n+1))^2`` complex."""
    for n, m in Counter(ns).items():
        nbytes = 16 * 4 ** (n + 1) * (2 * L + m)
        if nbytes > STATEVECTOR_MAX_BYTES:
            raise CapacityError(
                f"statevector blocks at n = {n}, L = {L} need "
                f"{nbytes / 2 ** 30:.3g} GiB, over the "
                f"{STATEVECTOR_MAX_BYTES / 2 ** 30:g} GiB guard")


def controlled_grover_blocks(instances, oracle_style: str = "canonical",
                             oracle_seed=None) -> np.ndarray:
    """The ``(m, 2^(n+1), 2^(n+1))`` stack of the controlled-Grover blocks
    of ``m`` instances' explicit oracles, in order.  The instances must
    share one register size ``n``; mixed sizes raise :class:`DomainError`
    before any oracle is built, and so does an empty batch."""
    instances = list(instances)
    sizes = sorted({inst.n for inst in instances})
    if not sizes:
        raise DomainError("empty batch: controlled-Grover blocks need at least one instance")
    if len(sizes) > 1:
        raise DomainError(f"controlled-Grover blocks need one register size, got n = {sizes}")
    return np.stack([controlled_grover(build_grover_unitary(
        build_explicit_oracle(inst, style=oracle_style, seed=oracle_seed)))
        for inst in instances])


def statevector_parity_probabilities(shifters: np.ndarray, P: int) -> np.ndarray:
    """``(m, 2)`` probabilities, PLUS then PLUS_I, of ``P`` branches from
    the ``(m, 2^(n+1), 2^(n+1))`` shifters (already to the power S) of
    ``m`` instances of one register size, one row per instance.

    Each branch's system register starts at ``|0..0>``, so a branch's final
    state is fixed by the two shifter columns with ancilla 0 or 1 and
    system ``|0^n>``.  Split by the system basis state they reach, those
    columns are ``2^n`` ancilla blocks; scaled by ``sqrt(2)``, as
    :func:`parity_probabilities` expects, they are contracted there for
    ``P`` branches."""
    m, dim = shifters.shape[:2]
    columns = shifters[:, :, ::dim // 2].reshape(m, 2, dim // 2, 2)
    return parity_probabilities(np.sqrt(2.0) * columns.transpose(2, 0, 1, 3), P)


def statevector_even_parity_probability(circuit: ParallelCircuit,
                                        setting: MeasurementSetting) -> float:
    """Even-parity probability of the circuit around its instance's explicit
    oracle: the statevector stages composed, after the guard.  Raises
    :class:`DomainError` for ``P < 1`` or ``S < 1`` and
    :class:`CapacityError` before any oracle is built."""
    _check_count("branch count", circuit.P)
    _check_count("repetition count", circuit.S)
    check_capacity(circuit.spec.L, [circuit.instance.n])
    shifter = interleaved_shifter(circuit.spec.angles.xi,
                                  controlled_grover_blocks([circuit.instance]))
    return float(statevector_parity_probabilities(
        np.linalg.matrix_power(shifter, circuit.S), circuit.P)
        [0, list(MeasurementSetting).index(setting)])
