"""Simulation of the parallel kick-back circuit and its parity measurements.

One circuit is: a GHZ state across ``P`` ancilla qubits, ``S`` sequential
applications of the phase shifter on every (ancilla, system) branch, then
per-ancilla X-basis readout classified by the parity of the number of 1s.

Two backends compute the even-parity probability:

* analytic -- on each Grover eigenphase ``e^{+-2i theta}`` the shifter is
  the 2x2 ancilla product ``qsp.rotation_product`` at ``pi/2 +- 2 theta``
  (:func:`eigenphase_blocks`, which do not depend on ``P``:
  ``driver.step_probabilities`` builds them once per ``(T, L)`` and raises
  them to each ``S``, sharing both across branch counts);
  :func:`parity_probabilities` contracts them for ``P`` branches, read
  elementwise from the four block entries and averaged over the two
  eigenphases, and the product over identical branches collapses to
  complex powers, so the cost is independent of ``P``; exact, and batched
  over instance angles.
* statevector -- the full ``(n+1)P``-qubit state built from the explicit
  oracle and contracted gate by gate with BLAS ``matmul``, used to
  cross-validate the analytic backend at small sizes, in three stages:
  :func:`controlled_grover_blocks` builds each instance's oracle and
  controlled-Grover block, grouped by register size;
  :func:`statevector_blocks` the shifter to the power ``S`` around each
  group in one ``interleaved_shifter`` call (shared by
  ``driver.step_probabilities`` as the eigenphase blocks are);
  :func:`statevector_parity_probabilities` then, per instance, runs the
  GHZ ladder on the ``P`` ancillas and grows the full state from it, last
  branch first, each branch through the two shifter columns its system
  register ``|0..0>`` reaches, and reads both settings from that one state
  (one instance's state at a time) through the parity expectation: the
  even X-parity probability is ``(1 + <X..X>)/2`` over the ancillas, and
  the PLUS_I rotation turns ancilla 0's ``X`` into ``Y``.  It shares no
  code with ``rotation_product``, so the two backends check each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core_model import (AmplitudeInstance, DomainError, build_explicit_oracle,
                         build_grover_unitary)
from .qsp import (PhaseShifterSpec, controlled_grover, interleaved_shifter,
                  rotation_product)

STATEVECTOR_MAX_QUBITS = 22


class CapacityError(RuntimeError):
    """Raised when a statevector request exceeds the qubit guard."""


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


def eigenphase_blocks(spec: PhaseShifterSpec, S: int, thetas) -> np.ndarray:
    """``(2, n, 2, 2)`` ancilla blocks of the ``S``-fold shifter on the two
    Grover eigenphases of every instance angle: one ``rotation_product``
    call at ``pi/2 + 2 theta`` then ``pi/2 - 2 theta``, and one
    ``matrix_power`` to ``S`` when ``S > 1``."""
    _check_count("repetition count", S)
    two_theta = 2.0 * np.asarray(thetas, dtype=float).reshape(-1)
    blocks = rotation_product(spec.angles.xi, np.concatenate(
        [np.pi / 2 + two_theta, np.pi / 2 - two_theta]))
    if S > 1:
        blocks = np.linalg.matrix_power(blocks, S)
    return blocks.reshape(2, -1, 2, 2)


def parity_probabilities(blocks: np.ndarray, P: int) -> np.ndarray:
    """``(n, 2)`` probabilities of ``P`` branches from the ``(2, n, 2, 2)``
    eigenphase blocks (already to the power S), whose column ``j`` is
    ancilla state ``phi_j``.

    With ``x_j = <phi_j|X|phi_j>`` and ``z = <phi_1|X|phi_0>`` averaged over
    the two eigenphases, which ``|0..0>`` weights equally, the product over
    identical branches collapses to ``p = 1/2 + (x_0^P + x_1^P)/4 + Re(z^P)/2``.
    The extra rotation of the PLUS_I setting turns branch 0's ``X`` into ``Y``.
    Every expectation is read elementwise from the block entries ``b_ij``,
    for any 2x2 block: ``x_0 + i y_0 = 2 conj(b00) b10`` (``b01``, ``b11``
    for ``j = 1``), ``z_x = conj(b01) b10 + conj(b11) b00`` and
    ``z_y = i (conj(b11) b00 - conj(b01) b10)``.
    """
    _check_count("branch count", P)
    b00, b01, b10, b11 = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
    # each sum runs over the two eigenphases: twice their average
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
    blocks = eigenphase_blocks(circuit.spec, circuit.S, [circuit.instance.theta])
    return float(parity_probabilities(blocks, circuit.P)
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
# Full statevector backend

def _apply_block(state: np.ndarray, gate: np.ndarray, first: int) -> np.ndarray:
    """Apply ``gate`` to the contiguous qubits starting at ``first``: one
    ``matmul`` with ``2^first`` batch entries maps the ``gate.shape[1]``
    amplitudes there to ``len(gate)``, so a rectangular gate grows the
    state."""
    t = state.reshape(2 ** first, gate.shape[1], -1)
    return np.matmul(gate, t).reshape(-1)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT from qubit ``control`` to a later qubit ``target``: the
    ``control = 1`` amplitudes swap their two ``target`` values."""
    t = state.copy()
    v = t.reshape(2 ** control, 2, 2 ** (target - control - 1), 2, -1)
    v[:, 1] = v[:, 1, :, ::-1]
    return t


def _ghz_state(P: int) -> np.ndarray:
    """The doubling ladder's GHZ state on a ``P``-qubit ancilla register."""
    state = np.zeros(2 ** P, dtype=complex)
    state[0] = 1.0
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    state = _apply_block(state, hadamard, 0)
    for layer in range(ghz_depth(P)):
        stride = 2 ** layer
        for i in range(min(stride, P - stride)):
            state = _apply_cnot(state, i, i + stride)
    return state


def _final_state(v: np.ndarray, P: int, n: int) -> np.ndarray:
    """The full ``(n+1)P``-qubit state after the GHZ ladder and the
    shifter ``v`` on each of ``P`` branches (qubit order branch by branch,
    ancilla first).

    Each branch's system register starts at ``|0..0>``, so only the two
    columns of ``v`` with ancilla 0 or 1 and system ``|0^n>`` meet a
    nonzero amplitude.  Starting from the ancilla register's GHZ state, the
    branches run last to first, each expanding its ancilla's axis into its
    ``n + 1`` qubits: branch ``p`` is one ``matmul`` with ``2^p`` batch
    entries, and branch 0 a single GEMM."""
    columns = v[:, ::2 ** n]
    state = _ghz_state(P)
    for p in reversed(range(P)):
        state = _apply_block(state, columns, p)
    return state


def _parity_expectations(state: np.ndarray, P: int, n: int) -> tuple[float, float]:
    """``<X..X>`` and ``<Y X..X>`` over the ancillas (``Y`` on ancilla 0).

    Flipping an ancilla axis applies ``X`` to it.  Ancilla 0 is the leading
    qubit, so with ``psi_b`` the half of the state where it reads ``b`` and
    ``X'`` the ``X`` on every other ancilla, ``h_b = <psi_b|X'|psi_(1-b)>``
    is the part of ``<psi|X..X|psi>`` over that half: ``<X..X> = Re(h_0 +
    h_1)`` and, as ``Y = -i|0><1| + i|1><0|``, ``<Y X..X> = Im(h_0) -
    Im(h_1)``.  Each ``h_b`` flips a copy of one half only, so no copy of
    the whole state is made."""
    halves = state.reshape((2, 2 ** n) * P)
    others = tuple(range(1, 2 * P - 2, 2))
    h0 = np.vdot(halves[0], np.flip(halves[1], axis=others))
    h1 = np.vdot(halves[1], np.flip(halves[0], axis=others))
    return (h0 + h1).real, h0.imag - h1.imag


def check_capacity(P: int, ns) -> None:
    """Raise :class:`CapacityError` at the first register size in ``ns``
    whose ``P`` branches of ``n + 1`` qubits exceed the statevector guard."""
    for n in ns:
        nq = P * (n + 1)
        if nq > STATEVECTOR_MAX_QUBITS:
            raise CapacityError(
                f"{nq} qubits exceed the statevector guard of {STATEVECTOR_MAX_QUBITS}")


def controlled_grover_blocks(instances, oracle_style: str = "canonical",
                             oracle_seed=None) -> dict:
    """The controlled-Grover block of every instance's explicit oracle,
    grouped by register size: ``{n: (rows, stack)}`` with ``rows`` the
    instances' positions and ``stack`` their ``(m, 2^(n+1), 2^(n+1))``
    blocks, in order."""
    groups = {}
    for row, inst in enumerate(instances):
        oracle = build_explicit_oracle(inst, style=oracle_style, seed=oracle_seed)
        groups.setdefault(inst.n, []).append(
            (row, controlled_grover(build_grover_unitary(oracle))))
    return {n: ([row for row, _ in group], np.stack([wq for _, wq in group]))
            for n, group in groups.items()}


def statevector_blocks(spec: PhaseShifterSpec, S: int, grover_blocks: dict) -> dict:
    """The interleaved shifter to the power ``S`` around each group of
    :func:`controlled_grover_blocks`: one ``interleaved_shifter`` call and
    one ``matrix_power`` per register size, rows kept."""
    _check_count("repetition count", S)
    return {n: (rows, np.linalg.matrix_power(interleaved_shifter(spec.angles.xi, stack), S))
            for n, (rows, stack) in grover_blocks.items()}


def statevector_parity_probabilities(blocks: dict, P: int) -> np.ndarray:
    """``(m, 2)`` probabilities, PLUS then PLUS_I, of ``P`` branches from
    the shifters of :func:`statevector_blocks`, one row per instance.

    Per instance: the GHZ ladder, the shifter on each of the ``P`` branches
    (:func:`_final_state`), then both settings from that one state.  The
    even X-parity probability is ``(1 + <X..X>)/2``; the PLUS_I setting's
    ``e^{i pi Z/4}`` on ancilla 0 turns that ancilla's ``X`` into ``Y``.
    Raises :class:`CapacityError` before any state is built."""
    _check_count("branch count", P)
    check_capacity(P, blocks)
    rows = np.empty((sum(len(r) for r, _ in blocks.values()), 2))
    for n, (indices, shifters) in blocks.items():
        for row, v in zip(indices, shifters):
            rows[row] = _parity_expectations(_final_state(v, P, n), P, n)
    return np.clip((1.0 + rows) / 2.0, 0.0, 1.0)


def statevector_even_parity_probabilities(spec: PhaseShifterSpec, P: int, S: int,
                                          instances, oracle_style: str = "canonical",
                                          oracle_seed=None) -> np.ndarray:
    """Even-parity probabilities from the full ``(n+1)P``-qubit state, one
    row per instance, columns PLUS and PLUS_I: the three statevector
    stages composed, after the guard.  Raises :class:`DomainError` for
    ``P < 1`` or ``S < 1`` and :class:`CapacityError` before any oracle is
    built."""
    _check_count("branch count", P)
    _check_count("repetition count", S)
    instances = list(instances)
    check_capacity(P, [inst.n for inst in instances])
    blocks = controlled_grover_blocks(instances, oracle_style, oracle_seed)
    return statevector_parity_probabilities(statevector_blocks(spec, S, blocks), P)


def statevector_even_parity_probability(circuit: ParallelCircuit,
                                        setting: MeasurementSetting,
                                        oracle_style: str = "canonical",
                                        oracle_seed=None) -> float:
    """One setting's column of :func:`statevector_even_parity_probabilities`."""
    return float(statevector_even_parity_probabilities(
        circuit.spec, circuit.P, circuit.S, [circuit.instance], oracle_style,
        oracle_seed)[0, list(MeasurementSetting).index(setting)])
