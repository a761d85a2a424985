"""Simulation of the parallel kick-back circuit and its parity measurements.

One circuit is: a GHZ state across ``P`` ancilla qubits, ``S`` sequential
applications of the phase shifter on every (ancilla, system) branch, then
per-ancilla X-basis readout classified by the parity of the number of 1s.

Two backends compute the even-parity probability:

* analytic -- on each Grover eigenphase ``e^{+-2i theta}`` the shifter is
  the 2x2 ancilla product ``qsp.rotation_product`` at ``pi/2 +- 2 theta``;
  the per-branch contractions average over the two, and the product over
  identical branches collapses to complex powers, so the cost is
  independent of ``P``; exact, and batched over instance angles.
* statevector -- the full ``(n+1)P``-qubit state built from the explicit
  oracle and contracted gate by gate with BLAS ``matmul``, used to
  cross-validate the analytic backend at small sizes.  Both settings come
  from one state per instance through the parity expectation: the even
  X-parity probability is ``(1 + <X..X>)/2`` over the ancillas, and the
  PLUS_I rotation turns ancilla 0's ``X`` into ``Y``.  It shares no code
  with ``rotation_product``, so the two backends check each other.
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

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


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


def _parity_probabilities(blocks: np.ndarray, P: int) -> np.ndarray:
    """``(n, 2)`` probabilities from the ``(2, n, 2, 2)`` eigenphase blocks
    (already to the power S), whose column ``j`` is ancilla state ``phi_j``.

    With ``x_j = <phi_j|X|phi_j>`` and ``z = <phi_1|X|phi_0>`` averaged over
    the two eigenphases, which ``|0..0>`` weights equally, the product over
    identical branches collapses to ``p = 1/2 + (x_0^P + x_1^P)/4 + Re(z^P)/2``.
    The extra rotation of the PLUS_I setting turns branch 0's ``X`` into ``Y``.
    """
    adjoint = blocks.conj().swapaxes(-1, -2)
    mx = np.mean(adjoint @ _PAULI_X @ blocks, axis=0)    # <phi_j|X|phi_i> at [j, i]
    my = np.mean(adjoint @ _PAULI_Y @ blocks, axis=0)
    x0, x1, zx = mx[:, 0, 0].real, mx[:, 1, 1].real, mx[:, 1, 0]
    y0, y1, zy = my[:, 0, 0].real, my[:, 1, 1].real, my[:, 1, 0]
    plus = 0.5 + 0.25 * (x0 ** P + x1 ** P) + 0.5 * (zx ** P).real
    plus_i = (0.5 + 0.25 * (y0 * x0 ** (P - 1) + y1 * x1 ** (P - 1))
              + 0.5 * (zy * zx ** (P - 1)).real)
    return np.clip(np.stack([plus, plus_i], axis=1), 0.0, 1.0)


def even_parity_probabilities(spec: PhaseShifterSpec, P: int, S: int,
                              thetas) -> np.ndarray:
    """Exact even-parity probabilities of the synthesized circuit, one row
    per instance angle, columns PLUS and PLUS_I: one ``rotation_product``
    call for both eigenphases of every angle, one ``matrix_power`` to ``S``.
    """
    two_theta = 2.0 * np.asarray(thetas, dtype=float).reshape(-1)
    blocks = rotation_product(spec.angles.xi, np.concatenate(
        [np.pi / 2 + two_theta, np.pi / 2 - two_theta]))
    blocks = np.linalg.matrix_power(blocks, S).reshape(2, -1, 2, 2)
    return _parity_probabilities(blocks, P)


def setting_probability(circuit: ParallelCircuit,
                        setting: MeasurementSetting) -> float:
    """Exact even-parity probability of the synthesized circuit."""
    return float(even_parity_probabilities(circuit.spec, circuit.P, circuit.S,
                                           [circuit.instance.theta])
                 [0, list(MeasurementSetting).index(setting)])


def ideal_setting_probability(multiplier: float, phi: float,
                              setting: MeasurementSetting) -> float:
    """Closed form with the exact shifter substituted:
    ``(1 + cos(M phi))/2`` for PLUS, ``(1 + sin(M phi))/2`` for PLUS_I."""
    if setting is MeasurementSetting.PLUS:
        return (1.0 + math.cos(multiplier * phi)) / 2.0
    return (1.0 + math.sin(multiplier * phi)) / 2.0


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
    if P < 1:
        raise DomainError(f"branch count must be >= 1, got {P}")
    return math.ceil(math.log2(P))


# ---------------------------------------------------------------------------
# Full statevector backend

def _apply_block(state: np.ndarray, gate: np.ndarray, first: int) -> np.ndarray:
    """Apply ``gate`` to the contiguous qubits starting at ``first``."""
    t = state.reshape(2 ** first, len(gate), -1)
    return np.matmul(gate, t).reshape(-1)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT from qubit ``control`` to a later qubit ``target``: the
    ``control = 1`` amplitudes swap their two ``target`` values."""
    t = state.copy()
    v = t.reshape(2 ** control, 2, 2 ** (target - control - 1), 2, -1)
    v[:, 1] = v[:, 1, :, ::-1]
    return t


def _ghz_state(P: int, n: int) -> np.ndarray:
    """The doubling ladder's GHZ state on the ancillas of ``P`` branches of
    ``n + 1`` qubits each (qubit order branch by branch, ancilla first)."""
    anc = [p * (n + 1) for p in range(P)]
    state = np.zeros(2 ** (P * (n + 1)), dtype=complex)
    state[0] = 1.0
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    state = _apply_block(state, hadamard, anc[0])
    for layer in range(ghz_depth(P)):
        stride = 2 ** layer
        for i in range(min(stride, P - stride)):
            state = _apply_cnot(state, anc[i], anc[i + stride])
    return state


def _parity_expectations(state: np.ndarray, P: int, n: int) -> tuple[float, float]:
    """``<X..X>`` and ``<Y X..X>`` over the ancillas (``Y`` on ancilla 0).

    Flipping every ancilla axis applies ``X`` to each.  Ancilla 0 is the
    leading qubit, so with ``h_b`` the part of ``<psi|X..X|psi>`` over the
    half of the state where ancilla 0 reads ``b``, ``<X..X> = Re(h_0 + h_1)``
    and, as ``Y = -i|0><1| + i|1><0|``, ``<Y X..X> = Im(h_0) - Im(h_1)``."""
    flipped = np.flip(state.reshape((2, 2 ** n) * P), axis=tuple(range(0, 2 * P, 2)))
    flipped = flipped.reshape(2, -1)
    halves = state.reshape(2, -1)
    h0, h1 = np.vdot(halves[0], flipped[0]), np.vdot(halves[1], flipped[1])
    return (h0 + h1).real, h0.imag - h1.imag


def statevector_even_parity_probabilities(spec: PhaseShifterSpec, P: int, S: int,
                                          instances, oracle_style: str = "canonical",
                                          oracle_seed=None) -> np.ndarray:
    """Even-parity probabilities from the full ``(n+1)P``-qubit state, one
    row per instance, columns PLUS and PLUS_I.

    Per instance: the explicit oracle's controlled-Grover block, the
    interleaved shifter to the power ``S`` on each of the ``P`` branches
    of the GHZ state, then both settings from that one state.  The even
    X-parity probability is ``(1 + <X..X>)/2``; the PLUS_I setting's
    ``e^{i pi Z/4}`` on ancilla 0 turns that ancilla's ``X`` into ``Y``.
    """
    rows = []
    for inst in instances:
        n = inst.n
        nq = P * (n + 1)
        if nq > STATEVECTOR_MAX_QUBITS:
            raise CapacityError(
                f"{nq} qubits exceed the statevector guard of {STATEVECTOR_MAX_QUBITS}")
        oracle = build_explicit_oracle(inst, style=oracle_style, seed=oracle_seed)
        wq = controlled_grover(build_grover_unitary(oracle))
        v = np.linalg.matrix_power(interleaved_shifter(spec.angles.xi, wq), S)
        state = _ghz_state(P, n)
        for p in range(P):
            state = _apply_block(state, v, p * (n + 1))
        rows.append(_parity_expectations(state, P, n))
    return np.clip((1.0 + np.array(rows).reshape(-1, 2)) / 2.0, 0.0, 1.0)


def statevector_even_parity_probability(circuit: ParallelCircuit,
                                        setting: MeasurementSetting,
                                        oracle_style: str = "canonical",
                                        oracle_seed=None) -> float:
    """One setting's column of :func:`statevector_even_parity_probabilities`."""
    return float(statevector_even_parity_probabilities(
        circuit.spec, circuit.P, circuit.S, [circuit.instance], oracle_style,
        oracle_seed)[0, list(MeasurementSetting).index(setting)])
