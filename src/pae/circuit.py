"""Simulation of the parallel kick-back circuit and its parity measurements.

One circuit is: a GHZ state across ``P`` ancilla qubits, ``S`` sequential
applications of the phase shifter on every (ancilla, system) branch, then
per-ancilla X-basis readout classified by the parity of the number of 1s.

Two backends compute the even-parity probability, and both contract the
same way: :func:`parity_probabilities` reads each branch's final ancilla
state from ``(c, n, 2, 2)`` blocks, one ancilla block per component of the
system register, and the product over identical branches collapses to
complex powers, so the cost is independent of ``P``; one call contracts a
stack of steps, each with its own ``P``.  Each backend has one
stage with one contract, ``stage(spec, operand, powers) -> {s: blocks}``:
it raises the shifter to every requested power ``s`` and returns the
blocks of each in the layout :func:`parity_probabilities` reads.
``driver.step_probabilities`` composes the stages for a run, sharing one
stage call across steps; the per-setting views :func:`setting_probability`
and :func:`statevector_even_parity_probability` compose them for one
circuit.  The backends differ in where the blocks come from:

* analytic -- on each Grover eigenphase ``e^{+-2i theta}`` the shifter is
  a 2x2 SU(2) ancilla matrix at ``pi/2 +- 2 theta``; the two
  eigencomponents of ``|0..0>`` are the two components.
  :func:`eigenphase_blocks` evaluates it from the row that certified the
  angles (``AngleSequence.row``), one table of powers and one product for
  all instance angles, and raises it to each ``s`` in closed form; exact,
  and batched over instance angles.  ``qsp.rotation_product``, which
  multiplies the angles out layer by layer, stays the independent check of
  this stage (``pae verify``).
* statevector -- the shifter around the explicit oracle, used to
  cross-validate the analytic backend: :func:`controlled_grover_blocks`
  stacks the controlled-Grover blocks of instances of one register size,
  and :func:`shifter_columns` applies the shifter's factors to the only
  two columns a branch reads, those of a system register at ``|0..0>``,
  up to the largest ``s`` in one pass, without multiplying the shifter
  out; split by the system basis state they reach, the columns are the
  blocks of ``2^n`` components.  The full ``(n+1)P``-qubit state is never
  built; :func:`check_capacity` bounds the blocks instead.  The explicit
  oracle and the x-rotations of :func:`shifter_columns` share no code with
  the eigenphase reduction and the certified row, so the two backends
  check each other.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core_model import (AmplitudeInstance, DomainError, build_explicit_oracle,
                         build_grover_unitary)
from .qsp import PhaseShifterSpec, controlled_grover

# Bytes the statevector backend may hold at once in the dense blocks of one
# register size (see :func:`check_capacity`).
STATEVECTOR_MAX_BYTES = 2 ** 30
# One controlled-Grover build's temporaries, in blocks of its own size: the
# padded block, its phased copy and the 2^n-sized oracle and Grover products
# peaked at 2.3 to 2.8 blocks over the finished stack (tracemalloc, n = 6 to
# 9, canonical and random oracles).
_BUILD_BLOCKS = 3


# The analytic stage's table of powers holds at most this many bytes at
# once: it is built over chunks of instance angles, so its memory does not
# grow with the amplitude grid (2^24 bytes is 255 angles at L = 5586).
_TABLE_BYTES = 2 ** 24
# An instance's two Grover eigenphases sit at pi/2 + 2 theta and pi/2 - 2 theta.
_TWICE = np.array([[2.0], [-2.0]])


class CapacityError(RuntimeError):
    """Raised when a statevector request exceeds the memory guard."""


class MeasurementSetting(enum.Enum):
    """X-parity readout, optionally preceded by e^{i pi Z/4} on one ancilla."""

    PLUS = "plus"
    PLUS_I = "plus_i"


@dataclass(frozen=True)
class ParallelCircuit:
    """``P`` parallel branches of an ``S``-fold sequential shifter, ``P, S >= 1``."""

    P: int
    spec: PhaseShifterSpec
    S: int
    instance: AmplitudeInstance

    def __post_init__(self):
        _check_count("branch count", self.P)
        _check_count("repetition count", self.S)


def _check_count(what: str, value: int) -> None:
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")


def _repetitions(powers) -> list[int]:
    """The distinct requested powers, ascending; a power below 1, or none,
    raises :class:`DomainError`."""
    powers = sorted(set(powers))
    _check_count("repetition count", powers[0] if powers else 0)
    return powers


def eigenphase_blocks(spec: PhaseShifterSpec, thetas, powers) -> dict[int, np.ndarray]:
    """The analytic stage: ``{s: blocks}`` for every requested power ``s``,
    each the ``(2, n, 2, 2)`` ancilla blocks of the shifter raised to ``s``
    on the two Grover eigenphases of every instance angle.

    The blocks come from the row that certified the angles
    (``AngleSequence.row``): with ``(x, eta)`` on powers ``-h..h`` of ``v =
    e^{i phi}``, ``h = m/2``, the shifter at ``phi = pi/2 +- 2 theta`` is the
    SU(2) matrix ``U`` with first row ``u00 = x(v)``, ``u01 = i eta(v)``.
    The powers ``v^k``, ``k = 0..h``, are one table, a running product per
    angle, and the real coefficients fold onto its real and imaginary
    parts, ``x(v) = sum_k (x_k + x_-k) cos(k phi) + i (x_k - x_-k) sin(k
    phi)``: one matrix product gives ``x(v)`` and ``eta(v)`` at every angle.
    The table is built over chunks of angles, at most :data:`_TABLE_BYTES`
    each, so its memory is bounded whatever the number of amplitudes.
    Each power is then the axis-angle form ``U^s = cos(s a) I + (sin(s a) /
    sin a) (U - cos(a) I)``, with ``cos a = Re u00`` and ``sin a = |(Im u00,
    u01)|``, the norm of ``U - cos(a) I``: where ``sin a = 0`` that matrix
    and its term vanish.  Unlike the three-term Chebyshev recurrence, which
    drifts from ``matrix_power`` as ``s`` grows, the form stays at its
    rounding level."""
    powers = _repetitions(powers)
    row = spec.angles.row
    if row is None:
        raise DomainError("the shifter's angles carry no certified row: "
                          "synthesize or load them through qsp")
    phi = (np.pi / 2 + _TWICE * np.asarray(thetas, dtype=float).reshape(-1)).ravel()
    h = len(row) // 2
    # the row folded onto (cos, sin)(k phi), k = 0..h: columns Re x(v),
    # Re eta(v), Im x(v), Im eta(v)
    fold = np.zeros((h + 1, 2, 4))
    np.add(row[h:], row[h::-1], out=fold[:, 0, :2])
    fold[0, 0, :2] = row[h]
    np.subtract(row[h:], row[h::-1], out=fold[:, 1, 2:])
    fold = fold.reshape(-1, 4)
    values = np.empty((len(phi), 4))
    chunk = max(1, _TABLE_BYTES // (16 * (h + 1)))
    for start in range(0, len(phi), chunk):
        part = phi[start:start + chunk]
        table = np.empty((len(part), h + 1), dtype=complex)
        table[:, 0] = 1.0
        table[:, 1:] = np.exp(1j * part)[:, None]
        np.cumprod(table, axis=1, out=table)
        np.matmul(table.view(float), fold, out=values[start:start + chunk])
    x_re, eta_re, x_im, eta_im = values.T
    u01 = 1j * (eta_re + 1j * eta_im)
    # U - cos(a) I, from U's first row u00 = cos(a) + i x_im and u01
    axis = np.empty((len(phi), 2, 2), dtype=complex)
    axis[:, 0, 0] = 1j * x_im
    axis[:, 0, 1] = u01
    axis[:, 1, 0] = -u01.conj()
    axis[:, 1, 1] = -axis[:, 0, 0]
    sin_a = np.hypot(x_im, np.hypot(eta_re, eta_im))
    sa = np.multiply.outer(powers, np.arctan2(sin_a, x_re))
    ratio = np.sin(sa)
    np.divide(ratio, sin_a, out=ratio, where=sin_a > 0)
    blocks = ratio[..., None, None] * axis + np.cos(sa)[..., None, None] * np.eye(2)
    return dict(zip(powers, blocks.reshape(len(powers), 2, len(phi) // 2, 2, 2)))


def parity_probabilities(blocks: np.ndarray, P) -> np.ndarray:
    """``(g, n, 2)`` probabilities of a stack of ``g`` steps, step ``i``
    with ``P[i]`` branches, from ``(g, c, n, 2, 2)`` blocks already raised
    to each step's ``S``, each a ``(c, n, 2, 2)`` value of a stage's ``{s:
    blocks}``; a single step is the stack of one, ``(blocks[None], [P])``,
    and its row has the same bits alone or in any stack.  ``P`` must hold
    one count per step, else :class:`DomainError`.  Per step, axis ``c`` runs
    over the components of the system register, each block ``sqrt(2)``
    times that component's share of the branch state, and column ``j`` of a
    block is its part of the ancilla state ``phi_j``.  For the analytic
    backend the components are the two Grover eigenphases, which ``|0..0>``
    weights ``1/sqrt(2)`` each (the ``(2, n, 2, 2)``
    :func:`eigenphase_blocks`); for the statevector backend the ``2^n``
    system basis states (the ``(2^n, m, 2, 2)`` :func:`shifter_columns`).

    With ``x_j = <phi_j|X|phi_j>`` and ``z = <phi_1|X|phi_0>`` over all
    components, the product over identical branches collapses to
    ``p = 1/2 + (x_0^P + x_1^P)/4 + Re(z^P)/2``.
    The extra rotation of the PLUS_I setting turns branch 0's ``X`` into ``Y``.
    Every expectation is read elementwise from the block entries ``b_ij``,
    for any 2x2 block: ``x_0 + i y_0 = 2 conj(b00) b10`` (``b01``, ``b11``
    for ``j = 1``), ``z_x = conj(b01) b10 + conj(b11) b00`` and
    ``z_y = i (conj(b11) b00 - conj(b01) b10)``.
    """
    P = np.asarray(P)
    if P.shape != blocks.shape[:1]:
        raise DomainError(f"one branch count per step: {len(blocks)} steps, "
                          f"branch counts of shape {P.shape}")
    _check_count("branch count", int(P.min(initial=1)))
    P = P[:, None]
    b00, b01, b10, b11 = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
    # with blocks sqrt(2) times each share, each sum is twice its expectation
    w0 = np.sum(b00.conj() * b10, axis=1)
    w1 = np.sum(b01.conj() * b11, axis=1)
    u = 0.5 * np.sum(b01.conj() * b10, axis=1)
    v = 0.5 * np.sum(b11.conj() * b00, axis=1)
    x0, y0, x1, y1 = w0.real, w0.imag, w1.real, w1.imag
    zx, zy = u + v, 1j * (v - u)
    plus = 0.5 + 0.25 * (x0 ** P + x1 ** P) + 0.5 * (zx ** P).real
    plus_i = (0.5 + 0.25 * (y0 * x0 ** (P - 1) + y1 * x1 ** (P - 1))
              + 0.5 * (zy * zx ** (P - 1)).real)
    return np.clip(np.stack([plus, plus_i], axis=-1), 0.0, 1.0)


def setting_probability(circuit: ParallelCircuit,
                        setting: MeasurementSetting) -> float:
    """Exact even-parity probability of the synthesized circuit: the
    analytic stage, then :func:`parity_probabilities`."""
    blocks = eigenphase_blocks(circuit.spec, [circuit.instance.theta], [circuit.S])
    return float(parity_probabilities(blocks[circuit.S][None], [circuit.P])
                 [0, 0, list(MeasurementSetting).index(setting)])


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

def check_capacity(ns) -> None:
    """Raise :class:`CapacityError` at the first register size in ``ns``
    whose stages would hold more than :data:`STATEVECTOR_MAX_BYTES` at
    once: the controlled-Grover block of every amplitude of that size, its
    adjoint, and the temporaries of one block's build, counted as
    :data:`_BUILD_BLOCKS` blocks, each ``(2^(n+1))^2`` complex.  The
    shifter's length adds nothing: :func:`shifter_columns` holds two
    columns per amplitude."""
    for n, m in Counter(ns).items():
        nbytes = 16 * 4 ** (n + 1) * (2 * m + _BUILD_BLOCKS)
        if nbytes > STATEVECTOR_MAX_BYTES:
            raise CapacityError(
                f"statevector blocks at n = {n} for {m} amplitude"
                f"{'' if m == 1 else 's'} need {nbytes / 2 ** 30:.3g} GiB, over the "
                f"{STATEVECTOR_MAX_BYTES / 2 ** 30:g} GiB guard")


def controlled_grover_blocks(instances) -> np.ndarray:
    """The ``(m, 2^(n+1), 2^(n+1))`` stack of the controlled-Grover blocks
    of ``m`` instances' canonical explicit oracles, in order, each built
    into its slot.  The instances must share one register size ``n``; mixed
    sizes raise :class:`DomainError` before any oracle is built, and so does
    an empty batch."""
    instances = list(instances)
    sizes = sorted({inst.n for inst in instances})
    if not sizes:
        raise DomainError("empty batch: controlled-Grover blocks need at least one instance")
    if len(sizes) > 1:
        raise DomainError(f"controlled-Grover blocks need one register size, got n = {sizes}")
    dim = 2 ** (sizes[0] + 1)
    blocks = np.empty((len(instances), dim, dim), dtype=complex)
    for block, inst in zip(blocks, instances):
        block[...] = controlled_grover(build_grover_unitary(build_explicit_oracle(inst)))
    return blocks


def shifter_columns(spec: PhaseShifterSpec, wq: np.ndarray,
                    powers) -> dict[int, np.ndarray]:
    """The statevector stage: ``{s: blocks}`` for every requested power
    ``s``, each the ``(2^n, m, 2, 2)`` blocks of the shifter of ``spec``
    raised to ``s`` around each of the ``m`` controlled-Grover blocks
    ``wq``, ``(m, 2^(n+1), 2^(n+1))``.

    A branch's system register starts at ``|0..0>``, so two columns of the
    shifter, ancilla 0 and 1 with the system at ``|0^n>``, fix its final
    state; split by the system basis state they reach, and scaled by
    ``sqrt(2)``, they are the branch's ``2^n`` ancilla blocks.

    The shifter is the product over slots ``j`` of ``rx(a_j) W_j rx(-a_j)``
    on the ancilla, with ``W_j = wq^dagger`` and ``a_j = xi_j + pi`` in odd
    slots (even ``j``), ``W_j = wq`` and ``a_j = xi_j`` in even slots.  Its
    factors are applied right to left to the columns and never multiplied
    out: consecutive x-rotations merge into one, ``rx(a_(j+1) - a_j)``, so
    each slot is one batched product with a 2x2 rotation on the ancilla
    axis and one with a block or its adjoint; where one application of the
    shifter meets the next, its last and first rotations merge too, so one
    pass to the largest ``s`` gives every smaller one on the way."""
    powers = _repetitions(powers)
    m, dim = wq.shape[0], wq.shape[-1]
    xi = np.asarray(spec.angles.xi, dtype=float)
    a = xi + np.pi * (np.arange(len(xi)) % 2 == 0)
    # rotations in the order applied: the shifter's first one, the merged
    # one at the wrap, its last one, then between slots j + 1 and j for
    # j = L - 2 .. 0
    half = np.concatenate([[-a[-1], a[0] - a[-1], a[0]], np.diff(a)[::-1]]) / 2
    ch, sh = np.cos(half), np.sin(half)
    rx = np.empty((len(half), 2, 2), dtype=complex)
    rx[:, 0, 0] = rx[:, 1, 1] = ch
    rx[:, 0, 1] = rx[:, 1, 0] = -1j * sh
    first, wrap, last, *between = rx
    turns = [first, *between]
    wq_dag = np.swapaxes(wq, -1, -2).conj()
    slots = [wq if j % 2 else wq_dag for j in range(len(xi) - 1, -1, -1)]
    cols = np.zeros((m, dim, 2), dtype=complex)
    cols[:, 0, 0] = cols[:, dim // 2, 1] = 1.0
    turned = np.empty_like(cols)
    # views of the same columns with the ancilla as an axis of its own
    by_ancilla, turned_by_ancilla = cols.reshape(m, 2, -1), turned.reshape(m, 2, -1)
    blocks = {}
    for s in range(1, powers[-1] + 1):
        for turn, block in zip(turns, slots):
            np.matmul(turn, by_ancilla, out=turned_by_ancilla)
            np.matmul(block, turned, out=cols)
        turns[0] = wrap
        if s in powers:
            # (ancilla, system, column) per amplitude, system first
            columns = np.matmul(last, by_ancilla).reshape(m, 2, dim // 2, 2)
            blocks[s] = np.sqrt(2.0) * columns.transpose(2, 0, 1, 3)
    return blocks


def statevector_even_parity_probability(circuit: ParallelCircuit,
                                        setting: MeasurementSetting) -> float:
    """Even-parity probability around the instance's explicit oracle: the
    statevector stage, then :func:`parity_probabilities`, after the guard,
    which raises :class:`CapacityError` before any oracle is built."""
    check_capacity([circuit.instance.n])
    blocks = shifter_columns(circuit.spec, controlled_grover_blocks([circuit.instance]),
                             [circuit.S])
    return float(parity_probabilities(blocks[circuit.S][None], [circuit.P])
                 [0, 0, list(MeasurementSetting).index(setting)])
