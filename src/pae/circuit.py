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
stage with one contract, ``stage(requests, operand) -> [{s: blocks}]``:
for every ``(spec, powers)`` of a run's requests it raises the shifter to
every requested power ``s`` and returns the blocks of each in the layout
:func:`parity_probabilities` reads; one shifter is the batch of one,
``stage([(spec, powers)], operand)[0]``.  ``driver.step_probabilities``
composes the stages for a run, one stage call for every shifter of a
register size; the per-setting views :func:`setting_probability` and
:func:`statevector_even_parity_probability` compose them for one circuit.
The backends differ in where the blocks come from:

* analytic -- on each Grover eigenphase ``e^{+-2i theta}`` the shifter is
  a 2x2 SU(2) ancilla matrix at ``pi/2 +- 2 theta``; the two
  eigencomponents of ``|0..0>`` are the two components.
  :func:`analytic_stage` evaluates each shifter from the row that
  certified its angles (``AngleSequence.row``), on one table of powers
  shared by every shifter of the run and one product per shifter for all
  instance angles, and raises it to each ``s`` in closed form; exact, and
  batched over shifters and instance angles.  ``qsp.rotation_product``,
  which multiplies the angles out layer by layer, stays the independent
  check of this stage (``pae verify``).
* statevector -- the shifter around the explicit oracle, used to
  cross-validate the analytic backend: :func:`controlled_grover_blocks`
  stacks the controlled-Grover blocks of instances of one register size,
  and :func:`statevector_stage` applies each shifter in turn by
  :func:`qsp.apply_shifter`: its factors go to the only two columns a
  branch reads, those of a system register at ``|0..0>``, up to the
  largest ``s`` in one pass, without multiplying the shifter out; split by
  the system basis state they reach, the columns are the blocks of ``2^n``
  components.  The full ``(n+1)P``-qubit state is never built;
  :func:`check_capacity` bounds the blocks instead.  The explicit oracle
  and the x-rotations of :func:`qsp.apply_shifter` share no code with the
  eigenphase reduction and the certified row, so the two backends check
  each other.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core_model import (AmplitudeInstance, DomainError, build_explicit_oracle,
                         build_grover_unitary, checked_count)
from . import qsp
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
# once: it is as wide as the run's widest row and built over chunks of
# instance angles, so its memory does not grow with the amplitude grid or
# the number of shifters (2^24 bytes is 255 angles at L = 5586).
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
    """``P`` parallel branches of an ``S``-fold sequential shifter, integers
    ``P, S >= 1``."""

    P: int
    spec: PhaseShifterSpec
    S: int
    instance: AmplitudeInstance

    def __post_init__(self):
        checked_count("branch count", self.P)
        checked_count("repetition count", self.S)


def _repetitions(powers) -> list[int]:
    """The distinct requested powers, ascending; a power that is not an
    integer, or below 1, or none, raises :class:`DomainError`."""
    return sorted({checked_count("repetition count", s) for s in list(powers) or [0]})


def _requests(requests) -> list[tuple[PhaseShifterSpec, list[int]]]:
    """Every ``(spec, powers)`` of a run-level request, its powers checked
    and sorted by :func:`_repetitions`, all before any work."""
    return [(spec, _repetitions(powers)) for spec, powers in requests]


def analytic_stage(requests, thetas) -> list[dict[int, np.ndarray]]:
    """The analytic stage of a run: for every ``(spec, powers)`` of
    ``requests``, in order, ``{s: blocks}`` for every requested power
    ``s``, each the ``(2, n, 2, 2)`` ancilla blocks of the shifter raised
    to ``s`` on the two Grover eigenphases of every instance angle.

    The blocks come from the row that certified the angles
    (``AngleSequence.row``): with ``(x, eta)`` on powers ``-h..h`` of ``v =
    e^{i phi}``, ``h = m/2``, the shifter at ``phi = pi/2 +- 2 theta`` is the
    SU(2) matrix ``U`` with first row ``u00 = x(v)``, ``u01 = i eta(v)``.
    Every shifter reads the same powers ``v^k``, so they are one table, a
    running product per angle, as wide as the widest row, ``k = 0..h``;
    each row's real coefficients fold onto the real and imaginary parts of
    its own prefix of that table, ``x(v) = sum_k (x_k + x_-k) cos(k phi) +
    i (x_k - x_-k) sin(k phi)``: one matrix product per row gives ``x(v)``
    and ``eta(v)`` at every angle.  The table is built over chunks of
    angles, at most :data:`_TABLE_BYTES` at the widest row's width, so its
    memory is bounded whatever the number of amplitudes; a narrower row's
    product runs on the same chunks, so past one chunk its values can move
    at rounding level from those of its batch of one.
    Each power is then the axis-angle form ``U^s = cos(s a) I + (sin(s a) /
    sin a) (U - cos(a) I)``, with ``cos a = Re u00`` and ``sin a = |(Im u00,
    u01)|``, the norm of ``U - cos(a) I``: where ``sin a = 0`` that matrix
    and its term vanish; every shifter asked for the same powers is raised
    in one pass.  Unlike the three-term Chebyshev recurrence, which drifts
    from ``matrix_power`` as ``s`` grows, the form stays at its rounding
    level.  A spec whose angles carry no row raises :class:`DomainError`
    naming its ``T`` and ``L``, before any work."""
    requests = _requests(requests)
    for spec, _ in requests:
        if spec.angles.row is None:
            raise DomainError(f"shifter T={float(spec.T)}, L={int(spec.L)}: the shifter's "
                              "angles carry no certified row: synthesize or load them "
                              "through qsp")
    phi = (np.pi / 2 + _TWICE * np.asarray(thetas, dtype=float).reshape(-1)).ravel()
    folds = [_fold(spec.angles.row) for spec, _ in requests]
    width = max((len(fold) // 2 for fold in folds), default=1)
    values = np.empty((len(requests), len(phi), 4))
    chunk = max(1, _TABLE_BYTES // (16 * width))
    for start in range(0, len(phi), chunk):
        part = phi[start:start + chunk]
        table = np.empty((len(part), width), dtype=complex)
        table[:, 0] = 1.0
        table[:, 1:] = np.exp(1j * part)[:, None]
        np.cumprod(table, axis=1, out=table)
        for fold, out in zip(folds, values):
            np.matmul(table[:, :len(fold) // 2].view(float), fold,
                      out=out[start:start + chunk])
    same_powers = {}
    for i, (_, powers) in enumerate(requests):
        same_powers.setdefault(tuple(powers), []).append(i)
    stages = [None] * len(requests)
    for powers, members in same_powers.items():
        blocks = _raised(values[members], powers).reshape(
            len(powers), len(members), 2, len(phi) // 2, 2, 2)
        for j, i in enumerate(members):
            stages[i] = dict(zip(powers, blocks[:, j]))
    return stages


def _fold(row: np.ndarray) -> np.ndarray:
    """The ``(m+1, 2)`` row ``(x, eta)`` on powers ``-h..h``, folded onto
    ``(cos, sin)(k phi)``, ``k = 0..h``: the ``(2 (h+1), 4)`` matrix whose
    product with the real view of a table of powers gives columns
    ``Re x(v)``, ``Re eta(v)``, ``Im x(v)``, ``Im eta(v)``, from the
    cosine and sine parts of ``qsp._fold``."""
    fold = np.zeros((len(row) // 2 + 1, 2, 4))
    fold[:, 0, :2], fold[:, 1, 2:] = qsp._fold(row)
    return fold.reshape(-1, 4)


def _raised(values: np.ndarray, powers: list[int]) -> np.ndarray:
    """The ``(len(powers), ...)`` axis-angle powers of the SU(2) matrices
    whose first rows the ``(..., 4)`` ``values`` hold, as columns ``Re
    u00``, ``Re eta``, ``Im u00``, ``Im eta`` with ``u01 = i eta``.

    ``U - cos(a) I`` is ``[[i Im u00, u01], [-conj(u01), -i Im u00]]``, so
    with ``r = sin(s a) / sin a`` the power is ``[[cos(s a) + i r Im u00,
    r (-Im eta + i Re eta)], [r (Im eta + i Re eta), cos(s a) - i r Im
    u00]]``; each real and imaginary part is written in place, one
    product each."""
    x_re, eta_re, x_im, eta_im = np.moveaxis(values, -1, 0)
    sin_a = np.hypot(x_im, np.hypot(eta_re, eta_im))
    sa = np.multiply.outer(powers, np.arctan2(sin_a, x_re))
    ratio = np.sin(sa)
    np.divide(ratio, sin_a, out=ratio, where=sin_a > 0)
    blocks = np.empty(sa.shape + (2, 2), dtype=complex)
    re, im = blocks.real, blocks.imag
    np.cos(sa, out=re[..., 0, 0])
    re[..., 1, 1] = re[..., 0, 0]
    np.multiply(ratio, x_im, out=im[..., 0, 0])
    np.negative(im[..., 0, 0], out=im[..., 1, 1])
    np.multiply(ratio, eta_im, out=re[..., 1, 0])
    np.negative(re[..., 1, 0], out=re[..., 0, 1])
    np.multiply(ratio, eta_re, out=im[..., 0, 1])
    im[..., 1, 0] = im[..., 0, 1]
    return blocks


def parity_probabilities(blocks: np.ndarray, P) -> np.ndarray:
    """``(g, n, 2)`` probabilities of a stack of ``g`` steps, step ``i``
    with ``P[i]`` branches, from ``(g, c, n, 2, 2)`` blocks already raised
    to each step's ``S``, each a ``(c, n, 2, 2)`` value of a stage's ``{s:
    blocks}``; a single step is the stack of one, ``(blocks[None], [P])``,
    and its row has the same bits alone or in any stack.  ``P`` must hold
    one integer count per step, else :class:`DomainError`.  Per step, axis
    ``c`` runs over the components of the system register, each block
    ``sqrt(2)`` times that component's share of the branch state, and
    column ``j`` of a block is its part of the ancilla state ``phi_j``.  For the analytic
    backend the components are the two Grover eigenphases, which ``|0..0>``
    weights ``1/sqrt(2)`` each (the ``(2, n, 2, 2)`` blocks of
    :func:`analytic_stage`); for the statevector backend the ``2^n`` system
    basis states (the ``(2^n, m, 2, 2)`` blocks of :func:`statevector_stage`).

    With ``x_j = <phi_j|X|phi_j>`` and ``z = <phi_1|X|phi_0>`` over all
    components, the product over identical branches collapses to
    ``p = 1/2 + (x_0^P + x_1^P)/4 + Re(z^P)/2``.
    The extra rotation of the PLUS_I setting turns branch 0's ``X`` into ``Y``.
    Every expectation is read elementwise from the block entries ``b_ij``,
    for any 2x2 block: ``x_0 + i y_0 = 2 conj(b00) b10`` (``b01``, ``b11``
    for ``j = 1``), ``z_x = conj(b01) b10 + conj(b11) b00`` and
    ``z_y = i (conj(b11) b00 - conj(b01) b10)``.

    Each base is raised once, to ``P - 1``: both settings read that power,
    and ``x^P = x^(P-1) x``, ``z_x^P = z_x^(P-1) z_x`` are one product
    each.  The real bases have both signs, and ``pow`` takes a slow path on
    a negative base, so they are raised by :func:`_signed_power`, on their
    magnitudes with the sign put back.
    """
    P = np.asarray(P)
    if P.shape != blocks.shape[:1]:
        raise DomainError(f"one branch count per step: {len(blocks)} steps, "
                          f"branch counts of shape {P.shape}")
    P = np.array([checked_count("branch count", p) for p in P.tolist()], dtype=int)[:, None]
    b00, b01, b10, b11 = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
    # with blocks sqrt(2) times each share, each sum is twice its expectation
    w0 = np.sum(b00.conj() * b10, axis=1)
    w1 = np.sum(b01.conj() * b11, axis=1)
    u = 0.5 * np.sum(b01.conj() * b10, axis=1)
    v = 0.5 * np.sum(b11.conj() * b00, axis=1)
    x0, y0, x1, y1 = w0.real, w0.imag, w1.real, w1.imag
    zx, zy = u + v, 1j * (v - u)
    x0p, x1p, zxp = _signed_power(x0, P - 1), _signed_power(x1, P - 1), zx ** (P - 1)
    plus = 0.5 + 0.25 * (x0p * x0 + x1p * x1) + 0.5 * (zxp * zx).real
    plus_i = 0.5 + 0.25 * (x0p * y0 + x1p * y1) + 0.5 * (zxp * zy).real
    return np.clip(np.stack([plus, plus_i], axis=-1), 0.0, 1.0)


def _signed_power(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x ** n`` for real ``x`` and integers ``n >= 0`` broadcast against
    it, taken as ``|x| ** n`` with the sign of ``x`` where ``n`` is odd:
    no negative base reaches ``pow``, and the sign costs one pass."""
    power = np.abs(x) ** n
    return np.copysign(power, x, out=power, where=n % 2 == 1)


def _circuit_probability(stage, operand, circuit: ParallelCircuit,
                         setting: MeasurementSetting) -> float:
    """The even-parity probability at ``setting`` of the shifter raised to
    ``S`` by ``stage`` on ``operand``, contracted for ``P`` branches."""
    blocks = stage([(circuit.spec, [circuit.S])], operand)[0][circuit.S]
    return float(parity_probabilities(blocks[None], [circuit.P])
                 [0, 0, list(MeasurementSetting).index(setting)])


def setting_probability(circuit: ParallelCircuit,
                        setting: MeasurementSetting) -> float:
    """Exact even-parity probability of the synthesized circuit: the
    analytic stage, then :func:`parity_probabilities`."""
    return _circuit_probability(analytic_stage, [circuit.instance.theta], circuit, setting)


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
    probability outside ``[0, 1]``, or NaN, raises ``ValueError``; a shot
    count that is not an integer of at least 0 raises :class:`DomainError`
    before any draw.  ``seed`` may be anything ``numpy.random.default_rng``
    accepts, including an existing generator.

    No pae code calls it any more: the sampling phase draws through
    :func:`driver.draw_counts` and the bias sweep draws nothing.  It stays
    for the benchmark's tracer and its tests.
    """
    shots = checked_count("shots", shots, 0)
    counts = np.random.default_rng(seed).binomial(shots, probability)
    return int(counts) if np.ndim(counts) == 0 else counts


def ghz_depth(P: int) -> int:
    """Entangling layers of the doubling ladder preparing the GHZ state,
    ``ceil(log2 P)``, exact for every integer ``P >= 1``."""
    return (checked_count("branch count", P) - 1).bit_length()


# ---------------------------------------------------------------------------
# Statevector backend

def check_capacity(ns) -> None:
    """Raise :class:`CapacityError` at the first register size in ``ns``
    whose stages would hold more than :data:`STATEVECTOR_MAX_BYTES` at
    once: the controlled-Grover block of every amplitude of that size, its
    adjoint, and the temporaries of one block's build, counted as
    :data:`_BUILD_BLOCKS` blocks, each ``(2^(n+1))^2`` complex.  The
    shifter's length adds nothing: :func:`statevector_stage` holds two
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


def statevector_stage(requests, wq: np.ndarray) -> list[dict[int, np.ndarray]]:
    """The statevector stage of a run: for every ``(spec, powers)`` of
    ``requests``, in order, ``{s: blocks}`` for every requested power
    ``s``, each the ``(2^n, m, 2, 2)`` blocks of the shifter of ``spec``
    raised to ``s`` around each of the ``m`` controlled-Grover blocks
    ``wq``, ``(m, 2^(n+1), 2^(n+1))``.  Every request's powers are checked
    before any work; then each shifter is applied in turn, by
    :func:`qsp.apply_shifter`, to the only two columns a branch reads.

    A branch's system register starts at ``|0..0>``, so two columns of the
    shifter, ancilla 0 and 1 with the system at ``|0^n>``, fix its final
    state; split by the system basis state they reach, and scaled by
    ``sqrt(2)``, they are the branch's ``2^n`` ancilla blocks."""
    m, dim = wq.shape[0], wq.shape[-1]
    start = np.zeros((m, dim, 2), dtype=complex)
    start[:, 0, 0] = start[:, dim // 2, 1] = 1.0
    stages = []
    for spec, powers in _requests(requests):
        applied = qsp.apply_shifter(spec.angles.xi, wq, start, powers)
        # (ancilla, system, column) per amplitude, system first
        stages.append({s: np.sqrt(2.0) * cols.reshape(m, 2, dim // 2, 2).transpose(2, 0, 1, 3)
                       for s, cols in applied.items()})
    return stages


def statevector_even_parity_probability(circuit: ParallelCircuit,
                                        setting: MeasurementSetting) -> float:
    """Even-parity probability around the instance's explicit oracle: the
    statevector stage, then :func:`parity_probabilities`, after the guard,
    which raises :class:`CapacityError` before any oracle is built."""
    check_capacity([circuit.instance.n])
    return _circuit_probability(statevector_stage, controlled_grover_blocks([circuit.instance]),
                                circuit, setting)
