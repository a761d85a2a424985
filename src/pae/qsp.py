"""Synthesis of the engineered phase shifter from the Grover rotation.

The shifter imprints a relative ancilla phase ``T*phi`` (``phi = 2(1-2a)``)
by interleaving controlled Grover steps with single-qubit x-rotations.  The
pipeline is:

1. ``truncate_target``: expand ``exp(-i T sin(theta))`` by Jacobi-Anger as
   the real Laurent vector ``p`` in ``z = e^{i theta}`` on powers
   ``-L/2..L/2``, ``J_n(T)`` at ``z^-n`` and ``(-1)^n J_n(T)`` at ``z^n``,
   with a certified factorial error bound ``delta``.  All coefficients come
   from one pass of Miller's backward recurrence on the ratios
   ``J_k/J_(k-1)``, normalised by ``J_0 + 2 sum_k J_2k = 1``.  This one
   vector is the target's only form from here to the peel.  A length that
   no sequence can certify, one whose product's own rounding bound passes
   the residual's tolerance (:func:`_check_certifiable`, every ``L >
   515584``), is refused before the recurrence.
2. ``complete_target``: adjust ``p`` in one closed-form pass so that
   ``P(z) = sum_k p_k z^k`` is exactly achievable (``P(1) = 1`` and
   ``|P| <= 1`` on the circle), staying within ``8*delta`` of the target.
   ``|P|^2`` is a real trigonometric polynomial of degree ``L``.  It is
   evaluated once, for the truncated vector, to measure the overshoot, on
   one uniform grid sized by that degree (``_sized_grid``: the smallest
   power of two with at least 64 points per degree), as the squared
   absolute values of one real FFT of the coefficients
   (``_uniform_moduli``).  For real ``p``, ``P(e^{-i theta}) = conj
   P(e^{i theta})``, so ``|P|^2`` takes the same value at ``theta`` and
   ``2 pi - theta``, and the half spectrum, the angles ``0..pi``, carries
   every value of the grid.  Nothing is gated here: a completed vector
   that no sequence realizes, as at ``L = 2``, where a sequence realizes
   only ``C = 0``, fails the residual of step 4.  A list of targets is one
   batch: the targets that share a sized grid share its transform, one
   real FFT of their stacked rows (``_stacks``), while every sum stays per
   target.
3. ``solve_angles``: find the ``L`` rotation angles whose interleaved
   product realizes ``P`` by layer peeling alone: complete ``P`` to a
   unitary with the complementary polynomial ``G``
   (``|P|^2 + |G|^2 = 1``, one FFT spectral factorisation, no root finding;
   its arrays are real or Hermitian, so every transform is a real FFT, on
   a grid that doubles from eight points per coefficient until the
   cepstrum's aliased tail is at rounding level) and strip one degree at a
   time.  The peel's core is the whole target or, as at about half the
   calibrated lengths from ``T = 109`` up, a core cut shorter where the
   target's top harmonics fall below the peel's ``1e-13`` cut.  The
   complement is not gated: the realized product is a product of SU(2)
   factors, so it is exactly unitary, and a complement that misses
   ``|P|^2 + |G|^2 = 1`` can only make the residual of step 4 fail, which
   is loud.  Only the first row ``(P, iG)`` of the Laurent
   tensor is kept, since the second is its reversed conjugate, and as the
   real pair ``(P, G)``: every layer maps a row ``(x, i eta)`` with real
   ``x`` and ``eta`` to another.  Each layer's angle comes in closed form
   from the two end blocks, and each strip is one real ``(L, 2) @ (2, 2)`` product with the
   layer's rank-1 projector, refilled in place, added in place to the
   row's view one shorter, so the peel is ``O(L^2)`` with a small
   constant.  It runs at the target's effective degree (at least 2 for a
   live target, whose core then has length 4) and pads with cancelling
   pairs up to ``L``, the only place that pads; a target that is the
   identity up to rounding is all cancelling pairs.  A list of targets is
   one batch: all live cores are complemented together
   (``_fejer_complements``), each transform one real FFT of the stacked
   rows on its grid size, at every cepstrum doubling step, where a core
   leaves the stack once its tail passes, and at the exponential's pair;
   and all are peeled in one lockstep loop over the layers
   (``_solve_layer_peel``), where a core joins the stacked rows at its own
   first layer, so the batch shares each layer's calls, never its
   arithmetic; one target is the batch of one.

   A stacked real FFT gives each row the bits of its own call, and an
   elementwise step does too, but a pairwise sum over a zero-padded row
   does not.  So every step that reduces over a target's own length stays
   per target: the Bessel recurrence, the fold's sums and curvature, the
   deflation, the ``np.convolve`` products and the overshoot's maximum.
   A stack holds at most ``_STACK_BYTES`` of rows, one row always.
4. ``_certify_angles`` gates the sequences, pads included, with no grid,
   and is the only gate of the completion, the complement and the angles:
   the first target in batch order whose residual fails names the batch's
   failure, as it would alone.  A product tree (``_product_row``)
   multiplies the factors out in coefficient space.  A level of nodes up
   to ``_DIRECT_WIDTH`` (9) coefficients, the bottom four, multiplies each
   pair directly, every
   output coefficient one fixed-order sum of products (one ``einsum`` of
   the left nodes with the right nodes' Toeplitz blocks, gathered through
   one index table); a wider level takes one real FFT of six rows per
   pair, one fused product-sum giving both output rows and one inverse
   real FFT.  The residual is the l1 distance of the product's
   coefficients from ``p``, which bounds the sup distance on the whole
   circle, plus a rounding term derived from the sum and FFT error bounds
   (``_product_rounding``).  Each certified sequence keeps that row,
   ``AngleSequence.row``, which fixes the whole SU(2) product and is what
   the analytic backend evaluates.  A level's node width and FFT size
   depend on the level alone, so all sequences of a batch share one tree,
   each with its own pairs and pads: one call of the level's steps per
   level of the longest.
   ``_certified_shifters`` runs steps 1-4 for a batch of keys ``(T, L)``,
   for ``synthesize_shifters`` and so for ``synthesize_shifter``, its batch
   of one, and, with a file's angles in place of the peel's, for
   ``load_angles``; every spec is bit for bit what its key gets alone.  It
   refuses an ``L`` that cannot certify, as step 1 refuses a solve length,
   since the peel pads to ``L`` and the tree multiplies all of it.
   Lengths come from one search, ``_shortest_length``: the shortest even
   ``L >= 4`` that passes a test on ``L``, with three tests, up to
   ``2^62``, the longest power of two a signed 64-bit count holds.  The solve
   length, ``_solve_length``, is the search for ``delta < 1e-10``
   (rounding level), capped at the shifter's ``L``; ``select_L`` is the
   search for ``state_error_bound(delta) <= eps_oc``, the shortest
   certified length, and refuses a budget that the solve length cuts;
   ``select_L_empirical`` is the search for ``BIAS_DELTA_THRESHOLD`` on
   the log bound at ``h = L/2 + 3/2``, the calibrated length at every
   strength.
5. On the Grover eigenphase ``e^{+-2i theta}`` the shifter acts on the
   ancilla as the product at ``pi/2 +- 2 theta``.  The analytic backend
   evaluates it from the certified row (``circuit.analytic_stage``), so
   its probabilities come from the evaluation that was certified;
   ``rotation_product`` multiplies the angles out layer by layer, the
   independent evaluation that ``pae verify``, ``realized_functions`` and
   the benchmark's synthesis check read.  ``apply_shifter`` applies the
   same factors, never multiplied out, around a stack of controlled-Grover
   blocks to given columns, up to the largest power in one pass: to the
   two columns a branch reads around explicit oracles
   (``circuit.statevector_stage``), independent of both, so that the
   backends check each other, and to the identity's four on the Grover
   plane (``build_branch_unitary``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core_model import DomainError, checked_count, checked_length

# Bias threshold on the truncation error that keeps the measurement-probability
# bias of a single (P=1, S=1) shifter at or below 0.05.
BIAS_DELTA_THRESHOLD = 3.813e-5

_UNIT_ROUNDOFF = 2.0 ** -53
_RESIDUAL_TOL = 1e-8


class SynthesisError(RuntimeError):
    """Raised when truncation or angle solving cannot meet its contract.
    Raised for one target of a :func:`solve_angles` batch, it carries that
    target's index as ``target``."""


@dataclass(frozen=True)
class TruncatedTarget:
    """Bessel-coefficient truncation of ``exp(-i T sin(theta))``.

    ``coeffs`` is the real Laurent vector on powers ``-L/2..L/2`` of
    ``z = e^{i theta}``: ``J_n(T)`` at ``z^-n`` and ``(-1)^n J_n(T)`` at
    ``z^n``, so ``p_n + p_-n`` is the cosine and ``p_n - p_-n`` the
    ``i sin`` coefficient of harmonic ``n``.
    """

    T: float
    L: int
    coeffs: np.ndarray
    delta: float


@dataclass(frozen=True)
class AngleSequence:
    """Rotation angles realizing a completed Laurent target.

    ``residual`` bounds ``|u00(theta) - P(e^{i theta}) e^{-i d theta}|`` on
    the whole circle for the exact product of the angles: the l1 distance of
    the product's coefficients from the target's, plus a rounding term.
    ``row`` is the ``(m + 1, 2)`` first row ``(x, eta)`` of that product,
    the one the residual was measured on (``_product_row``), which fixes the
    whole SU(2) product; ``None`` for a sequence that was never certified.
    """

    xi: np.ndarray
    residual: float = 0.0
    row: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class PhaseShifterSpec:
    """One synthesized shifter: strength ``T``, query length ``L``, angles.

    ``eps_oc`` is the certified worst-case state error of one application on
    either ancilla input, derived from the truncation bound.
    """

    T: float
    L: int
    angles: AngleSequence
    eps_oc: float

    def branch_unitary(self, theta: float) -> np.ndarray:
        return build_branch_unitary(self, theta)


def chebyshev_grid(n: int) -> np.ndarray:
    """``n`` Chebyshev-distributed angles in ``(0, 2*pi)``; a count that is
    not an integer of at least 1 raises :class:`DomainError`."""
    n = checked_count("grid size", n)
    j = np.arange(n)
    return np.pi * (1.0 - np.cos(np.pi * (2 * j + 1) / (2 * n)))


def _log_truncation_bound(T: float, h: float) -> float:
    """``log(4 |T|^h / (2^h Gamma(h + 1)))``: the truncation bound at
    ``h = L/2 + 1``, for real ``h``."""
    return math.log(4.0) + h * math.log(abs(T) / 2.0) - math.lgamma(h + 1)


def truncation_error_bound(T: float, L: int) -> float:
    """Certified sup-norm bound ``4 T^(L/2+1) / (2^(L/2+1) (L/2+1)!)``,
    evaluated in log space: 0 at ``T = 0``, that of ``|T|`` at a negative
    ``T``, and ``inf`` at an infinite ``T`` or beyond the largest float.  A
    NaN ``T``, or a length that is not a positive even integer, raises
    :class:`DomainError`."""
    L = checked_length("query length", L)
    if math.isnan(T):
        raise DomainError(f"evolution strength must be a number, got {T}")
    if T == 0:
        return 0.0
    log_bound = _log_truncation_bound(T, L // 2 + 1)
    return math.inf if log_bound > math.log(sys.float_info.max) else math.exp(log_bound)


def _bessel_j(T: float, d: int) -> np.ndarray:
    """``J_0(T) .. J_d(T)`` for ``T > 0`` by Miller's backward recurrence.

    The ratios ``r_k = J_k/J_(k-1) = T / (2k - T r_(k+1))`` (Abramowitz &
    Stegun 9.1.27) run down from an order far enough beyond ``max(d, T)``
    that the start value ``r = 0`` has decayed below rounding; their
    products give ``J_k/J_0``, and ``J_0 + 2 sum_k J_2k = 1`` (A&S 9.1.46)
    fixes the scale.  Working on ratios rather than values keeps every
    intermediate finite from ``T = 1e-300`` up.
    """
    m = max(d, math.ceil(T))
    n = m + 16 + math.isqrt(40 * (m + 1))
    r = [0.0] * n
    ratio = 0.0
    for k in range(n, 0, -1):
        ratio = T / (2.0 * k - T * ratio)
        r[k - 1] = ratio
    scaled = np.cumprod(r)                      # J_k / J_0 for k = 1..n
    j = np.concatenate([[1.0], scaled[:d]])
    return j / (1.0 + 2.0 * scaled[1::2].sum())


def _check_strength(T: float) -> None:
    if not 0.0 < T < math.inf:          # a NaN must fail too
        raise DomainError(f"evolution strength must be positive and finite, got {T}")


def truncate_target(T: float, L: int) -> TruncatedTarget:
    """Truncate the Bessel expansion of the phase target at harmonic L/2,
    refusing, before the recurrence runs, a bound ``delta >= 1`` and a
    length that cannot certify (:func:`_check_certifiable`), and with
    :class:`DomainError` a strength that is not positive and finite or a
    length that is not a positive even integer."""
    _check_strength(T)
    L = checked_length("query length", L)
    delta = truncation_error_bound(T, L)
    if delta >= 1.0:
        raise SynthesisError(f"truncation bound {delta:.3g} >= 1; increase L")
    _check_certifiable(L)
    d = L // 2
    j = _bessel_j(float(T), d)
    p = np.concatenate([j[::-1], j[1:]])
    p[d + 1::2] *= -1.0
    return TruncatedTarget(T=float(T), L=L, coeffs=p, delta=delta)


@functools.lru_cache(maxsize=64)
def _fejer_kernel_even(d: int) -> np.ndarray:
    """Laurent vector on powers ``-d..d`` of a nonnegative series on the
    harmonics {0, 2, .., 2*(d//2)} that is exactly 1 at theta in {0, pi}
    and decays in between.  Memoized, so the vector is read-only."""
    dp = d // 2
    r = np.arange(-dp, dp + 1)
    g = np.zeros(2 * d + 1)
    g[d + 2 * r] = (dp + 1 - np.abs(r)) / (dp + 1) ** 2
    g.flags.writeable = False
    return g


def _fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and ``i``-sine coefficients of harmonics ``0..d`` of ``p``:
    ``p_l + p_-l`` (``p_0`` counted once) and ``p_l - p_-l``, along the
    first axis, so a certified ``(m + 1, 2)`` row folds too."""
    d = (len(p) - 1) // 2
    cos_part = p[d:].copy()
    cos_part[1:] += p[d - 1::-1]
    return cos_part, p[d:] - p[d::-1]


def complete_target(targets) -> list[np.ndarray]:
    """Adjust each truncated Laurent vector ``targets[b]`` toward an exactly
    achievable one.

    Returns, per target, ``p`` on powers ``-L/2..L/2`` whose ``P(e^{i
    theta})`` approximates ``exp(-i T sin(theta))``, with ``P(1) = 1``, in
    one pass: a global rescale by the overshoot of ``|P|^2`` measured on the
    uniform grid that ``_sized_grid`` sizes for its degree ``L``, plus a
    margin, then an even-harmonic kernel shift restoring ``P(1) = 1``
    without lifting the off-zero maxima.  If the truncation tail leaves
    ``|P|^2`` with positive curvature ``curv`` at ``theta = 0``, ``mu``
    moved from ``z^0`` to ``z^{+-l2}`` lowers it by exactly ``mu l2^2``
    without moving ``P(1)``, so ``mu = 1.5 curv / l2^2`` makes it ``-curv /
    2``.  ``P(1)`` and the curvature are summed over the folded harmonics,
    where the odd ones cancel exactly.  Nothing is checked: a vector with
    ``|P| > 1`` somewhere, as at ``L = 2``, is refused by the residual of
    :func:`solve_angles`.

    The list is one batch, and one target is the batch of one,
    ``complete_target([target])[0]``: the ``|P|^2`` of the truncated
    targets is one stacked real FFT per sized grid and run (:func:`_stacks`),
    which gives each row the bits of its own call, while every sum stays
    per target, so each vector is bit for bit what it is alone.
    """
    peaks = [0.0] * len(targets)
    for n, run in _stacks([_sized_grid(target.L) for target in targets]):
        for b, modulus2 in zip(run, _uniform_moduli([targets[b].coeffs for b in run], n)):
            peaks[b] = float(modulus2.max())
    ps = []
    for target, peak in zip(targets, peaks):
        d = target.L // 2
        l2 = 2 * (d // 2)
        p = target.coeffs
        m = max(0.0, peak - 1.0)
        kernel = _fejer_kernel_even(d)
        # a small interior margin keeps |P|^2 strictly below 1 away from the
        # pinned points, so the later spectral factorization never meets
        # degenerate zeros on the unit circle; capped at 4*delta to stay
        # inside the completion's 8*delta budget
        extra = min(4.0 * target.delta, max(0.5 * target.delta, 1e-7))
        s = 1.0 + m + extra

        def shifted(mu: float) -> np.ndarray:
            # mu goes in before the kernel shift, whose coefficient it leaves
            # unchanged up to rounding; at mu = 0 the updates are exact
            # no-ops, and mu is nonzero only where l2 >= 2
            p2 = p / s
            p2[d - l2] += mu / 2.0
            p2[d + l2] += mu / 2.0
            p2[d] -= mu
            return p2 + (1.0 - _fold(p2)[0].sum()) * kernel

        p2 = shifted(0.0)
        if l2 >= 2:
            ls = np.arange(d + 1)
            cos_part, sin_part = _fold(p2)
            curv = -(cos_part * ls ** 2).sum() + (sin_part * ls).sum() ** 2
            if curv > 0.0:
                p2 = shifted(1.5 * curv / l2 ** 2)
        ps.append(p2)
    return ps


# ---------------------------------------------------------------------------
# Interleaved-product evaluation (per-eigenphase 2x2 picture)

# The factor's generator as a map on the real row (Re x, Im x, Re y, Im y):
# (x, y) -> (i x, -i y) on the cos(xi) part and (x, y) -> (y, -x) on the
# sin(xi) part
_ROW_Z = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
_ROW_Y = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                   [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])


def rotation_product(xi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The per-eigenphase 2x2 product of the interleaved angle sequence.

    Factor ``j`` is ``exp(-i theta/2 (cos(xi_j) Z - sin(xi_j) Y))`` in every
    slot: an odd slot (even ``j``) carries the adjoint step, negating the
    exponent, and the shifted angle ``xi_j + pi``, negating it back.  Every
    factor lies in SU(2), so the product does too and only its first row
    ``(x, y)`` is tracked.  The factor maps it to ``cos(theta/2) (x, y) -
    sin(theta/2) (i c x + s y, -s x - i c y)``, ``(c, s) = (cos, sin)(xi_j)``:
    on the real rows ``(Re x, Im x, Re y, Im y)`` one constant 4x4 product
    per factor and three in-place elementwise updates over the grid.
    """
    xi = np.asarray(xi, dtype=float)
    half = np.asarray(thetas, dtype=float) / 2.0
    ch, sh = np.cos(half), np.sin(half)
    gens = np.cos(xi)[:, None, None] * _ROW_Z + np.sin(xi)[:, None, None] * _ROW_Y
    row = np.zeros((4, len(half)))
    row[0] = 1.0
    turned = np.empty_like(row)
    for gen in gens:
        np.matmul(gen, row, out=turned)
        turned *= sh
        row *= ch
        row -= turned
    x, y = row[0] + 1j * row[1], row[2] + 1j * row[3]
    u = np.empty((len(half), 2, 2), dtype=complex)
    u[:, 0, 0] = x
    u[:, 0, 1] = y
    u[:, 1, 0] = -y.conj()
    u[:, 1, 1] = x.conj()
    return u


def realized_functions(xi: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Realized ``(A, C)`` of an angle sequence."""
    u00 = rotation_product(xi, thetas)[:, 0, 0]
    return u00.real, u00.imag


# ---------------------------------------------------------------------------
# Layer peeling: complement the target to a full SU(2)-valued trig polynomial
# and strip one rotation layer at a time.

# A stacked transform holds at most this many bytes of real rows, and one
# row is always allowed.  With numpy 2.4's pocketfft on one thread of a
# 2-CPU x86-64 host, a stack of rows of up to 8192 points cost about a
# third less per row than one call each, while from 16384 points up a
# stack of two or four rows took 0.9 to 1.7 times as long as their calls
# one by one: rows of that size go alone
_STACK_BYTES = 1 << 17


def _spread(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """The ``(k, n)`` rows of the real Laurent vectors ``vectors`` on the
    ``n``-point grid, ``n >= 2 d + 1``: each coefficient of power ``-d..d``
    at its residue mod ``n``, powers ``0..d`` first and ``-d..-1`` last."""
    rows = np.zeros((len(vectors), n))
    for row, p in zip(rows, vectors):
        d = (len(p) - 1) // 2
        row[:d + 1] = p[d:]
        row[n - d:] = p[:d]
    return rows


def _stacks(sizes: list[int]):
    """Yield ``(n, run)``, smallest grid size first, for the indices ``b``
    with ``sizes[b] = n``, in runs of at most ``_STACK_BYTES`` of ``n``-point
    real rows, at least one row each.  An index whose size the caller
    raises while reading the runs of ``n`` is read again in its turn."""
    pending = range(len(sizes))
    while pending:
        n = min([sizes[b] for b in pending])
        batch = [b for b in pending if sizes[b] == n]
        rows = max(1, _STACK_BYTES // (8 * n))
        for start in range(0, len(batch), rows):
            yield n, batch[start:start + rows]
        pending = [b for b in pending if sizes[b] > n]


def _uniform_moduli(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """``|P(e^{2 pi i j / n})|^2``, ``j = 0..n/2`` (``n`` even), the angles
    ``0..pi`` of the ``n``-point uniform grid, of each real Laurent vector
    of ``vectors``: one ``(k, n/2 + 1)`` array from one real FFT of the
    rows of :func:`_spread`.  Bin ``j`` is the conjugate ``P(e^{-2 pi i j /
    n})``, of the same modulus; the points ``n/2+1..n-1`` repeat ``n/2-1..1``."""
    half = np.fft.rfft(_spread(vectors, n))
    return np.add(half.real ** 2, half.imag ** 2)


def _sized_grid(degree: int) -> int:
    """The size of the uniform certificate grid of a real trigonometric
    polynomial of degree ``degree``: the smallest power of two with at
    least 64 points per degree."""
    return 1 << (64 * degree - 1).bit_length()


def _deflate_pinned(r: np.ndarray) -> np.ndarray:
    """``r`` (ascending powers) divided by ``(z - 1)^2 (z + 1)^2``, by
    synthetic division from the top: at the root ``+1`` the quotient is a
    running sum, at ``-1`` that of the sign-alternated coefficients with the
    signs put back.  Sign flips are exact and ``cumsum`` adds in order, so
    every quotient coefficient is rounded as in the scalar recurrence."""
    c = np.cumsum(np.cumsum(r[:0:-1])[:-1])
    sign = np.ones(len(c) - 1)           # (-1)^k, without a power per entry
    sign[1::2] = -1.0
    for size in (len(c) - 1, len(c) - 2):
        c = sign[:size] * np.cumsum(sign[:size] * c[:size])
    return c[::-1]


def _outer_factors(rs: list[np.ndarray]) -> list[np.ndarray]:
    """The outer factor ``F``, ``|F|^2 = R~``, with its zeros outside the
    disk, from each deflated remainder ``rs[b]``, which holds ``-R~`` on
    powers ``-m..m``: ``F`` on the ``n`` points of the uniform grid of its
    cepstrum, the length of the result, with the coefficients of powers
    ``0..m`` first.  The analytic half of the cepstrum of ``log R~`` is the
    cepstrum of ``log F``.

    The cepstrum decays, and the grid aliases its tail onto the kept half,
    so ``n`` doubles from eight points per coefficient while the tail
    ``max |c[n/4 : n/2]|`` exceeds ``1e-14``, up to ``max(4096, eight per
    coefficient)``.  ``R~`` is real and symmetric, so its spectrum and the
    cepstrum are real: both transforms are real FFTs.  ``R~`` dips below
    zero only by rounding where ``1 - |P|^2`` is itself at rounding level;
    clamping the dips changes ``|G|^2`` by that much, and the residual of
    :func:`_certify_angles` still rejects a truly infeasible target.

    Every doubling step stacks the remainders on its grid size, smallest
    first, each transform one call per run (:func:`_stacks`); the rows
    whose tail passes leave the stack for the exponential's pair of
    transforms, one more call each per run."""
    sizes = [1 << (8 * len(r) - 1).bit_length() for r in rs]
    caps = [max(4096, n) for n in sizes]
    factors: list = [None] * len(rs)
    for n, run in _stacks(sizes):
        values = np.maximum(np.fft.rfft(_spread([-rs[b] for b in run], n)).real, 1e-20)
        cepstrum = np.fft.irfft(np.log(values), n)
        leaving = []
        for i, (b, row) in enumerate(zip(run, cepstrum)):
            if n >= caps[b] or not np.abs(row[n // 4:n // 2]).max() > 1e-14:
                # the analytic half of the cepstrum
                row[0] /= 2.0
                row[n // 2:] = 0.0
                leaving.append(i)
            else:
                sizes[b] = 2 * n
        if leaving:
            half = cepstrum if len(leaving) == len(run) else cepstrum[leaving]
            # exp of the one-sided cepstrum's spectrum is Hermitian: a real
            # FFT too
            for i, row in zip(leaving, np.fft.irfft(np.exp(np.fft.rfft(half)), n)):
                factors[run[i]] = row
    return factors


def _fejer_complements(ps: list[np.ndarray]) -> list[np.ndarray]:
    """Real ``g`` with ``P(z)P(1/z) + G(z)G(1/z) = 1`` on the unit circle,
    for each ``p`` of ``ps``.

    Spectral factorisation by FFT (the Weiss / log-Hilbert construction):
    ``R = 1 - P(z)P(1/z)`` equals ``4 sin^2(theta) R~`` once the pinned
    double zeros at ``z = +-1`` are divided out, with ``R~ > 0`` on the
    circle for an achievable target.  The analytic half of the cepstrum of
    ``log R~`` gives the outer factor ``F`` with ``|F|^2 = R~``; ``G`` is
    ``(1 - z^2) F`` reversed, so its zeros lie inside the disk.  Nothing
    here is gated: the peeled product is exactly unitary, so a complement
    that misses ``|P|^2 + |G|^2 = 1`` can only fail the residual of
    :func:`_certify_angles`, which bounds the realized miss on the whole
    circle.

    The list is one batch: every transform of a grid size, each cepstrum
    doubling step and the exponential's pair (:func:`_outer_factors`), is
    one stacked real FFT, while the products and the deflation stay per
    target, so each ``g`` is bit for bit what it is alone.
    """
    rs = []
    for p in ps:
        r = -np.convolve(p, p[::-1])
        r[len(r) // 2] += 1.0
        rs.append(_deflate_pinned(r))
    # G is (1 - z^2) F reversed, F on the powers 0..m of R~'s -m..m
    return [np.convolve(f[:(len(r) + 1) // 2], [1.0, 0.0, -1.0])[::-1]
            for f, r in zip(_outer_factors(rs), rs)]


def _complemented_cores(ps: list[np.ndarray]) -> list[np.ndarray]:
    """The real row ``(P, G)`` that the peel strips, ``(2 d + 1, 2)``, of
    the core of each completed target ``ps[b]``: ``p`` cut to its effective
    degree ``d``, with ``G`` from :func:`_fejer_complements`, one batch for
    every live core.  Harmonics at rounding level would make the complement
    factor noise.  A target with no live harmonic beyond 0 is the identity,
    an empty row; a live one keeps a core of degree at least 2, because a
    length-2 core with ``A(0) = 1`` realizes only ``C = 0``."""
    rows, live, cores = [], [], []
    for b, p in enumerate(ps):
        d = (len(p) - 1) // 2
        content = _fold(np.abs(p))[0]       # |p_l| + |p_-l|, |p_0| once
        alive = np.nonzero(content[1:] > 1e-13 * max(float(content.max()), 1.0))[0]
        d_eff = min(max(int(alive[-1]) + 1, 2), d) if len(alive) else 0
        core = p[d - d_eff:d + d_eff + 1] if d_eff else p[:0]
        row = np.empty((len(core), 2))
        row[:, 0] = core
        rows.append(row)
        if d_eff:
            live.append(b)
            cores.append(core)
    for b, g in zip(live, _fejer_complements(cores)):
        rows[b][:, 1] = g
    return rows


# Every coefficient of a stack of rows but the last, and but the first: the
# index tuples are made once, as each costs about as much as the slicing
_BUT_LAST = (slice(None), slice(None, -1))
_BUT_FIRST = (slice(None), slice(1, None))


def _solve_layer_peel(rows: list[np.ndarray], lengths: list[int]) -> list[np.ndarray]:
    """The angles of every row ``rows[b]`` of :func:`_complemented_cores`,
    ``lengths[b]`` of them, by stripping one layer at a time from the real
    row ``(P, G)`` of the core and padding with cancelling pairs up to the
    length, the only place that pads; an empty row is all cancelling pairs.

    Every row runs in one lockstep loop over the layers.  A core of ``2 d +
    1`` coefficients has ``2 d`` layers and has ``j + 1`` coefficients at
    its layer ``j``, so the cores joined at layer ``j`` form one ``(k, j +
    1, 2)`` stack: a core joins at its own first layer, ``j = 2 d``, and no
    row is ever padded, so every row takes the arithmetic it takes alone.
    Each layer reads both end blocks of every row in one call, fills one
    2x2 projector per row in place and adds its step, one stacked ``(j, 2)
    @ (2, 2)`` product, in place to the view of the stack one coefficient
    shorter: only the per-layer call overhead is shared."""
    xis = []
    for L in lengths:
        xi = np.empty(L)
        xi[0::2], xi[1::2] = -np.pi / 2, np.pi / 2
        xis.append(xi)
    live = sorted((b for b in range(len(rows)) if len(rows[b])), key=lambda b: -len(rows[b]))
    if not live:
        return xis
    # the first rows (P, iG) of the half-step Laurent tensors of the
    # completed unitaries, held as real pairs (x, eta) = (P, G): every layer
    # maps a row (x, i eta) with real coefficients to another of that form.
    # Every layer factor lies in SU(2), so the second row is the reversed
    # conjugate of the first, and the end blocks follow from r[0] and r[n].
    # At layer j the stack's rows are its columns lo..lo + j
    stack = np.empty((len(live), len(rows[live[0]]), 2))
    pm = np.empty((len(live), 2, 2))
    # the projectors' entries, row b's at 4b .. 4b + 3: a flat index is a
    # third of the cost of a pair
    entries = pm.reshape(-1)
    joins = [len(rows[b]) - 1 for b in live] + [0]     # each core's first layer
    lo = joined = 0
    # the scalar functions of the per-row loop, looked up once
    atan2, cos, sin, pi = math.atan2, math.cos, math.sin, math.pi
    for j in range(joins[0], 0, -1):
        if joins[joined] == j:
            while joins[joined] == j:
                stack[joined, lo:lo + j + 1] = rows[live[joined]]
                joined += 1
            r = stack[:joined, lo:lo + j + 1]
            projectors = pm[:joined]
            targets = [xis[b] for b in live[:joined]]
        even_slot = j % 2 == 0
        b = 0
        for (x0, eta0), (x1, eta1) in r[:, ::j].tolist():
            # the layer angle t annihilates the top block along (cos, -i
            # sin)(t/2) and the bottom one along (sin, i cos)(t/2), the other
            # way round in an odd slot: eight real rows in (cos, sin)(t/2),
            # whose Gram matrix m is 2 [[e, s], [s, f]] here, 2 [[f, -s],
            # [-s, e]] in an odd slot.  Its null direction makes half the
            # angle atan2(2 m01, m00 - m11) + pi
            e = x1 ** 2 + eta0 ** 2
            f = x0 ** 2 + eta1 ** 2
            if e + f < 1e-26:
                # degree-deficient: every row entry is below 1e-13, any angle cancels
                angle = pi
            else:
                s = x1 * eta1 - x0 * eta0
                angle = (atan2(2.0 * s, e - f) if even_slot else atan2(-2.0 * s, f - e)) + pi
            ca, sa = cos(angle), sin(angle)
            # the rank-1 projector of the layer, 0.5 [[1 - c, -i s], [i s, 1 + c]]
            # on (x, i eta), acting on (x, eta); its complement is 1 - pm
            at = 4 * b
            entries[at] = 0.5 * (1.0 - ca)
            entries[at + 1] = entries[at + 2] = 0.5 * -sa
            entries[at + 3] = 0.5 * (1.0 + ca)
            targets[b][j - 1] = angle if even_slot else angle - pi
            b += 1
        if even_slot:
            kept = r[_BUT_LAST]
            step = (r[_BUT_FIRST] - kept) @ projectors
        else:
            kept = r[_BUT_FIRST]
            step = (r[_BUT_LAST] - kept) @ projectors
            lo += 1
        r = kept
        r += step
    return xis


# ---------------------------------------------------------------------------
# The realized product in coefficient space: a product tree over the factors,
# and the bound on its rounding that makes the residual a certificate.

# The widest node whose products a level forms directly, as fixed-order sums,
# rather than through a real FFT pair.  Timed level by level in the trees of
# 10, 144 and 5578 factors (raw, 1 BLAS thread), the transform pair took 1.8
# to 5.7 times the direct products' time at widths 2 to 5, 0.96 to 2.0 times
# at width 9, and 0.5 to 0.63 times at width 17: below about ten coefficients
# a transform pair is almost all call overhead.
_DIRECT_WIDTH = 9


def _tree_levels(length: int):
    """The levels of the product tree over ``length`` factors (even):
    ``(count, width, n)`` with the node count after padding to even, the
    width of each node's coefficient vectors and the real-FFT size that
    multiplies two of them, the smallest power of two with room for the
    ``2 width - 1`` coefficients of the product."""
    count, width = length, 2
    while count > 1:
        count += count % 2
        yield count, width, 1 << (2 * width - 2).bit_length()
        count, width = count // 2, 2 * width - 1


@functools.lru_cache(maxsize=8)
def _toeplitz_index(width: int) -> np.ndarray:
    """The ``(2 width, 2 (2 width - 1))`` gather table of a direct level,
    read-only: entry ``(j, r k)`` is where the factor of left coefficient
    ``j`` (``x1`` then ``eta1``) in output row ``r`` (``x`` then ``eta``) at
    power ``k`` sits in a right node's block ``(x2, eta2, -rev(eta2),
    rev(x2), 0)``, the final zero where no factor falls."""
    j = np.arange(2 * width)[:, None, None]
    shift = np.arange(2 * width - 1) - j % width
    segment = 2 * (j // width) + np.arange(2)[:, None]
    index = np.where((shift >= 0) & (shift < width), segment * width + shift, 4 * width)
    index = index.reshape(2 * width, 2 * (2 * width - 1))
    index.flags.writeable = False
    return index


def _direct_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The ``(pairs, 2, 2 width - 1)`` products of the ``(pairs, 2, width)``
    nodes ``left`` and ``right``, pair by pair, formed directly: each right
    node's block ``(x2, eta2, -rev(eta2), rev(x2), 0)`` is gathered into
    its Toeplitz matrix through the index table of the width
    (:func:`_toeplitz_index`), and one ``einsum`` of the left node's ``(x1,
    eta1)`` with it gives both output rows, each coefficient one sum of
    ``2 width`` products in a fixed order, the zeros of the band included.
    ``einsum``, unoptimized, adds them in that order whatever the stack,
    unlike BLAS, whose blocking would change a row's bits with the batch."""
    pairs, _, width = left.shape
    block = np.zeros((pairs, 4 * width + 1))
    block[:, :2 * width] = right.reshape(pairs, 2 * width)
    block[:, 2 * width:4 * width] = right[:, ::-1, ::-1].reshape(pairs, 2 * width)
    block[:, 2 * width:3 * width] *= -1.0
    return np.einsum("pj,pjk->pk", left.reshape(pairs, 2 * width),
                     block[:, _toeplitz_index(width)],
                     optimize=False).reshape(pairs, 2, 2 * width - 1)


def _fft_products(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """The products of :func:`_direct_products` by one ``n``-point real FFT
    of six rows per pair and one inverse of its two output rows.  The six
    rows are ``x1, eta1, x2, eta2, -rev(eta2), rev(x2)``, so both output
    rows are one product-sum of their spectra, ``f0 (f2, f3) + f1 (f4,
    f5)``; negation is exact through the transform and the products, so
    this is the same rounding as ``x1 x2 - eta1 rev(eta2)``."""
    width = left.shape[2]
    rows = np.concatenate([left, right, right[:, ::-1, ::-1]], axis=1)
    rows[:, 4] *= -1.0
    f = np.fft.rfft(rows, n)
    return np.fft.irfft(f[:, 0:1] * f[:, 2:4] + f[:, 1:2] * f[:, 4:6], n)[:, :, :2 * width - 1]


def _product_row(xis: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coefficients of the first row ``(x, i eta)`` of the interleaved
    product of each sequence ``xis[b]``, both real, on powers ``-m..m`` in
    steps of 2 of ``w = e^{i theta / 2}``, so on powers ``-m/2..m/2`` of
    ``z`` like a target ``p``.  ``m`` is the smallest power of two at or
    above ``L``; the powers beyond ``L`` come from the identity pads and are
    zero up to rounding.

    Factor ``j``'s first row is ``x = ((1 + c)/2, (1 - c)/2)`` and ``eta =
    (s/2, -s/2)`` on ``(w^-1, w)``, ``(c, s) = (cos, sin)(xi_j)``.  Every
    node lies in SU(2), so its second row is ``(i rev(eta), rev(x))``, with
    ``rev`` the reversal of the powers, and two nodes multiply as ``x = x1 *
    x2 - eta1 * rev(eta2)``, ``eta = x1 * eta2 + eta1 * rev(x2)``.  Each level
    pairs each sequence's nodes, an odd count padded by the exact identity
    node, and multiplies all pairs at once: directly
    (:func:`_direct_products`) while the nodes have at most
    ``_DIRECT_WIDTH`` coefficients, where a transform pair would be almost
    all call overhead, and by one real FFT pair (:func:`_fft_products`)
    above, ``O(L log^2 L)`` in all.

    A level's node width and FFT size depend on the level alone, so every
    sequence's nodes share one stack, longest sequence first, each keeping
    its own pairs and pads: the stack costs one call of the level's steps
    per level of the longest sequence, and each row is rounded as in its
    own tree.  A shorter sequence, which needs no more levels, leaves the
    stack's end when its count reaches one node.
    """
    if not xis:
        return []
    order = sorted(range(len(xis)), key=lambda b: -len(xis[b]))
    counts = [len(xis[b]) for b in order]
    xi = np.concatenate([xis[b] for b in order])
    c, s = np.cos(xi), np.sin(xi)
    nodes = np.empty((len(xi), 2, 2))
    nodes[:, 0, 0] = 0.5 * (1.0 + c)
    nodes[:, 0, 1] = 0.5 * (1.0 - c)
    nodes[:, 1, 0] = 0.5 * s
    nodes[:, 1, 1] = -0.5 * s
    out: list = [None] * len(xis)
    for _, width, n in _tree_levels(counts[0]):
        odd = [count % 2 for count in counts]
        if 1 in odd:
            identity = np.zeros((1, 2, width))
            identity[0, 0, width // 2] = 1.0
            pieces, end = [], 0
            for count, pad in zip(counts, odd):
                end += count
                pieces.append(nodes[end - count:end])
                if pad:
                    pieces.append(identity)
            nodes = np.concatenate(pieces)
        if width <= _DIRECT_WIDTH:
            nodes = _direct_products(nodes[0::2], nodes[1::2])
        else:
            nodes = _fft_products(nodes[0::2], nodes[1::2], n)
        counts = [(count + 1) // 2 for count in counts]
        while counts and counts[-1] == 1:
            counts.pop()
            out[order[len(counts)]] = (nodes[-1, 0], nodes[-1, 1])
            nodes = nodes[:-1]
    return out


def _fft_error(n: int) -> float:
    """Relative l2 error bound of an ``n``-point FFT, ``n = 2^t`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 24.2): ``t eta /
    (1 - t eta)`` with ``eta = mu + gamma_4 (sqrt(2) + mu)``, for twiddle
    factors correct to ``mu = u``.  pocketfft's radix-4 passes and
    real-input transforms are taken to meet the radix-2 bound."""
    u = _UNIT_ROUNDOFF
    eta = u + 4.0 * u / (1.0 - 4.0 * u) * (math.sqrt(2.0) + u)
    t = math.log2(n)
    return t * eta / (1.0 - t * eta)


@functools.lru_cache(maxsize=256)
def _product_rounding(length: int) -> float:
    """Bound on ``sup |x_computed - x_exact|`` over the circle for the
    product tree of ``length`` factors, to first order in ``u``.

    Each node is a 2x2 matrix function of the SU(2) form ``[[a, b], [-b*,
    a*]]``, whose 2-norm is ``sqrt(|a|^2 + |b|^2)``; a node's rounding enters
    the root multiplied by unitary siblings, unamplified, so the root's
    error is at most the sum over the nodes of each one's sup error, and
    grows about as ``u L``.  By Parseval, a node's rows ``x`` and ``eta``
    have a unit l2 norm together, so the ``2 width`` coefficients of either
    node of a pair have an l1 norm of at most ``sqrt(2 width)``.
    - A leaf: ``cos`` and ``sin`` within 4 ulps, then one rounded sum and
      exact halvings, leave its coefficients within ``3u, 3u, 2u, 2u``:
      ``sqrt(26) u`` in l2, and ``sqrt(2)`` times that in sup.
    - A direct product of two nodes of ``width`` coefficients: each output
      coefficient is a sum of ``2 width`` products taken in order, so it
      errs by at most ``gamma_(2 width)`` times the sum of their absolute
      values (Higham, section 3.1; the zeros of the band are exact).  Summed
      over both output rows, those sums of absolute values are ``(|x1|_1 +
      |eta1|_1) (|x2|_1 + |eta2|_1) <= 2 width``, and the l1 norm of a
      coefficient error bounds it in sup: ``2 width gamma_(2 width)`` per
      node.
    - An FFT product of two nodes at FFT size ``n``: the six forward
      transforms err by ``phi = _fft_error(n)`` relative to ``sqrt(n)``
      times the rows' l2 norms, 1 per node, and at each frequency the
      unitary children carry the error unamplified: ``(1 + sqrt(2)) phi``
      in all once scaled back.  Each output row's two complex products and
      their sum err by ``sqrt(2) gamma_2 + u (1 + sqrt(2) gamma_2)``
      relative to the sum of the products' absolute values, at most 1 by
      Cauchy-Schwarz, and the inverse transform by ``phi``.  The l2 error
      of the ``2 width - 1`` output coefficients, times ``sqrt(2 width -
      1)``, bounds it in sup.

    It depends on ``length`` alone, so each length is computed once.
    """
    u = _UNIT_ROUNDOFF
    gamma2 = 2.0 * u / (1.0 - 2.0 * u)
    products = math.sqrt(2.0) * (math.sqrt(2.0) * gamma2 + u * (1.0 + math.sqrt(2.0) * gamma2))
    total = length * math.sqrt(2.0 * 26.0) * u
    for count, width, n in _tree_levels(length):
        if width <= _DIRECT_WIDTH:
            node = 2 * width * (2 * width * u / (1.0 - 2 * width * u))
        else:
            node = math.sqrt(2 * width - 1) * ((2.0 + math.sqrt(2.0)) * _fft_error(n) + products)
        total += count // 2 * node
    return total


def _check_certifiable(L: int) -> None:
    """Refuse a length that no sequence can certify, before any work: one
    whose product's rounding bound alone, ``_product_rounding(L)``, a lower
    bound on the residual of every length-``L`` sequence, passes the
    residual's tolerance.  That bound never falls as ``L`` grows, and it
    passes from ``L = 515586`` on."""
    rounding = _product_rounding(L)
    if rounding > _RESIDUAL_TOL:
        raise SynthesisError(
            f"angles miss the target: residual at least {rounding:.3g}, the rounding bound of "
            f"any length-{L} product, past the tolerance {_RESIDUAL_TOL:g}")


def solve_angles(ps, lengths) -> list[AngleSequence]:
    """Solve for the angles of each completed Laurent target ``ps[b]`` (odd
    length, degree ``(len(p) - 1) / 2 <= L / 2``) at length ``lengths[b]``
    by layer peeling, gated by :func:`_certify_angles`.

    The batch is solved at once: all cores complemented together, each
    transform of a grid size one stacked call (:func:`_complemented_cores`),
    peeled in one :func:`_solve_layer_peel` and certified in one product
    tree, each sequence bit for bit what it is alone; one target is the
    batch of one, ``solve_angles([p], [L])[0]``.  Raises
    :class:`DomainError` before any work for lists of different lengths and
    for any other target or length.  The residual alone decides: a target
    that no sequence realizes, such as one with ``|P| > 1`` somewhere,
    raises :class:`SynthesisError` from it, the index of the first failing
    target in batch order in its ``target``.
    """
    ps = [np.asarray(q, float) for q in ps]
    lengths = [checked_length("query length", length) for length in lengths]
    if len(ps) != len(lengths):
        raise DomainError(f"one length per target: got {len(ps)} targets "
                          f"and {len(lengths)} lengths")
    for q, length in zip(ps, lengths):
        if q.ndim != 1 or len(q) % 2 == 0 or len(q) - 1 > length:
            raise DomainError(f"a length-{length} sequence cannot realize a target of "
                              f"{q.size} Laurent coefficients")
    return _certify_angles(_solve_layer_peel(_complemented_cores(ps), lengths), ps)


def _certify_angles(xis: list[np.ndarray], ps: list[np.ndarray]) -> list[AngleSequence]:
    """Each solved or loaded sequence ``xis[b]`` with its residual against
    ``ps[b]``, which bounds the product's miss on the whole circle: the l1
    distance of its coefficients (``_product_row``, one tree for every
    sequence) from ``p``, padding included, plus the tree's rounding
    (``_product_rounding``).  Each keeps the row it was certified on, which
    the analytic stage evaluates (``circuit.analytic_stage``).  Raises
    :class:`SynthesisError`, marked with its index, at the first sequence
    whose residual exceeds ``1e-8``."""
    sequences = []
    for xi, p, (x, eta) in zip(xis, ps, _product_row(xis)):
        miss = x.copy()
        k = (len(miss) - len(p)) // 2
        miss[k:k + len(p)] -= p
        # (len + 2) u covers the rounding of the differences and of their sum
        l1 = float(np.abs(miss).sum()) * (1.0 + (len(miss) + 2) * _UNIT_ROUNDOFF)
        residual = l1 + _product_rounding(len(xi))
        if not residual <= _RESIDUAL_TOL:      # a NaN must fail too
            err = SynthesisError(
                f"angles miss the target: residual {residual:.3g}, "
                f"{residual - _RESIDUAL_TOL:.3g} past the tolerance {_RESIDUAL_TOL:g}: the l1 "
                f"distance {l1:.3g} of the product's coefficients plus their rounding")
            err.target = len(sequences)
            raise err
        row = np.empty((len(x), 2))
        row[:, 0], row[:, 1] = x, eta
        sequences.append(AngleSequence(xi=xi, residual=residual, row=row))
    return sequences


# ---------------------------------------------------------------------------
# Shifter assembly and resource selection

def state_error_bound(delta: float) -> float:
    """Certified state error of one shifter application from the truncation
    bound: ``sqrt(2) * (8 delta + sqrt(16 delta (1 - 4 delta)))``.  The
    factored radicand overflows to ``-inf`` rather than raising, so every
    ``delta`` up to ``inf`` gives a bound, ``inf`` beyond the largest float;
    a NaN or negative ``delta`` raises :class:`DomainError`."""
    if not delta >= 0.0:                  # a NaN must fail too
        raise DomainError(f"truncation bound must be >= 0, got {delta}")
    return math.sqrt(2.0) * (8.0 * delta
                             + math.sqrt(max(16.0 * delta * (1.0 - 4.0 * delta), 0.0)))


def controlled_grover(q: np.ndarray) -> np.ndarray:
    """The controlled-Grover block: ``q`` on ancilla 1 after the ancilla
    phase ``e^{-i pi Z/4}``, ancilla first."""
    dim = len(q)
    cq = np.eye(2 * dim, dtype=complex)
    cq[dim:, dim:] = q
    # cq @ kron(diag(e^{-i pi/4}, e^{i pi/4}), 1): the phase scales the columns
    return cq * np.repeat([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)], dim)


def apply_shifter(xi: np.ndarray, wq: np.ndarray, columns: np.ndarray,
                  powers) -> dict[int, np.ndarray]:
    """The shifter of the angles ``xi`` around each of the ``m``
    controlled-Grover blocks ``wq``, ``(m, 2d, 2d)``, raised to every power
    ``s`` of ``powers`` and applied to ``columns``, ``(m, 2d, k)``: ``{s:
    (m, 2d, k) columns}``, each slice along ``m`` bit for bit its own
    call's.  ``powers`` must be integers at least 1, strictly ascending,
    and at least one, else :class:`DomainError` before any work.

    The shifter is the product over slots ``j`` of ``rx(a_j) W_j rx(-a_j)``
    on the ancilla, with ``W_j = wq^dagger`` and ``a_j = xi_j + pi`` in odd
    slots (even ``j``), ``W_j = wq`` and ``a_j = xi_j`` in even slots.  Its
    factors are applied right to left to the columns and never multiplied
    out: consecutive x-rotations merge into one, ``rx(a_(j+1) - a_j)``, so
    each slot is one batched product with a 2x2 rotation on the ancilla
    axis and one with a block or its adjoint; where one application of the
    shifter meets the next, its last and first rotations merge too, so one
    pass to the largest ``s`` gives every smaller one on the way."""
    powers = [checked_count("repetition count", s) for s in powers]
    if not powers or any(s <= r for r, s in zip(powers, powers[1:])):
        raise DomainError(f"powers must be strictly ascending, at least one, got {powers}")
    m, dim = wq.shape[0], wq.shape[-1]
    xi = np.asarray(xi, dtype=float)
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
    cols = np.array(columns, dtype=complex)
    turned = np.empty_like(cols)
    # views of the same columns with the ancilla as an axis of its own
    by_ancilla, turned_by_ancilla = cols.reshape(m, 2, -1), turned.reshape(m, 2, -1)
    applied = {}
    for s in range(1, powers[-1] + 1):
        for turn, block in zip(turns, slots):
            np.matmul(turn, by_ancilla, out=turned_by_ancilla)
            np.matmul(block, turned, out=cols)
        turns[0] = wrap
        if s in powers:
            applied[s] = np.matmul(last, by_ancilla).reshape(cols.shape)
    return applied


def build_branch_unitary(spec: PhaseShifterSpec, theta: float) -> np.ndarray:
    """4x4 shifter on ancilla (x) Grover plane at instance angle ``theta``:
    :func:`apply_shifter` on the identity's columns."""
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    wq = controlled_grover(np.array([[c2, -s2], [s2, c2]]))
    return apply_shifter(spec.angles.xi, wq[None], np.eye(4, dtype=complex)[None], [1])[1][0]


_shifter_cache: dict[tuple[float, int], PhaseShifterSpec] = {}


def _named(T: float, L: int, l_solve: int, err: SynthesisError) -> SynthesisError:
    """``err`` prefixed with the shifter's ``T``, ``L`` and solve length."""
    return SynthesisError(f"shifter T={float(T)}, L={int(L)} (solve length {l_solve}): {err}")


def _certified_shifters(keys: list[tuple[float, int]],
                        angles: list[np.ndarray] | None = None) -> list[PhaseShifterSpec]:
    """The one constructor of a :class:`PhaseShifterSpec`, for every
    checked key ``(T, L)`` at once: angles ``angles[b]``, or
    :func:`solve_angles`'s, gated against the target at the solve length
    :func:`_solve_length` of ``L``.  Each key is truncated, then one
    :func:`complete_target` batch completes them all on their own grids,
    and one :func:`solve_angles` batch, or one certificate of the given
    angles, serves them all.  A :class:`SynthesisError` names ``T``, ``L``
    and the solve length of the first key in batch order that failed: a key
    whose truncation fails, or whose ``L``, the length the peel pads to and
    the tree multiplies, cannot certify (:func:`_check_certifiable`), stops
    the batch, and is raised once the keys before it are certified, with no
    solve when none comes before it."""
    names, targets, refused = [], [], None
    for T, L in keys:
        l_solve = _solve_length(T, L)
        names.append((T, L, l_solve))
        try:
            _check_certifiable(L)
            targets.append(truncate_target(T, l_solve))
        except SynthesisError as err:
            refused = err
            break
    ps = complete_target(targets)
    try:
        sequences = (solve_angles(ps, [L for _, L, _ in names[:len(ps)]]) if angles is None
                     else _certify_angles(angles, ps)) if ps else []
        if refused is not None:
            refused.target = len(ps)
            raise refused
    except SynthesisError as err:
        raise _named(*names[err.target], err) from err
    return [PhaseShifterSpec(T=float(T), L=int(L), angles=seq,
                             eps_oc=state_error_bound(target.delta))
            for (T, L, _), seq, target in zip(names, sequences, targets)]


def synthesize_shifters(keys) -> dict[tuple[float, int], PhaseShifterSpec]:
    """Every shifter ``(T, L)`` of ``keys``, by :func:`_certified_shifters`
    in one batch for those not yet cached, keyed by ``(float(T), int(L))``.
    Every key is checked before any work: a strength that is not positive
    and finite or a length that is not a positive even integer raises
    :class:`DomainError`.  Cached per ``(T, L)``; the values are shared."""
    checked = []
    for T, L in keys:
        length = checked_length("query length", L)
        _check_strength(T)
        checked.append((float(T), length))
    todo = [key for key in dict.fromkeys(checked) if key not in _shifter_cache]
    if todo:
        _shifter_cache.update(zip(todo, _certified_shifters(todo)))
    return {key: _shifter_cache[key] for key in checked}


def synthesize_shifter(T: float, L: int) -> PhaseShifterSpec:
    """The batch of one of :func:`synthesize_shifters`."""
    return synthesize_shifters([(T, L)])[float(T), int(L)]


def _shortest_length(T: float, passes, longest: int | None = None) -> int:
    """The shortest even ``L >= 4`` that passes the test ``passes(L)`` for
    strength ``T``, or ``longest`` when no shorter length does.

    The test must keep passing at every longer length once it passes, so
    the passing lengths are every length from the first one up: doubling
    from 4 brackets the first, and bisection finds it in ``O(log L)``
    tests.  With ``longest``, the bracket is ``longest - 2``, so a length
    that nothing shortens costs one test.  Without it, the doubling stops
    at ``2^62``, the longest power of two a signed 64-bit count holds,
    where every log bound is still finite: a strength that fails there
    raises :class:`DomainError`."""
    if longest is not None:
        if longest <= 4 or not passes(longest - 2):
            return longest
        fails, hi = 2, longest - 2
    else:
        fails, hi = 2, 4
        while not passes(hi):
            if hi >= 1 << 62:
                raise DomainError(f"evolution strength {float(T):g} needs a query length "
                                  f"above 2^62, past a signed 64-bit count")
            fails, hi = hi, 2 * hi
    # fails is 2, which the search never returns, or a length that fails
    while hi - fails > 2:
        mid = fails + (hi - fails) // 4 * 2
        if passes(mid):
            hi = mid
        else:
            fails = mid
    return hi


def _solve_length(T: float, L: int) -> int:
    """``L`` cut to the shortest length whose truncation bound is below
    rounding level, ``1e-10``, past which extra layers cannot improve a
    double-precision synthesis.  The bound is at least 4 while ``L/2 + 1 <=
    T/2`` and falls strictly after that, so the test keeps passing."""
    return _shortest_length(T, lambda l: truncation_error_bound(T, l) < 1e-10, longest=L)


def select_L(T: float, eps_oc: float) -> int:
    """The shortest certified length: the shortest even ``L >= 4`` whose
    state error ``state_error_bound(truncation_error_bound(T, L))`` is at
    most ``eps_oc``, by :func:`_shortest_length`.

    Synthesis solves at :func:`_solve_length`, and a length past it
    certifies only the state error there, the floor: a budget below the
    floor raises :class:`DomainError` naming ``T``, the budget, the floor
    and the solve length, so no returned length is cut."""
    _check_strength(T)
    if not 0.0 < eps_oc < 1.0:
        raise DomainError(f"state-error budget must lie in (0, 1), got {eps_oc}")
    L = _shortest_length(T, lambda l: state_error_bound(truncation_error_bound(T, l)) <= eps_oc)
    l_solve = _solve_length(T, L)
    if l_solve < L:
        floor = state_error_bound(truncation_error_bound(T, l_solve))
        raise DomainError(
            f"state-error budget {eps_oc:.3g} at T={float(T):g} is below the floor "
            f"{floor:.3g} that synthesis certifies at its solve length {l_solve}")
    return L


def select_L_empirical(T: float) -> int:
    """Calibrated query length: the even root of the truncation-bound
    equality ``4 T^(x+1) / (2^(x+1) Gamma(x+2)) = BIAS_DELTA_THRESHOLD``,
    solved for real ``x``, with ``L = 2x`` rounded to the nearest even
    integer, at least 4: once ``A(0) = 1`` is pinned, a length-2 sequence
    realizes only ``C = 0``, so no weaker strength can be synthesized at
    ``L = 2``.

    The log bound less the threshold is concave in ``x``, so the nearest
    even root is the first ``L`` with a bound at ``x = L/2 + 1/2`` at or
    below the threshold, and from ``L = 4`` on the test keeps passing:
    :func:`_shortest_length` finds it in ``O(log T)`` evaluations.
    """
    _check_strength(T)
    log_thr = math.log(BIAS_DELTA_THRESHOLD)
    return _shortest_length(T, lambda l: _log_truncation_bound(T, l / 2 + 1.5) <= log_thr)


# ---------------------------------------------------------------------------
# Plain-text serialization

def save_angles(path, spec: PhaseShifterSpec) -> None:
    """Write ``T L convention residual`` then one angle per line (%.17g)."""
    lines = ["%.17g %d Wz %.17g" % (spec.T, spec.L, spec.angles.residual)]
    lines += ["%.17g" % v for v in spec.angles.xi]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_angles(path) -> PhaseShifterSpec:
    """Inverse of :func:`save_angles`, re-certified by synthesis's own
    constructor: a clean file round-trips bit for bit, its residual
    recomputed; the header's need only be finite and ``>= 0``.  Angles
    missing the header's ``T`` raise :class:`SynthesisError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"angle file {path} is empty")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"angle file {path} needs the header 'T L convention residual', "
                         f"got {len(header)} fields")
    t_str, l_str, convention, res_str = header
    if convention != "Wz":
        raise ValueError(f"angle file {path} uses convention {convention!r}, expected 'Wz'")
    try:
        T, L, residual = float(t_str), int(l_str), float(res_str)
        xi = np.array([float(v) for v in lines[1:]])
    except ValueError as err:
        raise ValueError(f"angle file {path} holds a field that is not a number: {err}") from err
    if len(xi) != L:
        raise ValueError(f"angle file {path} holds {len(xi)} angles, header says {L}")
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"angle file {path} holds a non-finite angle")
    if not 0.0 <= residual < math.inf:     # a NaN must fail too
        raise ValueError(f"angle file {path} needs a finite residual >= 0, got {res_str}")
    try:
        checked_length("query length", L)
        _check_strength(T)
        return _certified_shifters([(T, L)], [xi])[0]
    except (DomainError, SynthesisError) as err:
        raise type(err)(f"angle file {path}: {err}") from err
