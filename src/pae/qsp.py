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
   vector is the target's only form from here to the peel.
2. ``complete_target``: adjust ``p`` in one closed-form pass so that
   ``P(z) = sum_k p_k z^k`` is exactly achievable (``P(1) = 1`` and
   ``|P| <= 1`` on the circle), staying within ``8*delta`` of the target.
   ``|P|^2`` is evaluated on the certification grid twice, to measure the
   overshoot and to certify the result: by Horner's rule in place on its
   4096 Chebyshev points, and by one FFT of the coefficients, folded mod
   the grid size, on its 8192 uniform points.  Memory stays linear in the
   grid and independent of ``L``; the constant grids are built on first use.
3. ``solve_angles``: find the ``L`` rotation angles whose interleaved
   product realizes ``P`` by layer peeling alone: complete ``P`` to a
   unitary with the complementary polynomial ``G``
   (``|P|^2 + |G|^2 = 1``, one FFT spectral factorisation, no root finding;
   its arrays are real or Hermitian, so every transform is a real FFT, and
   the pair is certified on 1024 uniform points by FFT) and strip one
   degree at a time.  Only the first row ``(P, iG)`` of the
   Laurent tensor is kept, since the second is its reversed conjugate; each
   layer's angle comes in closed form from the two end blocks, and each
   strip is one ``(L, 2) @ (2, 2)`` product with the layer's rank-1
   projector, so the peel is ``O(L^2)`` with a small constant.  It runs
   at the target's effective degree (at least 2 for a live target, whose
   core then has length 4) and pads with cancelling pairs up to ``L``, the
   only place that pads; a target that is the identity up to rounding is
   all cancelling pairs.  The residual check covers the returned sequence,
   pads included, and evaluates the realized product (``rotation_product``)
   in closed form: every factor lies in SU(2), so only the first row is
   tracked, elementwise over the grid.
4. On the Grover eigenphase ``e^{+-2i theta}`` the shifter acts on the
   ancilla as ``rotation_product(xi, pi/2 +- 2 theta)``, which the analytic
   backend evaluates.  ``interleaved_shifter``, independent of it so that
   the backends check each other, builds the product around a
   controlled-Grover block of any size for the statevector backend and
   ``build_branch_unitary``, with all ``2L`` x-rotations in one pass.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core_model import DomainError

# Bias threshold on the truncation error that keeps the measurement-probability
# bias of a single (P=1, S=1) shifter at or below 0.05.
BIAS_DELTA_THRESHOLD = 3.813e-5

_SOLVE_GRID = 1024
_CERT_GRID = 4096
_RESIDUAL_TOL = 1e-8
_COMPLEMENT_TOL = 1e-11
_COMPLEMENT_GRID = 1024


class SynthesisError(RuntimeError):
    """Raised when completion or angle solving cannot meet its contract."""


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
    """Rotation angles realizing a completed Laurent target."""

    xi: np.ndarray
    residual: float = 0.0

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
    """``n`` Chebyshev-distributed angles in ``(0, 2*pi)``."""
    j = np.arange(n)
    return np.pi * (1.0 - np.cos(np.pi * (2 * j + 1) / (2 * n)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _cert_grid() -> tuple[np.ndarray, np.ndarray]:
    """The completion's certification angles, built on first use: the
    Chebyshev points, then ``2 * _CERT_GRID`` uniform ones; with ``e^{i theta}``
    on the Chebyshev part, the only part evaluated by Horner's rule."""
    cheb = chebyshev_grid(_CERT_GRID)
    thetas = np.concatenate([cheb, np.linspace(0.0, 2.0 * np.pi, 2 * _CERT_GRID,
                                               endpoint=False)])
    return _frozen(thetas), _frozen(np.exp(1j * cheb))


@functools.cache
def _solve_grid() -> tuple[np.ndarray, np.ndarray]:
    """The Chebyshev angles of the residual check and their ``e^{i theta}``."""
    thetas = chebyshev_grid(_SOLVE_GRID)
    return _frozen(thetas), _frozen(np.exp(1j * thetas))


def truncation_error_bound(T: float, L: int) -> float:
    """Certified sup-norm bound ``4 T^(L/2+1) / (2^(L/2+1) (L/2+1)!)``,
    evaluated in log space; beyond the largest float it is ``inf``."""
    if T == 0:
        return 0.0
    h = L // 2 + 1
    log_bound = math.log(4.0) + h * math.log(abs(T) / 2.0) - math.lgamma(h + 1)
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
    r = np.empty(n)
    ratio = 0.0
    for k in range(n, 0, -1):
        ratio = T / (2.0 * k - T * ratio)
        r[k - 1] = ratio
    scaled = np.cumprod(r)                      # J_k / J_0 for k = 1..n
    j = np.concatenate([[1.0], scaled[:d]])
    return j / (1.0 + 2.0 * np.sum(scaled[1::2]))


def _check_strength(T: float) -> None:
    if not 0.0 < T < math.inf:          # a NaN must fail too
        raise DomainError(f"evolution strength must be positive and finite, got {T}")


def truncate_target(T: float, L: int) -> TruncatedTarget:
    """Truncate the Bessel expansion of the phase target at harmonic L/2."""
    _check_strength(T)
    if L < 2 or L % 2:
        raise DomainError(f"query length must be a positive even integer, got {L}")
    d = L // 2
    j = _bessel_j(float(T), d)
    p = np.concatenate([j[::-1], j[1:]])
    p[d + 1::2] *= -1.0
    return TruncatedTarget(T=float(T), L=int(L), coeffs=p,
                           delta=truncation_error_bound(T, L))


def _fejer_kernel_even(d: int) -> np.ndarray:
    """Laurent vector on powers ``-d..d`` of a nonnegative series on the
    harmonics {0, 2, .., 2*(d//2)} that is exactly 1 at theta in {0, pi}
    and decays in between."""
    dp = d // 2
    r = np.arange(-dp, dp + 1)
    g = np.zeros(2 * d + 1)
    g[d + 2 * r] = (dp + 1 - np.abs(r)) / (dp + 1) ** 2
    return g


def _cert_modulus2(p: np.ndarray) -> np.ndarray:
    """``|P|^2`` on the certification grid, in the order of its angles:
    Horner's rule on the Chebyshev points, one FFT on the uniform ones."""
    z = _cert_grid()[1]
    return np.concatenate([np.abs(_laurent_values(p, z)) ** 2,
                           np.abs(_uniform_values(p, 2 * _CERT_GRID)) ** 2])


def _fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and ``i``-sine coefficients of harmonics ``0..d`` of ``p``:
    ``p_l + p_-l`` (``p_0`` counted once) and ``p_l - p_-l``."""
    d = (len(p) - 1) // 2
    cos_part = p[d:].copy()
    cos_part[1:] += p[d - 1::-1]
    return cos_part, p[d:] - p[d::-1]


def complete_target(target: TruncatedTarget) -> np.ndarray:
    """Adjust the truncated Laurent vector into an exactly achievable one.

    Returns ``p`` on powers ``-L/2..L/2`` whose ``P(e^{i theta})``
    approximates ``exp(-i T sin(theta))``, with ``P(1) = 1`` and
    ``|P| <= 1`` on the certification grid, in one pass: a global rescale
    by the measured overshoot plus a margin, then an even-harmonic kernel
    shift restoring ``P(1) = 1`` without lifting the off-zero maxima.  If
    the truncation tail leaves ``|P|^2`` with positive curvature ``curv`` at
    ``theta = 0``, ``mu`` moved from ``z^0`` to ``z^{+-l2}`` lowers it by
    exactly ``mu l2^2`` without moving ``P(1)``, so ``mu = 1.5 curv / l2^2``
    makes it ``-curv / 2``.  ``P(1)`` and the curvature are summed over the
    folded harmonics, where the odd ones cancel exactly.
    """
    if target.delta >= 1.0:
        raise SynthesisError(f"truncation bound {target.delta:.3g} >= 1; increase L")
    d = target.L // 2
    l2 = 2 * (d // 2)
    p = target.coeffs
    m = max(0.0, float(np.max(_cert_modulus2(p))) - 1.0)
    kernel = _fejer_kernel_even(d)
    # a small interior margin keeps |P|^2 strictly below 1 away from the
    # pinned points, so the later spectral factorization never meets
    # degenerate zeros on the unit circle; capped at 4*delta to stay inside
    # the completion's 8*delta budget
    extra = min(4.0 * target.delta, max(0.5 * target.delta, 1e-7))
    s = 1.0 + m + extra

    def shifted(mu: float) -> np.ndarray:
        # mu goes in before the kernel shift, whose coefficient it leaves
        # unchanged up to rounding; at mu = 0 both updates are exact no-ops
        p2 = p / s
        p2[[d - l2, d + l2]] += mu / 2.0
        p2[d] -= mu
        return p2 + (1.0 - np.sum(_fold(p2)[0])) * kernel

    p2 = shifted(0.0)
    if l2 >= 2:
        ls = np.arange(d + 1)
        cos_part, sin_part = _fold(p2)
        curv = -np.sum(cos_part * ls ** 2) + np.sum(sin_part * ls) ** 2
        if curv > 0.0:
            p2 = shifted(1.5 * curv / l2 ** 2)
    # the Chebyshev grid is sparsest near theta = pi, where the pair is
    # pinned at 1; the uniform points catch between-node overshoots there
    gg = _cert_modulus2(p2)
    ip = int(np.argmax(gg))
    over = float(gg[ip]) - 1.0
    if not over <= 1e-12:                 # a NaN must fail too
        raise SynthesisError(
            f"completion failed for T={target.T}, L={target.L}: |P|^2 exceeds 1 "
            f"by {over:.3g} at theta={float(_cert_grid()[0][ip]):.6f}")
    return p2


# ---------------------------------------------------------------------------
# Interleaved-product evaluation (per-eigenphase 2x2 picture)

def rotation_product(xi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The per-eigenphase 2x2 product of the interleaved angle sequence.

    Factor ``j`` is ``exp(-i s theta/2 (cos(alpha) Z - sin(alpha) Y))``,
    where odd slots (even ``j``) carry the adjoint step, ``alpha = xi_j + pi``
    and ``s = -1``, and even slots ``alpha = xi_j``, ``s = +1``.  Each factor
    is ``[[p, q], [-q, conj(p)]]`` with ``p = cos(h) - i sin(h) cos(alpha)``
    and real ``q = sin(h) sin(alpha)``, ``h = s theta/2``, so the product
    stays in SU(2) and only its first row ``(x, y)`` is tracked, by
    elementwise updates over the grid.
    """
    xi = np.asarray(xi, dtype=float)
    half = np.asarray(thetas, dtype=float) / 2.0
    ch, sh = np.cos(half), np.sin(half)
    adjoint = np.arange(len(xi)) % 2 == 0
    sign = np.where(adjoint, -1.0, 1.0)
    alpha = np.where(adjoint, xi + np.pi, xi)
    x = np.ones(len(half), dtype=complex)
    y = np.zeros(len(half), dtype=complex)
    for s, ca, sa in zip(sign, np.cos(alpha), np.sin(alpha)):
        sz = s * sh
        p = ch - 1j * (sz * ca)
        q = sz * sa
        x, y = x * p - y * q, x * q + y * p.conj()
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

def _laurent_values(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_k p_k z^k`` by Horner's rule, updated in place: one array of the
    grid's size is alive, where a power or trig table would be ``len(p)``
    times larger."""
    y = np.full(z.shape, p[-1], dtype=complex)
    for coeff in p[-2::-1]:
        y *= z
        y += coeff
    return y


def _uniform_values(p: np.ndarray, n: int) -> np.ndarray:
    """``P(e^{2 pi i j / n})``, ``j = 0..n-1``, of the Laurent vector ``p`` on
    powers ``-d..d`` by one inverse FFT.  Powers congruent mod ``n`` meet on
    the grid, so the coefficients are summed into their residues first."""
    d = (len(p) - 1) // 2
    folded = np.bincount(np.arange(-d, d + 1) % n, weights=p, minlength=n)
    return n * np.fft.ifft(folded)


def _deflate_pinned(r: np.ndarray) -> np.ndarray:
    """``r`` (ascending powers) divided by ``(z - 1)^2 (z + 1)^2``, by
    synthetic division from the top: at the root ``+1`` the quotient is a
    running sum, at ``-1`` that of the sign-alternated coefficients with the
    signs put back.  Sign flips are exact and ``cumsum`` adds in order, so
    every quotient coefficient is rounded as in the scalar recurrence."""
    c = r[::-1]
    for root in (1.0, 1.0, -1.0, -1.0):
        sign = root ** np.arange(len(c) - 1)
        c = sign * np.cumsum(sign * c[:-1])
    return c[::-1]


def _fejer_complement(p: np.ndarray) -> np.ndarray:
    """Real ``g`` with ``P(z)P(1/z) + G(z)G(1/z) = 1`` on the unit circle.

    Spectral factorisation by FFT (the Weiss / log-Hilbert construction):
    ``R = 1 - P(z)P(1/z)`` equals ``4 sin^2(theta) R~`` once the pinned
    double zeros at ``z = +-1`` are divided out, with ``R~ > 0`` on the
    circle for an achievable target.  The analytic half of the cepstrum of
    ``log R~`` gives the outer factor ``F`` with ``|F|^2 = R~``; ``G`` is
    ``(1 - z^2) F`` reversed, so its zeros lie inside the disk.  Raises
    :class:`SynthesisError` rather than return a factor that misses
    ``|P|^2 + |G|^2 = 1`` by more than ``_COMPLEMENT_TOL``.
    """
    d = (len(p) - 1) // 2
    r = -np.convolve(p, p[::-1])
    r[2 * d] += 1.0
    r = _deflate_pinned(r)
    m = (len(r) - 1) // 2                # R~ on powers -m..m
    # eight grid points per coefficient keep the aliased cepstrum tail at
    # rounding level
    n = max(4096, 1 << (8 * len(r) - 1).bit_length())
    spread = np.zeros(n)
    spread[np.arange(-m, m + 1) % n] = -r
    # spread is real and symmetric, so its spectrum and the cepstrum are
    # real, and exp of the one-sided cepstrum's spectrum is Hermitian: every
    # transform is a real FFT over the half spectrum.
    # R~ dips below zero only by rounding where 1 - |P|^2 is itself at
    # rounding level; clamping the dips changes |G|^2 by that much, and the
    # certificate below still rejects a truly infeasible target (|P| > 1)
    values = np.maximum(np.fft.rfft(spread).real, 1e-20)
    cepstrum = np.fft.irfft(np.log(values), n)
    cepstrum[0] /= 2.0
    cepstrum[n // 2:] = 0.0
    f = np.fft.irfft(np.exp(np.fft.rfft(cepstrum)), n)[: m + 1]
    g = np.convolve(f, [1.0, 0.0, -1.0])[::-1]
    err = float(np.max(np.abs(np.abs(_uniform_values(p, _COMPLEMENT_GRID)) ** 2
                              + np.abs(_uniform_values(g, _COMPLEMENT_GRID)) ** 2 - 1.0)))
    if not err <= _COMPLEMENT_TOL:        # a NaN must fail too
        raise SynthesisError(
            f"complement of degree {d} misses |P|^2 + |G|^2 = 1 by {err:.3g}")
    return g


def _solve_layer_peel(p: np.ndarray, L: int) -> np.ndarray:
    # peel at the effective degree and pad with cancelling pairs up to L:
    # harmonics at rounding level would make the complement factor noise.
    # A target with no live harmonic beyond 0 is the identity, all
    # cancelling pairs; a live one keeps a core of length at least 4,
    # because a length-2 core with A(0) = 1 realizes only C = 0
    d = (len(p) - 1) // 2
    content = _fold(np.abs(p))[0]       # |p_l| + |p_-l|, |p_0| once
    alive = np.nonzero(content[1:] > 1e-13 * max(float(np.max(content)), 1.0))[0]
    d_eff = min(max(int(alive[-1]) + 1, 2), d) if len(alive) else 0
    xi = np.tile([-np.pi / 2, np.pi / 2], L // 2)
    if not d_eff:
        return xi
    p = p[d - d_eff:d + d_eff + 1]
    # first row (P, iG) of the half-step Laurent tensor of the completed
    # unitary.  Every layer factor lies in SU(2), so the second row is the
    # reversed conjugate of the first, u[n-k, 1] = (-conj(y_k), conj(x_k)),
    # and the end blocks u[0] and u[n] follow from r[0] and r[n] alone
    r = np.empty((len(p), 2), dtype=complex)
    r[:, 0] = p
    r[:, 1] = 1j * _fejer_complement(p)
    for j in range(2 * d_eff, 0, -1):
        (x0, y0), (x1, y1) = r[0].tolist(), r[-1].tolist()
        even_slot = j % 2 == 0
        # the layer angle t annihilates the top block along (cos, -i sin)(t/2)
        # and the bottom one along (sin, i cos)(t/2), the other way round in
        # an odd slot: eight real rows in (cos, sin)(t/2), whose Gram matrix
        # m is 2 [[e, s], [s, f]] here, 2 [[f, -s], [-s, e]] in an odd slot.
        # Its null direction makes half the angle atan2(2 m01, m00 - m11) + pi
        e = abs(x1) ** 2 + abs(y0) ** 2
        f = abs(x0) ** 2 + abs(y1) ** 2
        if e + f < 1e-26:
            # degree-deficient: every row entry is below 1e-13, any angle cancels
            angle = np.pi
        else:
            s = (x1.conjugate() * y1).imag - (x0.conjugate() * y0).imag
            angle = (math.atan2(2.0 * s, e - f) if even_slot
                     else math.atan2(-2.0 * s, f - e)) + np.pi
        ca, sa = math.cos(angle), math.sin(angle)
        # the rank-1 projector of the layer; its complement is 1 - pm
        pm = 0.5 * np.array([[1.0 - ca, -1j * sa], [1j * sa, 1.0 + ca]])
        if even_slot:
            xi[j - 1] = angle
            r = r[:-1] + (r[1:] - r[:-1]) @ pm
        else:
            xi[j - 1] = angle - np.pi
            r = r[1:] + (r[:-1] - r[1:]) @ pm
    return xi


def solve_angles(p: np.ndarray, L: int) -> AngleSequence:
    """Solve for the ``L`` angles realizing a completed Laurent target ``p``
    (odd length, degree ``(len(p) - 1) / 2 <= L / 2``) by layer peeling.

    Raises :class:`DomainError` for any other ``p`` or ``L``, and
    :class:`SynthesisError` when the realized sequence, padding included,
    misses the target by more than ``1e-8`` on the solving grid.
    """
    if L < 2 or L % 2:
        raise DomainError(f"query length must be a positive even integer, got {L}")
    p = np.asarray(p, float)
    if p.ndim != 1 or len(p) % 2 == 0 or len(p) - 1 > L:
        raise DomainError(f"a length-{L} sequence cannot realize a target of "
                          f"{p.size} Laurent coefficients")
    xi = _solve_layer_peel(p, L)
    thetas, z = _solve_grid()
    target = _laurent_values(p, z) * z ** (-((len(p) - 1) // 2))
    residual = float(np.max(np.abs(rotation_product(xi, thetas)[:, 0, 0] - target)))
    if residual > _RESIDUAL_TOL:
        raise SynthesisError(
            f"layer-peel solver did not converge for L={L}: residual {residual:.3g}")
    return AngleSequence(xi=xi, residual=residual)


# ---------------------------------------------------------------------------
# Shifter assembly and resource selection

def state_error_bound(delta: float) -> float:
    """Certified state error of one shifter application from the truncation
    bound: ``sqrt(2) * (8 delta + sqrt(16 delta - 64 delta^2))``."""
    if delta == math.inf:
        return math.inf
    return math.sqrt(2.0) * (8.0 * delta + math.sqrt(max(16.0 * delta - 64.0 * delta ** 2, 0.0)))


def controlled_grover(q: np.ndarray) -> np.ndarray:
    """The controlled-Grover block: ``q`` on ancilla 1 after the ancilla
    phase ``e^{-i pi Z/4}``, ancilla first."""
    dim = len(q)
    cq = np.eye(2 * dim, dtype=complex)
    cq[dim:, dim:] = q
    rz = np.kron(np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]), np.eye(dim))
    return cq @ rz


def interleaved_shifter(xi: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Shifter product of the angles ``xi`` around the controlled-Grover
    block ``wq``: odd slots hold ``wq^dagger``, even slots ``wq``, each
    conjugated by an x-rotation of the ancilla.

    All ``2L`` ancilla x-rotations are built in one vectorised pass: the
    ``(2L, 2, 2)`` stack from the angle vector, lifted to the system size
    by one ``einsum`` with the identity."""
    dim = len(wq) // 2
    wq_dag = wq.conj().T
    xi = np.asarray(xi, dtype=float)
    odd = xi[0::2] + np.pi
    # per pair: rx(odd), rx(-odd), rx(even), rx(-even)
    half = np.stack([odd, -odd, xi[1::2], -xi[1::2]], axis=1).reshape(-1) / 2
    ch, sh = np.cos(half), np.sin(half)
    r2 = np.empty((len(half), 2, 2), dtype=complex)
    r2[:, 0, 0] = r2[:, 1, 1] = ch
    r2[:, 0, 1] = r2[:, 1, 0] = -1j * sh
    rots = np.einsum("nab,ij->naibj", r2, np.eye(dim)).reshape(-1, 4, 2 * dim, 2 * dim)
    v = np.eye(2 * dim, dtype=complex)
    for r_odd, r_odd_inv, r_even, r_even_inv in rots:
        v = v @ (r_odd @ wq_dag @ r_odd_inv) @ (r_even @ wq @ r_even_inv)
    return v


def build_branch_unitary(spec: PhaseShifterSpec, theta: float) -> np.ndarray:
    """4x4 shifter on ancilla (x) Grover plane at instance angle ``theta``."""
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    return interleaved_shifter(spec.angles.xi,
                               controlled_grover(np.array([[c2, -s2], [s2, c2]])))


def ideal_branch_unitary(T: float, phi: float) -> np.ndarray:
    """The exact relative phase shifter ``diag(e^{-iT phi/2}, e^{+iT phi/2})``
    on the ancilla, identity on the Grover plane."""
    return np.kron(np.diag([np.exp(-0.5j * T * phi), np.exp(0.5j * T * phi)]),
                   np.eye(2)).astype(complex)


_shifter_cache: dict[tuple[float, int], PhaseShifterSpec] = {}


def synthesize_shifter(T: float, L: int | None = None,
                       eps_oc: float | None = None) -> PhaseShifterSpec:
    """End-to-end synthesis: pick ``L`` if absent, truncate, complete, solve.

    Results are cached per ``(T, L)``; the returned value is shared.
    """
    _check_strength(T)
    if L is None:
        L = select_L(T, eps_oc) if eps_oc is not None else select_L_empirical(T)
    key = (float(T), int(L))
    if key not in _shifter_cache:
        # beyond the length where the truncation bound reaches rounding
        # level, extra layers cannot improve a double-precision synthesis;
        # truncate there and let the peel pad up to L.  A failed solve raises.
        l_solve = L
        while l_solve > 4 and truncation_error_bound(T, l_solve - 2) < 1e-10:
            l_solve -= 2
        target = truncate_target(T, l_solve)
        angles = solve_angles(complete_target(target), L)
        _shifter_cache[key] = PhaseShifterSpec(
            T=float(T), L=int(L), angles=angles,
            eps_oc=state_error_bound(target.delta))
    return _shifter_cache[key]


def select_L(T: float, eps_oc: float) -> int:
    """Smallest even integer at or above ``e^2 T + 4 ln(1/eps_oc) + 10``."""
    _check_strength(T)
    if not 0.0 < eps_oc < 1.0:
        raise DomainError(f"state-error budget must lie in (0, 1), got {eps_oc}")
    raw = math.e ** 2 * T + 4.0 * math.log(1.0 / eps_oc) + 10.0
    # the 1e-9 slack keeps boundary values (raw at an even integer up to
    # floating-point noise) from being bumped a full step
    return 2 * math.ceil(raw / 2.0 - 1e-9)


def minimal_query_length(T: float, threshold: float = BIAS_DELTA_THRESHOLD) -> int:
    """Even query length from the truncation-bound equality at ``threshold``.

    Solves ``4 T^(x+1) / (2^(x+1) Gamma(x+2)) = threshold`` for real ``x``
    and rounds ``L = 2x`` to the nearest even integer, at least 4: once
    ``A(0) = 1`` is pinned, a length-2 sequence realizes only ``C = 0``, so
    no weaker strength can be synthesized at ``L = 2``.
    """
    _check_strength(T)
    # h(x) = log(bound at L = 2x) - log(threshold) is concave in x, so the
    # first integer n with h(n + 1/2) <= 0 is its root rounded to nearest
    log_thr = math.log(threshold)
    n = 0
    while (math.log(4.0) + (n + 1.5) * math.log(T / 2.0) - math.lgamma(n + 2.5)
           > log_thr):
        n += 1
    return max(4, 2 * n)


def select_L_empirical(T: float) -> int:
    """Calibrated query length: bound equality below ``T = 10``, the linear
    fit ``L = 2.72 T + 13.64`` (rounded up to even) at or above it."""
    _check_strength(T)
    if T >= 10.0:
        return 2 * math.ceil((2.72 * T + 13.64) / 2.0)
    return minimal_query_length(T)


# ---------------------------------------------------------------------------
# Plain-text serialization

def save_angles(path, spec: PhaseShifterSpec) -> None:
    """Write ``T L convention residual`` then one angle per line (%.17g)."""
    lines = ["%.17g %d Wz %.17g" % (spec.T, spec.L, spec.angles.residual)]
    lines += ["%.17g" % v for v in spec.angles.xi]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_angles(path) -> PhaseShifterSpec:
    """Inverse of :func:`save_angles`; round-trips bit-exactly."""
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
        raise ValueError(f"angle file uses convention {convention!r}, expected 'Wz'")
    T, L = float(t_str), int(l_str)
    _check_strength(T)
    if L < 2 or L % 2:
        raise ValueError(f"angle file needs an even query length >= 2, header says {L}")
    xi = np.array([float(v) for v in lines[1:]])
    if len(xi) != L:
        raise ValueError(f"angle file holds {len(xi)} angles, header says {L}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("angle file holds a non-finite angle")
    angles = AngleSequence(xi=xi, residual=float(res_str))
    return PhaseShifterSpec(T=T, L=L, angles=angles,
                            eps_oc=state_error_bound(truncation_error_bound(T, L)))
