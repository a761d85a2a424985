import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pae import (DomainError, SynthesisError, build_branch_unitary,
                 build_schedule, complete_target, ideal_branch_unitary, load_angles,
                 make_instance, minimal_query_length, realized_functions,
                 save_angles, select_L,
                 select_L_empirical, solve_angles, state_error_bound,
                 synthesize_shifter, truncate_target, truncation_error_bound)
from pae.core_model import build_explicit_oracle, build_grover_unitary
from pae import qsp
from pae.qsp import (_cert_grid, _cert_modulus2, _deflate_pinned, _fejer_complement,
                     _fejer_kernel_even, _fold, _laurent_values, _solve_layer_peel,
                     _uniform_values, chebyshev_grid, controlled_grover, interleaved_shifter,
                     rotation_product)


def bessel_j_series(order, x, terms=40):
    """Independent Bessel evaluation: sum (-1)^m (x/2)^(2m+order) / (m! (m+order)!)."""
    total = 0.0
    for m in range(terms):
        total += ((-1) ** m * (x / 2.0) ** (2 * m + order)
                  / (math.factorial(m) * math.factorial(m + order)))
    return total


def cos_sin(p):
    """Cosine and i-sine coefficients ``p_l + p_-l`` (``p_0`` once) and
    ``p_l - p_-l`` of harmonics ``0..d`` of a Laurent vector."""
    d = (len(p) - 1) // 2
    a = p[d:] + p[d::-1]
    a[0] = p[d]
    return a, p[d:] - p[d::-1]


class TestTruncateTarget:
    def test_tiny_strength(self):
        a, c = cos_sin(truncate_target(1e-14, 6).coeffs)
        assert a[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(a[1:])) <= 1e-13
        assert np.max(np.abs(c)) <= 1e-13

    def test_delta_bound_value(self):
        # 4 * 1 / (2^6 * 6!) for T=1, L=10
        t = truncate_target(1.0, 10)
        assert t.delta == pytest.approx(4.0 / 46080.0, rel=1e-14)
        assert t.delta == pytest.approx(8.680555555555556e-05, rel=1e-12)

    def test_leading_coefficient_is_j0(self):
        p = truncate_target(1.0, 10).coeffs
        assert p[5] == pytest.approx(bessel_j_series(0, 1.0), abs=1e-14)
        assert p[5] == pytest.approx(0.7651976865579666, abs=1e-13)

    @pytest.mark.parametrize("T", [1e-6, 0.3, 1.0, 2.0, 2.404825557695773, 5.0])
    def test_coefficients_against_series(self, T):
        # Jacobi-Anger: J_l at z^-l and (-1)^l J_l at z^l
        p = truncate_target(T, 14).coeffs
        assert p[7] == pytest.approx(bessel_j_series(0, T), abs=1e-13)
        for l in range(1, 8):
            ref = 2.0 * bessel_j_series(l, T)
            assert 2.0 * p[7 - l] == pytest.approx(ref, abs=1e-13)
            assert 2.0 * p[7 + l] == pytest.approx((-1) ** l * ref, abs=1e-13)

    @pytest.mark.parametrize("T", [1e-300, 1e-15, 1e-6, 2.404825557695773,
                                   3.8317059702075125, 48.0, 256.0, 2048.0])
    def test_coefficients_against_scipy(self, T):
        # the two middle strengths are zeros of J_0 and J_1.  The bound is on
        # J_l itself: at T = 2048 scipy's jv is 3e-14 off the exact values,
        # so 2*jv would miss its own tolerance
        special = pytest.importorskip("scipy.special")
        L = 2 * math.ceil(1.4 * T + 8)             # d = L/2 >= 1.4 T
        p = truncate_target(T, L).coeffs
        a, c = cos_sin(p)
        assert len(p) == L + 1 and np.all(np.isfinite(p))
        assert np.all(a[1::2] == 0.0) and np.all(c[0::2] == 0.0)
        j = p[L // 2::-1]
        assert np.max(np.abs(j - special.jv(np.arange(L // 2 + 1), T))) <= 5e-14

    def test_odd_length_rejected(self):
        with pytest.raises(DomainError):
            truncate_target(1.0, 9)


class TestTruncationBound:
    def test_finite_at_largest_strength(self):
        # the factorial closed form overflowed from T=128/L=362 on
        for T, L in [(128.0, 362), (256.0, 710)]:
            delta = truncation_error_bound(T, L)
            assert math.isfinite(delta) and 0.0 < delta < 1e-4
        assert truncate_target(256.0, 710).delta == truncation_error_bound(256.0, 710)

    def test_beyond_largest_float_is_inf(self, tmp_path):
        # log bound about 1021 at T=2048/L=2000: exp used to raise OverflowError
        assert truncation_error_bound(2048.0, 2000) == math.inf
        assert state_error_bound(math.inf) == math.inf      # was inf - inf = NaN
        path = tmp_path / "angles.txt"
        path.write_text("2048 2000 Wz 0\n" + "0\n" * 2000)
        assert load_angles(path).eps_oc == math.inf

    @pytest.mark.parametrize("T", [0.25, 1.0, 2.0, 8.0, 16.0, 32.0, 48.0])
    def test_matches_closed_form(self, T):
        for L in (2, 10, select_L_empirical(T), 200):
            h = L // 2 + 1
            closed = 4.0 * T ** h / (2.0 ** h * math.factorial(h))
            assert truncation_error_bound(T, L) == pytest.approx(closed, rel=1e-12)


def eval_pair(p, thetas):
    """``(A, C)`` with ``A + iC = P(e^{i theta})``, summed as trig series."""
    a, c = cos_sin(p)
    ls = np.arange(len(a))
    return np.cos(np.outer(thetas, ls)) @ a, np.sin(np.outer(thetas, ls)) @ c


def iterative_completion(target):
    """The completion as a loop of up to 60 passes that repairs a certified
    overshoot by raising ``mu`` or the margin: the reference for the
    closed-form ``complete_target``.  Returns the vector and the number of
    passes it took."""
    if target.delta >= 1.0:
        raise SynthesisError(f"truncation bound {target.delta:.3g} >= 1; increase L")
    thetas = _cert_grid()[0]
    d = target.L // 2
    ls = np.arange(d + 1)
    p = target.coeffs
    m = max(0.0, float(np.max(_cert_modulus2(p))) - 1.0)
    kernel = _fejer_kernel_even(d)
    l2 = 2 * (d // 2)
    extra = min(4.0 * target.delta, max(0.5 * target.delta, 1e-7))
    mu = 0.0
    for passes in range(1, 61):
        s = 1.0 + m + extra
        p2 = p / s
        if l2 >= 2:
            p2[[d - l2, d + l2]] += mu / 2.0
            p2[d] -= mu
        p2 += (1.0 - np.sum(_fold(p2)[0])) * kernel
        if l2 >= 2:
            cos_part, sin_part = _fold(p2)
            curv = -np.sum(cos_part * ls ** 2) + np.sum(sin_part * ls) ** 2
            if curv > 0.0:
                mu += 1.5 * curv / l2 ** 2
                continue
        gg = _cert_modulus2(p2)
        ip = int(np.argmax(gg))
        over = float(gg[ip]) - 1.0
        if over <= 1e-12:
            return p2, passes
        if l2 >= 2 and 1.0 - np.cos(l2 * thetas[ip]) <= 0.5:
            mu += max(1.5 * over / max(1.0 - np.cos(l2 * thetas[ip]), 1e-3), 1e-14)
        else:
            extra += max(over, 1e-12)
    raise SynthesisError(f"completion failed for T={target.T}, L={target.L}")


class TestCompleteTarget:
    @pytest.mark.parametrize("T,L,passes", [
        (1.0, 10, 2), (1.0, 14, 2), (2.0, 14, 2), (3.0, 18, 2),
        (48.0, 146, 1), (256.0, 710, 1)])
    def test_matches_iterative_reference(self, T, L, passes):
        # two passes: the curvature step fired, and its closed form lands
        # on the loop's vector bit for bit
        target = truncate_target(T, L)
        ref, ref_passes = iterative_completion(target)
        assert ref_passes == passes
        assert np.array_equal(complete_target(target), ref)

    def test_fails_where_iterative_reference_fails(self):
        target = truncate_target(0.5, 2)
        with pytest.raises(SynthesisError):
            iterative_completion(target)
        with pytest.raises(SynthesisError, match=r"completion failed .* at theta=\d"):
            complete_target(target)

    def test_near_zero_strength_unchanged(self):
        a, c = cos_sin(complete_target(truncate_target(1e-15, 4)))
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(a[1:])) <= 1e-12
        assert np.max(np.abs(c)) <= 1e-12

    @pytest.mark.parametrize("T,L", [(1, 10), (2, 14), (4, 22), (8, 34)])
    def test_within_8delta_of_exponential(self, T, L):
        target = truncate_target(T, L)
        p = complete_target(target)
        thetas = chebyshev_grid(4096)
        A, C = eval_pair(p, thetas)
        dev = np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(thetas))))
        assert dev <= 8 * target.delta

    @pytest.mark.parametrize("T,L", [(1, 10), (4, 22), (1, 20)])
    def test_feasibility(self, T, L):
        # on both parts of the certification grid: the Chebyshev points and
        # the uniform ones that the completion evaluates by FFT
        p = complete_target(truncate_target(T, L))
        assert np.sum(cos_sin(p)[0]) == pytest.approx(1.0, abs=1e-14)     # A(0) = 1
        for thetas in (chebyshev_grid(4096),
                       np.linspace(0.0, 2 * np.pi, 8192, endpoint=False)):
            A, C = eval_pair(p, thetas)
            assert float(np.max(A * A + C * C)) - 1.0 <= 1e-12    # margin >= 0

    def test_parity_structure(self):
        a, c = cos_sin(complete_target(truncate_target(2.0, 14)))
        assert np.max(np.abs(a[1::2])) == 0.0   # cosine part even harmonics only
        assert np.max(np.abs(c[0::2])) == 0.0   # sine part odd harmonics only


class TestLaurentValues:
    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (256.0, 710)])
    def test_matches_trig_series(self, T, L):
        # on the dyadic grid theta_j = j/128 every l*theta_j is exact, so the
        # direct series is accurate to rounding of its terms
        p = complete_target(truncate_target(T, L))
        thetas = np.arange(1024) / 128.0
        z = np.exp(1j * thetas)
        got = _laurent_values(p, z) * z ** (-(L // 2))
        A, C = eval_pair(p, thetas)
        assert np.max(np.abs(got - (A + 1j * C))) <= 1e-13

    def test_modulus_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        p = complete_target(truncate_target(256.0, 710))
        a, c = cos_sin(p)
        thetas = chebyshev_grid(60)
        got = np.abs(_laurent_values(p, np.exp(1j * thetas))) ** 2
        with mpmath.workdps(40):
            ref = []
            for theta in thetas:
                t = mpmath.mpf(float(theta))
                A = mpmath.fsum(mpmath.mpf(float(v)) * mpmath.cos(l * t) for l, v in enumerate(a))
                C = mpmath.fsum(mpmath.mpf(float(v)) * mpmath.sin(l * t) for l, v in enumerate(c))
                ref.append(float(A * A + C * C))
        assert np.max(np.abs(got - np.array(ref))) <= 1e-12

    def test_synthesis_memory_linear_in_grid(self):
        # the evaluations hold grid-sized arrays only; a (grid, L/2 + 1)
        # trig table at this length would take 133 MiB
        tracemalloc.start()
        try:
            solve_angles(complete_target(truncate_target(512.0, 1408)), 1408)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


def direct_uniform_sum(p, n):
    """``sum_k p_k w^(jk)`` with ``w = e^{2 pi i / n}``, every power taken
    from one table by its exact integer exponent mod ``n``."""
    d = (len(p) - 1) // 2
    k = np.arange(-d, d + 1)
    table = np.exp(2j * np.pi * np.arange(n) / n)
    return np.concatenate([table[np.outer(np.arange(j, j + 128), k) % n] @ p
                           for j in range(0, n, 128)])


class TestUniformValues:
    @pytest.mark.parametrize("n", [1024, 8192])
    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (256.0, 710)])
    def test_matches_horner(self, T, L, n):
        # Horner's phase drifts by the degree times rounding against the
        # exact grid roots, so the moduli, which both callers use, are compared
        p = complete_target(truncate_target(T, L))
        z = np.exp(2j * np.pi * np.arange(n) / n)
        got = np.abs(_uniform_values(p, n))
        assert np.max(np.abs(got - np.abs(_laurent_values(p, z)))) <= 1e-13

    @pytest.mark.parametrize("T,L,n", [
        (1.0, 10, 1024), (1.0, 10, 8192), (48.0, 146, 1024), (48.0, 146, 8192),
        (256.0, 710, 1024), (256.0, 710, 8192), (1024.0, 2800, 1024),
        (2048.0, 5586, 1024)])
    def test_matches_direct_sum(self, T, L, n):
        # L + 1 > n folds several powers onto each grid point: they must be
        # summed, where a plain scatter would keep one of them
        p = truncate_target(T, L).coeffs
        got = _uniform_values(p, n)
        assert np.max(np.abs(got - direct_uniform_sum(p, n))) <= 1e-13


def complex_fft_complement(p):
    """The spectral factor with complex FFTs throughout: the reference for
    the real-FFT construction in ``_fejer_complement``."""
    d = (len(p) - 1) // 2
    r = -np.convolve(p, p[::-1])
    r[2 * d] += 1.0
    r = _deflate_pinned(r)
    m = (len(r) - 1) // 2
    n = max(4096, 1 << (8 * len(r) - 1).bit_length())
    spread = np.zeros(n)
    spread[np.arange(-m, m + 1) % n] = -r
    values = np.maximum(np.fft.fft(spread).real, 1e-20)
    cepstrum = np.fft.ifft(np.log(values))
    cepstrum[0] /= 2.0
    cepstrum[n // 2:] = 0.0
    f = np.fft.ifft(np.exp(np.fft.fft(cepstrum))).real[: m + 1]
    return np.convolve(f, [1.0, 0.0, -1.0])[::-1]


def deflate_loop(coeffs_asc, root):
    """Synthetic division by ``z - root``, one coefficient at a time."""
    c = coeffs_asc[::-1]
    out = np.empty(len(c) - 1, dtype=c.dtype)
    acc = 0.0
    for i in range(len(c) - 1):
        acc = c[i] + acc * root
        out[i] = acc
    return out[::-1]


class TestComplement:
    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (256.0, 710)])
    def test_deflation_matches_division_loop(self, T, L):
        p = complete_target(truncate_target(T, L))
        r = -np.convolve(p, p[::-1])
        r[L] += 1.0
        ref = r
        for root in (1.0, 1.0, -1.0, -1.0):
            ref = deflate_loop(ref, root)
        assert np.array_equal(_deflate_pinned(r), ref)

    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (256.0, 710)])
    def test_matches_complex_fft_reference(self, T, L):
        p = complete_target(truncate_target(T, L))
        g = _fejer_complement(p)
        assert np.max(np.abs(g - complex_fft_complement(p))) <= 1e-14

    @pytest.mark.parametrize("T", [1.0, 64.0, 256.0])
    def test_unit_modulus_pair(self, T):
        # T=64 is where the root-finding complement broke down
        L = select_L_empirical(T)
        p = complete_target(truncate_target(T, L))
        g = _fejer_complement(p)
        d = L // 2
        z = np.exp(1j * np.linspace(0.0, 2 * np.pi, 3001))
        pv = np.polyval(p[::-1], z) * z ** (-d)
        gv = np.polyval(g[::-1], z) * z ** (-d)
        assert len(g) == L + 1
        assert np.max(np.abs(np.abs(pv) ** 2 + np.abs(gv) ** 2 - 1.0)) <= 1e-11

    @pytest.mark.parametrize("T,L", [(1e-7, 4), (0.3, 20)])
    def test_rounding_level_remainder(self, T, L):
        # 1 - |P|^2 is at rounding level here, so R~ dips below zero by
        # rounding: the factor must still certify and the peel converge
        p = complete_target(truncate_target(T, L))
        assert solve_angles(p, L).residual <= 1e-8

    def test_rejects_modulus_above_one(self):
        # A(0) = 1 pins the double zeros at z = +-1, but |P|^2 = 1.28 at pi/2
        p = np.array([0.05, -0.4, 0.9, 0.4, 0.05])      # A = (0.9, 0, 0.1), C = (0, 0.8, 0)
        with pytest.raises(SynthesisError):
            _fejer_complement(p)

    def test_rejects_unpinned_target(self):
        # |P| <= 0.8 < 1, but without the zeros at z = +-1 that the
        # factorisation divides out
        p = np.array([0.15, 0.0, 0.5, 0.0, 0.15])       # A = (0.5, 0, 0.3), C = 0
        with pytest.raises(SynthesisError):
            _fejer_complement(p)


class TestSolveAngles:
    def test_identity_target(self):
        thetas = chebyshev_grid(512)
        seq = solve_angles(np.array([0.0, 1.0, 0.0]), 2)
        A, C = realized_functions(seq.xi, thetas)
        assert np.max(np.hypot(A - 1.0, C)) <= 1e-10
        assert seq.residual <= 1e-10
        assert len(seq) == 2

    def test_pads_beyond_target_degree(self):
        # a degree-5 target in a length-20 sequence: the peel pads with
        # cancelling pairs, and the residual covers the padded sequence
        p = complete_target(truncate_target(1.0, 10))
        seq = solve_angles(p, 20)
        assert len(seq) == 20 and seq.residual <= 1e-8
        assert np.array_equal(seq.xi[10:], np.tile([-np.pi / 2, np.pi / 2], 5))
        assert np.array_equal(seq.xi[:10], solve_angles(p, 10).xi)

    @pytest.mark.parametrize("p,L", [(np.zeros(4), 4), (np.zeros(7), 4),
                                     (np.zeros((3, 3)), 4), (np.zeros(0), 4),
                                     (np.array([0.0, 1.0, 0.0]), 3)])
    def test_rejects_misfit_target(self, p, L):
        with pytest.raises(DomainError):
            solve_angles(p, L)

    @pytest.mark.parametrize("T,L", [(2, 14), (4, 22), (8, 34)])
    def test_layer_peel_residual(self, T, L):
        seq = solve_angles(complete_target(truncate_target(T, L)), L)
        assert seq.residual <= 1e-8

    def test_realized_functions_normalized(self):
        # |u00|^2 + |u01|^2 = 1 on the grid
        seq = synthesize_shifter(2.0, 14).angles
        u = rotation_product(seq.xi, chebyshev_grid(2048))
        norm = np.abs(u[:, 0, 0]) ** 2 + np.abs(u[:, 0, 1]) ** 2
        assert np.max(np.abs(norm - 1.0)) <= 1e-9

    def test_achievability_invariants(self):
        seq = synthesize_shifter(1.0, 12).angles
        thetas = chebyshev_grid(2048)
        A, C = realized_functions(seq.xi, thetas)
        assert len(seq.xi) % 2 == 0
        assert np.max(A * A + C * C) <= 1.0 + 1e-9
        A0, C0 = realized_functions(seq.xi, np.array([0.0]))
        assert A0[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(C0[0]) <= 1e-12


def svd_layer_peel(p, L):
    """Reference peel: the full ``(L+1, 2, 2)`` Laurent tensor, each angle
    the smallest right singular vector of the eight annihilation rows."""
    a, c = cos_sin(p)
    content = np.maximum(np.abs(a), np.abs(c))
    alive = np.nonzero(content[1:] > 1e-13 * max(float(np.max(content)), 1.0))[0]
    d_eff = max(int(alive[-1]) + 1, 2) if len(alive) else 0
    if 2 * d_eff < L:
        d = (len(p) - 1) // 2
        core = svd_layer_peel(p[d - d_eff:d + d_eff + 1], 2 * d_eff) if d_eff else []
        return np.concatenate([core, np.tile([-np.pi / 2, np.pi / 2], (L - 2 * d_eff) // 2)])
    g = _fejer_complement(p)
    u = np.empty((L + 1, 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 1, 1] = p, p[::-1]
    u[:, 0, 1], u[:, 1, 0] = 1j * g, 1j * g[::-1]

    def rows(cmat, kind):
        # C @ (cos, -i sin)(t/2) = 0 for kind 'v', C @ (sin, i cos)(t/2) = 0 for 'w'
        out = []
        for i in range(2):
            cx, cy = ((cmat[i, 0], -1j * cmat[i, 1]) if kind == "v"
                      else (1j * cmat[i, 1], cmat[i, 0]))
            out += [[cx.real, cy.real], [cx.imag, cy.imag]]
        return out

    xi = np.zeros(L)
    for j in range(L, 0, -1):
        even_slot = j % 2 == 0
        mat = np.array(rows(u[-1], "v") + rows(u[0], "w") if even_slot
                       else rows(u[-1], "w") + rows(u[0], "v"))
        x, y = (0.0, 1.0) if np.max(np.abs(mat)) < 1e-13 else np.linalg.svd(mat)[2][-1]
        angle = 2.0 * np.arctan2(y, x)
        ca, sa = np.cos(angle), np.sin(angle)
        pm = 0.5 * np.array([[1 - ca, -1j * sa], [1j * sa, 1 + ca]])
        qm = np.eye(2) - pm
        xi[j - 1] = angle if even_slot else angle - np.pi
        u = u[:-1] @ qm + u[1:] @ pm if even_slot else u[:-1] @ pm + u[1:] @ qm
    return xi


class TestLayerPeel:
    @pytest.mark.parametrize("T", [16.0, 48.0, 256.0])
    def test_matches_svd_reference(self, T):
        # the SVD's sign is arbitrary, so angles agree modulo 2*pi
        L = select_L_empirical(T)
        assert L == {16.0: 58, 48.0: 146, 256.0: 710}[T]
        p = complete_target(truncate_target(T, L))
        xi = _solve_layer_peel(p, L)
        gap = np.angle(np.exp(1j * (xi - svd_layer_peel(p, L))))
        assert len(xi) == L
        assert np.max(np.abs(gap)) <= 1e-10

    def test_degree_deficient_end_gives_pi(self, monkeypatch):
        # harmonic 2 of P is zero and the complement is stubbed to zero, so
        # both end blocks vanish at the first layer: any angle cancels them
        monkeypatch.setattr(qsp, "_fejer_complement", lambda p: np.zeros_like(p))
        xi = _solve_layer_peel(np.array([0.0, -0.05, 1.0, 0.05, 0.0]), 4)
        assert xi[-1] == np.pi


class TestBranchUnitary:
    def test_identity_angles(self):
        spec = synthesize_shifter(1e-15, 2)
        v = build_branch_unitary(spec, 0.7)
        assert np.max(np.abs(v - np.eye(4))) <= 1e-10

    def test_phi_zero_fixed_point(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.5)        # phi = 0
        v = build_branch_unitary(spec, inst.theta)
        # the ideal shifter is the identity here; both tracked inputs stay put
        for col in (0, 2):
            assert np.linalg.norm((v - np.eye(4))[:, col]) <= spec.eps_oc

    def test_acquired_phase_at_a0(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.0)        # phi = 2, ideal phase e^{-i}
        v = build_branch_unitary(spec, inst.theta)
        ideal = ideal_branch_unitary(1.0, inst.phi)
        assert np.linalg.norm((v - ideal)[:, 0]) <= spec.eps_oc
        assert v[0, 0] == pytest.approx(np.exp(-1j), abs=spec.eps_oc)

    def test_unitarity_random_triples(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(16):
            T = float(rng.uniform(0.3, 4.0))
            L = int(2 * rng.integers(4, 12))
            spec = synthesize_shifter(T, L)
            for theta in rng.uniform(0.0, np.pi / 2, 4):
                v = build_branch_unitary(spec, float(theta))
                worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(4)))))
        assert worst <= 1e-10

    @pytest.mark.parametrize("T", [1.0, 2.0, 4.0])
    def test_certified_state_error(self, T):
        # measured error over the amplitude grid within 17*sqrt(delta)
        L = select_L_empirical(T)
        spec = synthesize_shifter(T, L)
        delta = truncation_error_bound(T, L)
        worst = 0.0
        for a in np.linspace(0.0, 1.0, 101):
            inst = make_instance(float(a))
            v = spec.branch_unitary(inst.theta)
            ideal = ideal_branch_unitary(T, inst.phi)
            for col in (0, 2):   # |j>_b (x) |0..0>_plane inputs
                worst = max(worst, float(np.linalg.norm((v - ideal)[:, col])))
        assert worst <= 17.0 * math.sqrt(delta)
        assert worst <= spec.eps_oc

    def test_query_length_is_angle_count(self):
        # one oracle pair per angle: the accounted cost of one application
        for T, L in [(1.0, 10), (2.0, 14)]:
            spec = synthesize_shifter(T, L)
            assert len(spec.angles) == spec.L == L


def kron_shifter(xi, wq):
    """Reference shifter product: one ``np.kron`` per ancilla x-rotation."""
    dim = len(wq) // 2
    wq_dag = wq.conj().T

    def rx(angle):
        ch, sh = np.cos(angle / 2), np.sin(angle / 2)
        return np.kron(np.array([[ch, -1j * sh], [-1j * sh, ch]]), np.eye(dim))

    v = np.eye(2 * dim, dtype=complex)
    for l in range(0, len(xi), 2):
        odd = rx(xi[l] + np.pi) @ wq_dag @ rx(-(xi[l] + np.pi))
        even = rx(xi[l + 1]) @ wq @ rx(-xi[l + 1])
        v = v @ odd @ even
    return v


class TestInterleavedShifter:
    @pytest.mark.parametrize("L", [2, 10, 20, 58])
    def test_bit_identical_to_kron_loop_plane(self, L):
        xi = np.random.default_rng(L).uniform(-np.pi, np.pi, L)
        for theta in (0.0, 0.1, 0.7, 1.3):
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            wq = controlled_grover(np.array([[c2, -s2], [s2, c2]]))
            assert np.array_equal(interleaved_shifter(xi, wq), kron_shifter(xi, wq))

    @pytest.mark.parametrize("L", [2, 10, 20, 58])
    def test_bit_identical_to_kron_loop_three_qubits(self, L):
        xi = np.random.default_rng(100 + L).uniform(-np.pi, np.pi, L)
        for a in (0.1, 0.45, 0.9):
            oracle = build_explicit_oracle(make_instance(a, 3))
            wq = controlled_grover(build_grover_unitary(oracle))
            assert wq.shape == (16, 16)
            assert np.array_equal(interleaved_shifter(xi, wq), kron_shifter(xi, wq))


def matmul_rotation_product(xi, thetas):
    """Reference product: one batched 2x2 ``@`` per interleaved factor."""
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(thetas), 2, 2)).copy()
    for j, x in enumerate(xi):
        alpha, sign = (x + np.pi, -1.0) if j % 2 == 0 else (x, 1.0)
        h = sign * thetas / 2.0
        cz, sz = np.cos(h), np.sin(h)
        f = np.empty((len(thetas), 2, 2), dtype=complex)
        f[:, 0, 0] = cz - 1j * sz * np.cos(alpha)
        f[:, 1, 1] = cz + 1j * sz * np.cos(alpha)
        f[:, 0, 1] = sz * np.sin(alpha)
        f[:, 1, 0] = -sz * np.sin(alpha)
        u = u @ f
    return u


class TestRotationProduct:
    @pytest.mark.parametrize("L", [2, 10, 58, 146])
    def test_matches_matmul_reference(self, L):
        xi = np.random.default_rng(200 + L).uniform(-np.pi, np.pi, L)
        thetas = chebyshev_grid(1024)
        u = rotation_product(xi, thetas)
        assert u.shape == (1024, 2, 2)
        assert np.max(np.abs(u - matmul_rotation_product(xi, thetas))) <= 1e-14
        assert np.array_equal(u[:, 1, 1], np.conj(u[:, 0, 0]))
        assert np.array_equal(u[:, 1, 0], -np.conj(u[:, 0, 1]))


class TestEigenphaseBlocks:
    @pytest.mark.parametrize("T,L", [(1.0, 10), (2.0, 20), (4.0, 30), (16.0, 58)])
    def test_blocks_are_rotation_products(self, T, L):
        # in the basis ancilla (x) Grover eigenvectors (1, -+i)/sqrt(2), with
        # eigenvalues e^{+-2i theta}, the branch unitary is block diagonal and
        # its blocks are the per-eigenphase products at pi/2 +- 2 theta
        spec = synthesize_shifter(T, L)
        w = np.kron(np.eye(2), np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0))
        for theta in np.linspace(0.0, np.pi / 2, 17):
            m = w.conj().T @ build_branch_unitary(spec, theta) @ w
            plus, minus = rotation_product(spec.angles.xi,
                                           [np.pi / 2 + 2 * theta, np.pi / 2 - 2 * theta])
            assert np.max(np.abs(m[0::2, 0::2] - plus)) <= 1e-14
            assert np.max(np.abs(m[1::2, 1::2] - minus)) <= 1e-14
            assert np.max(np.abs(m[0::2, 1::2])) <= 1e-14
            assert np.max(np.abs(m[1::2, 0::2])) <= 1e-14


class TestSynthesisAtEveryStrength:
    def test_ladder_angles_pinned(self):
        # the same digest the synth_ladder benchmark workload reports: a
        # change that moves any angle, even at rounding level, shows here
        digest = hashlib.sha256()
        for T in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48):
            digest.update(synthesize_shifter(float(T), select_L_empirical(T)).angles.xi.tobytes())
        assert digest.hexdigest()[:16] == "d2f07e2009768c35"

    @pytest.mark.parametrize("T", [2.0 ** j for j in range(12)])
    def test_certified_or_loud(self, T):
        # every strength of a K <= 12 sequential schedule must synthesize at
        # the calibrated length and meet the certificate; a SynthesisError
        # fails the test like any other error
        L = select_L_empirical(T)
        spec = synthesize_shifter(T, L)
        assert spec.L == len(spec.angles) == L
        assert spec.angles.residual <= 1e-8
        thetas = chebyshev_grid(4096)
        A, C = realized_functions(spec.angles.xi, thetas)
        dev = np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(thetas))))
        assert dev <= 8.0 * truncation_error_bound(T, L)

    @pytest.mark.parametrize("schedule", [
        build_schedule(strategy="full_sequential", k_max=7, certified=True),
        build_schedule(strategy="general", k_max=7, parallelism=4, certified=True)],
        ids=["full_sequential", "general"])
    def test_certified_schedule_synthesizes(self, schedule):
        # certified lengths run far beyond where the truncation bound meets
        # rounding; synthesis truncates at the shortest length whose bound is
        # below 1e-10, pads with cancelling pairs, and is certified there
        thetas = chebyshev_grid(4096)
        for st in schedule:
            spec = synthesize_shifter(st.t, st.l)
            assert spec.L == len(spec.angles) == st.l
            assert spec.angles.residual <= 1e-8
            l_solve = st.l
            while l_solve > 4 and truncation_error_bound(st.t, l_solve - 2) < 1e-10:
                l_solve -= 2
            A, C = realized_functions(spec.angles.xi, thetas)
            dev = np.max(np.abs(A + 1j * C - np.exp(-1j * st.t * np.sin(thetas))))
            assert dev <= 8.0 * truncation_error_bound(st.t, l_solve)

    @pytest.mark.parametrize("T", [1e-300, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 0.01, 0.03])
    def test_small_strength_certified(self, T):
        # these strengths used to get L = 2, where completion cannot pin
        # A(0) = 1 with a nonzero C; from T = 1e-6 down the 8*delta budget
        # (6.7e-19 there) lies below double-precision rounding of the
        # product.  Up to 1e-7 only harmonic 1 is live, and the peel must
        # still use a core of length 4: a length-2 core realizes only C = 0
        L = select_L_empirical(T)
        spec = synthesize_shifter(T)
        assert spec.L == len(spec.angles) == L == 4
        assert spec.angles.residual <= 1e-8
        thetas = chebyshev_grid(4096)
        A, C = realized_functions(spec.angles.xi, thetas)
        dev = np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(thetas))))
        assert dev <= 8.0 * truncation_error_bound(T, L) + 1e-14


def test_import_does_not_load_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, pae; print('mpmath' in sys.modules, "
                          "[m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False []"


class TestResourceSelectors:
    def test_select_l_constant_term(self):
        assert select_L(1e-15, 1.0 - 1e-12) == 10

    def test_select_l_values(self):
        assert select_L(1.0, 0.01) == 36     # e^2 + 4 ln(100) + 10 = 35.81
        assert select_L(10.0, 0.05) == 96    # 73.89 + 11.98 + 10 = 95.87

    def test_select_l_domain(self):
        with pytest.raises(DomainError):
            select_L(1.0, 0.0)
        with pytest.raises(DomainError):
            select_L(1.0, 1.5)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_strength_domain(self, T):
        # NaN used to pass the T <= 0 guards and inf to overflow; the
        # selectors returned a length for a negative strength
        for fn in (synthesize_shifter, minimal_query_length, select_L_empirical,
                   lambda t: truncate_target(t, 10), lambda t: select_L(t, 0.01)):
            with pytest.raises(DomainError, match="positive and finite"):
                fn(T)

    def test_empirical_table(self):
        assert [select_L_empirical(t) for t in (1, 2, 4, 8)] == [10, 14, 22, 34]

    def test_empirical_fit_regime(self):
        assert select_L_empirical(16.0) == 58    # 2*ceil((2.72*16+13.64)/2)

    def test_empirical_tiny_strength(self):
        # a length-2 sequence with A(0) = 1 pinned realizes only C = 0
        assert select_L_empirical(1e-6) == 4

    def test_sequential_budget_measured(self):
        # ||V^3 - Videal^3|| on the tracked inputs <= 3x the single-step error
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.3)
        v = spec.branch_unitary(inst.theta)
        ideal = ideal_branch_unitary(1.0, inst.phi)
        single = max(np.linalg.norm((v - ideal)[:, col]) for col in (0, 2))
        v3 = np.linalg.matrix_power(v, 3)
        i3 = np.linalg.matrix_power(ideal, 3)
        triple = max(np.linalg.norm((v3 - i3)[:, col]) for col in (0, 2))
        assert triple <= 3.0 * single + 1e-12


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = synthesize_shifter(2.0, 14)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        loaded = load_angles(path)
        assert loaded.T == spec.T and loaded.L == spec.L
        assert loaded.angles.residual == spec.angles.residual
        assert np.array_equal(loaded.angles.xi, spec.angles.xi)

    def test_header_format(self, tmp_path):
        spec = synthesize_shifter(1.0, 10)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        lines = path.read_text().splitlines()
        head = lines[0].split()
        assert len(head) == 4 and head[1] == "10" and head[2] == "Wz"
        assert len(lines) == 1 + 10

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="is empty"):
            load_angles(path)

    def test_rejects_short_header(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("1 4 Wz\n" + "0\n" * 4)
        with pytest.raises(ValueError, match="header 'T L convention residual', got 3"):
            load_angles(path)

    def test_rejects_other_convention(self, tmp_path):
        spec = synthesize_shifter(1.0, 10)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        path.write_text(path.read_text().replace(" Wz ", " Wx ", 1))
        with pytest.raises(ValueError, match="convention"):
            load_angles(path)

    def test_rejects_nan_strength(self, tmp_path):
        # loading it would give eps_oc = nan
        path = tmp_path / "angles.txt"
        path.write_text("nan 4 Wz 0\n" + "0\n" * 4)
        with pytest.raises(DomainError, match="positive and finite"):
            load_angles(path)

    def test_rejects_negative_strength(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("-1 4 Wz 0\n" + "0\n" * 4)
        with pytest.raises(DomainError, match="positive and finite"):
            load_angles(path)

    def test_rejects_odd_length(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("1 3 Wz 0\n" + "0\n" * 3)
        with pytest.raises(ValueError, match="even"):
            load_angles(path)

    def test_rejects_extra_angles(self, tmp_path):
        spec = synthesize_shifter(1.0, 10)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        path.write_text(path.read_text() + "0.5\n")
        with pytest.raises(ValueError, match="11 angles, header says 10"):
            load_angles(path)

    def test_rejects_missing_and_nonfinite_angles(self, tmp_path):
        path = tmp_path / "angles.txt"
        path.write_text("1 4 Wz 0\n" + "0\n" * 3)
        with pytest.raises(ValueError, match="3 angles, header says 4"):
            load_angles(path)
        path.write_text("1 4 Wz 0\n0\nnan\n0\n0\n")
        with pytest.raises(ValueError, match="finite"):
            load_angles(path)


def test_state_error_bound_below_17_sqrt():
    for delta in (1e-8, 1e-5, 1e-3):
        assert state_error_bound(delta) <= 17.0 * math.sqrt(delta)


def test_completion_failure_is_reported():
    # an L=2 target with material strength is not achievable: the constant
    # cosine part cannot reach A(0)=1 while A^2+C^2 <= 1 holds
    with pytest.raises(SynthesisError):
        complete_target(truncate_target(0.5, 2))
