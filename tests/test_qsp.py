import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pae import (PARALLEL_L_TABLE_PLUS, AngleSequence, DomainError, PhaseShifterSpec,
                 SynthesisError, build_branch_unitary, build_schedule, complete_target, load_angles,
                 make_instance, realized_functions, save_angles, select_L,
                 select_L_empirical, solve_angles, state_error_bound,
                 synthesize_shifter, synthesize_shifters, truncate_target,
                 truncation_error_bound)
from pae.circuit import eigenphase_blocks
from pae.core_model import build_explicit_oracle, build_grover_unitary
from pae import qsp
from pae.qsp import (_complement_gap, _complemented_core, _deflate_pinned,
                     _fejer_complement, _fejer_kernel_even, _fold, _log_cepstrum,
                     _product_rounding, _product_row, _sized_grid, _solve_layer_peel,
                     _uniform_modulus2, chebyshev_grid, controlled_grover,
                     interleaved_shifter, rotation_product)


def layer_peel(p, L):
    """The peel of one completed target: the batch of one."""
    return _solve_layer_peel([_complemented_core(p)], [L])[0]


def product_row(xi):
    """The product tree's row of one sequence: the batch of one."""
    return _product_row([xi])[0]


def ideal_branch_unitary(T: float, phi: float) -> np.ndarray:
    """The exact relative phase shifter ``diag(e^{-iT phi/2}, e^{+iT phi/2})``
    on the ancilla, identity on the Grover plane."""
    return np.kron(np.diag([np.exp(-0.5j * T * phi), np.exp(0.5j * T * phi)]),
                   np.eye(2)).astype(complex)


def bessel_j_series(order, x, terms=40):
    """Independent Bessel evaluation: sum (-1)^m (x/2)^(2m+order) / (m! (m+order)!)."""
    total = 0.0
    for m in range(terms):
        total += ((-1) ** m * (x / 2.0) ** (2 * m + order)
                  / (math.factorial(m) * math.factorial(m + order)))
    return total


def laurent_values(p, z):
    """``sum_k p_k z^k`` by Horner's rule."""
    y = np.full(z.shape, p[-1], dtype=complex)
    for coeff in p[-2::-1]:
        y = y * z + coeff
    return y


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
        # a file at that bound is refused before the recurrence runs
        path = tmp_path / "angles.txt"
        path.write_text("2048 2000 Wz 0\n" + "0\n" * 2000)
        with pytest.raises(SynthesisError, match="truncation bound inf >= 1"):
            load_angles(path)

    def test_huge_finite_bound_does_not_overflow(self, tmp_path):
        # delta ** 2 used to raise OverflowError from about 1e154 on
        for delta in (1e154, 1e200, sys.float_info.max):
            bound = state_error_bound(delta)
            assert bound >= 8.0 * math.sqrt(2.0) * delta and not math.isnan(bound)
        assert state_error_bound(1e200) == pytest.approx(8.0 * math.sqrt(2.0) * 1e200)
        path = tmp_path / "angles.txt"
        path.write_text("1e60 4 Wz 0\n" + "0\n" * 4)
        with pytest.raises(SynthesisError, match=r"truncation bound 8\.33e\+178 >= 1"):
            load_angles(path)

    @pytest.mark.parametrize("T", [1e60, 1e7])
    def test_refused_before_the_recurrence(self, monkeypatch, T):
        # the recurrence loops over about T orders: 1.6 s at T = 1e7, and a
        # bare ValueError from numpy at T = 1e60
        def refuse(*args):
            raise AssertionError("_bessel_j called for a bound >= 1")

        monkeypatch.setattr(qsp, "_bessel_j", refuse)
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        tracemalloc.start()
        try:
            with pytest.raises(SynthesisError, match=r"^shifter .*: truncation bound .* >= 1"):
                synthesize_shifter(T, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

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
    n = _sized_grid(target.L)[0]
    thetas = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    d = target.L // 2
    ls = np.arange(d + 1)
    p = target.coeffs
    m = max(0.0, float(np.max(_uniform_modulus2(p, n))) - 1.0)
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
        gg = _uniform_modulus2(p2, n)
        ip = int(np.argmax(gg))
        over = float(gg[ip]) - 1.0
        if over <= 1e-12:
            return p2, passes
        if l2 >= 2 and 1.0 - np.cos(l2 * thetas[ip]) <= 0.5:
            mu += max(1.5 * over / max(1.0 - np.cos(l2 * thetas[ip]), 1e-3), 1e-14)
        else:
            extra += max(over, 1e-12)
    raise SynthesisError(f"completion failed for T={target.T}, L={target.L}")


def long_double_modulus2(p, n):
    """``|P|^2`` at the uniform angles ``2 pi j / n`` in ``[0, pi]``: the
    cosine and sine series summed in long double, each harmonic's angle
    taken by its exact integer exponent mod ``n``."""
    a, c = (v.astype(np.longdouble) for v in cos_sin(p))
    angle = 8 * np.arctan(np.longdouble(1)) * np.arange(n, dtype=np.longdouble) / n
    cos_t, sin_t = np.cos(angle), np.sin(angle)
    out = []
    for j in range(0, n // 2 + 1, 512):
        k = np.outer(np.arange(j, min(j + 512, n // 2 + 1)), np.arange(len(a))) % n
        out.append((cos_t[k] @ a) ** 2 + (sin_t[k] @ c) ** 2)
    return np.concatenate(out)


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

    def test_overshoot_matches_long_double_sum(self):
        # Horner's rule on the rounded e^{i theta} drifts as |fl(z)|^L: on
        # this cut target it read an overshoot of 6.67e-13, where the exact
        # sum gives 1.2e-14.  The rescale divides the odd harmonics by
        # 1 + m + extra and nothing else touches them, so harmonic 1 gives
        # back the m that complete_target measured.  The reference is the
        # long-double sum on the 8192 uniform angles in [0, pi]
        T, L = 2048.0, 5586
        target = truncate_target(T, L)
        d = L // 2
        extra = min(4.0 * target.delta, max(0.5 * target.delta, 1e-7))
        m = target.coeffs[d + 1] / complete_target(target)[d + 1] - 1.0 - extra
        ref = max(0.0, float(np.max(long_double_modulus2(target.coeffs, 8192))) - 1.0)
        assert abs(m - ref) <= 1e-14

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
        # on two outside grids, 4096 Chebyshev and 8192 uniform points,
        # neither of them the grid the completion gates on
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
    # laurent_values is the tests' Horner reference; synthesis evaluates no
    # polynomial on a grid
    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (256.0, 710)])
    def test_matches_trig_series(self, T, L):
        # on the dyadic grid theta_j = j/128 every l*theta_j is exact, so the
        # direct series is accurate to rounding of its terms
        p = complete_target(truncate_target(T, L))
        thetas = np.arange(1024) / 128.0
        z = np.exp(1j * thetas)
        got = laurent_values(p, z) * z ** (-(L // 2))
        A, C = eval_pair(p, thetas)
        assert np.max(np.abs(got - (A + 1j * C))) <= 1e-13

    def test_modulus_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        p = complete_target(truncate_target(256.0, 710))
        a, c = cos_sin(p)
        thetas = chebyshev_grid(60)
        got = np.abs(laurent_values(p, np.exp(1j * thetas))) ** 2
        with mpmath.workdps(40):
            ref = []
            for theta in thetas:
                t = mpmath.mpf(float(theta))
                A = mpmath.fsum(mpmath.mpf(float(v)) * mpmath.cos(l * t) for l, v in enumerate(a))
                C = mpmath.fsum(mpmath.mpf(float(v)) * mpmath.sin(l * t) for l, v in enumerate(c))
                ref.append(float(A * A + C * C))
        assert np.max(np.abs(got - np.array(ref))) <= 1e-12

    def test_synthesis_memory_linear_in_grid(self):
        # the peel and the product tree hold O(L) arrays per step and level;
        # a (grid, L/2 + 1) trig table at this length would take 133 MiB
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
        # bins 0..n/2 are the grid's angles in [0, pi]
        p = complete_target(truncate_target(T, L))
        z = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
        got = _uniform_modulus2(p, n)
        assert got.shape == (n // 2 + 1,)
        assert np.max(np.abs(got - np.abs(laurent_values(p, z)) ** 2)) <= 1e-13

    @pytest.mark.parametrize("T,L,n", [
        (1.0, 10, 1024), (1.0, 10, 8192), (48.0, 146, 1024), (48.0, 146, 8192),
        (256.0, 710, 1024), (256.0, 710, 8192), (1024.0, 2800, 1024),
        (2048.0, 5586, 1024), (2048.0, 9000, 8192)])
    def test_matches_direct_sum(self, T, L, n):
        # L + 1 > n folds several powers onto each grid point: they must be
        # summed, where a plain scatter would keep one of them
        p = truncate_target(T, L).coeffs
        got = _uniform_modulus2(p, n)
        ref = np.abs(direct_uniform_sum(p, n)[:n // 2 + 1]) ** 2
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13


def uniform_values(q, n):
    """``sum_k q_k z^(k - d)`` for ``q`` on powers ``-d..d``, at the ``n``
    angles ``2 pi j / n``: one inverse FFT of the coefficients summed into
    their residues mod ``n``."""
    d = (len(q) - 1) // 2
    return n * np.fft.ifft(np.bincount(np.arange(-d, d + 1) % n, weights=q, minlength=n))


class TestMirrorGrids:
    @pytest.mark.parametrize("n", [2, 1024, 4096])
    def test_chebyshev_grid_mirror_pairs(self, n):
        # theta_(n-1-j) = 2 pi - theta_j, and the first half lies below pi
        grid = chebyshev_grid(n)
        assert np.max(np.abs(grid[::-1] + grid - 2.0 * np.pi)) <= 4e-15
        assert np.all(grid[:n // 2] < np.pi)

    @pytest.mark.parametrize("T,L,res_tol", [
        (48.0, 146, 1e-13), (512.0, 1408, 1e-12), (2048.0, 5586, 1e-12)])
    def test_half_grids_match_full_grids(self, T, L, res_tol):
        # bins 0..n/2 of the sized uniform grid against all n points of the
        # circle, by a complex FFT: the overshoot maximum of the cut and of
        # the completed target, and the complement's gap.  Then the residual,
        # an l1 bound from the product's coefficients plus their rounding,
        # must cover the realized product's miss on 16 uniform points per
        # factor, and its l1 part may exceed that miss by res_tol at most.
        # The miss includes rotation_product's own rounding, about L eps
        # magnified by the slope of about T: 2.7e-12 at T = 2048, above the
        # l1 part (6.7e-13) and far below the rounding term (1.7e-10)
        n = _sized_grid(L)[0]
        target = truncate_target(T, L)
        p = complete_target(target)
        for q in (target.coeffs, p):
            full = np.abs(np.fft.fft(q, n)) ** 2
            assert abs(np.max(_uniform_modulus2(q, n)) - np.max(full)) <= 1e-13
        g = _fejer_complement(p)
        full = np.abs(np.fft.fft(p, n)) ** 2 + np.abs(np.fft.fft(g, n)) ** 2 - 1.0
        assert abs(_complement_gap(p, g, n) - np.max(np.abs(full))) <= 1e-14
        seq = solve_angles(p, L)
        m = 16 * L
        u00 = rotation_product(seq.xi, 2.0 * np.pi * np.arange(m) / m)[:, 0, 0]
        miss = np.max(np.abs(u00 - uniform_values(p, m)))
        assert miss <= seq.residual
        assert seq.residual - _product_rounding(L) - miss <= res_tol


def trig_values(c, n):
    """``c_0 + 2 Re sum_k c_k e^{i k theta}`` at the ``n`` angles ``2 pi j / n``."""
    return np.fft.irfft(c, n) * n


class TestSizedGrid:
    @pytest.mark.parametrize("degree,n", [(1, 64), (2, 128), (10, 1024), (16, 1024),
                                          (17, 2048), (5586, 524288)])
    def test_size_rule(self, degree, n):
        # the smallest power of two with at least 64 points per degree
        assert _sized_grid(degree) == (n, math.cos(math.pi * degree / n))

    def test_grid_maximum_bounds_dense_maximum(self):
        # van der Corput & Schaake on seeded random real trigonometric
        # polynomials of degree 8..4096.  A lone top harmonic of degree 2^k
        # peaking halfway between two grid points loses the whole factor,
        # so there the bound holds with equality
        rng = np.random.default_rng(1935)
        degrees = [8, 4096] + np.exp(rng.uniform(np.log(8), np.log(4096), 8)).astype(int).tolist()
        for degree in degrees:
            n, factor = _sized_grid(degree)
            c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            polys = [c / (2.0 * np.sum(np.abs(c)))]
            if degree & (degree - 1) == 0:
                top = np.zeros(degree + 1, dtype=complex)
                top[degree] = 0.5 * np.exp(-1j * np.pi * degree / n)
                polys.append(top)
            for coeffs in polys:
                coarse = np.max(np.abs(trig_values(coeffs, n)))
                dense = np.max(np.abs(trig_values(coeffs, 16 * n)))
                assert dense <= coarse / factor + 1e-15


LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
# the ladder's lengths under the linear fit 2.72 T + 13.64 that ruled from
# T = 10 up before the calibrated length became one search; the search is
# 2 shorter at T = 12, 16, 32 and 48
FIT_LADDER = ((1, 10), (2, 14), (3, 18), (4, 22), (6, 28), (8, 34),
              (12, 48), (16, 58), (24, 80), (32, 102), (48, 146))


def deflated_remainder(p):
    """``1 - P(z)P(1/z)`` with the pinned zeros at ``z = +-1`` divided out."""
    d = (len(p) - 1) // 2
    r = -np.convolve(p, p[::-1])
    r[2 * d] += 1.0
    return _deflate_pinned(r)


def degree_rule(r):
    """Eight grid points per coefficient of ``r``, rounded up to a power of two."""
    return 1 << (8 * len(r) - 1).bit_length()


def complex_fft_complement(p):
    """The spectral factor with complex FFTs throughout, on a grid of at
    least 4096 points: the reference for the real-FFT construction in
    ``_fejer_complement`` and for the size of its grid."""
    r = deflated_remainder(p)
    m = (len(r) - 1) // 2
    n = max(4096, degree_rule(r))
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

    @pytest.mark.parametrize("T,L", [(1.0, L) for L in sorted(set(PARALLEL_L_TABLE_PLUS))]
                             + [(float(T), L) for T, L in FIT_LADDER]
                             + [(float(T), select_L_empirical(T)) for T in LADDER
                                if (T, select_L_empirical(T)) not in FIT_LADDER])
    def test_sized_grid_matches_floored_reference(self, T, L):
        # the reference's grid never falls below 4096 points; the cepstrum's
        # own grid starts at eight points per coefficient and never exceeds it
        p = complete_target(truncate_target(T, L))
        r = deflated_remainder(p)
        assert len(_log_cepstrum(r)) <= max(4096, degree_rule(r))
        assert np.max(np.abs(_fejer_complement(p) - complex_fft_complement(p))) <= 1e-14

    @pytest.mark.parametrize("T,L", [(2.533577337370513, 10), (3.0, 18)])
    def test_aliased_tail_doubles_the_grid(self, T, L):
        # at eight points per coefficient the first target misses the
        # complement tolerance by 1.8e-10; its cepstrum tail sends it to a
        # finer grid, which certifies, and neither grid passes the floored one
        p = complete_target(truncate_target(T, L))
        r = deflated_remainder(p)
        n = len(_log_cepstrum(r))
        assert degree_rule(r) < n <= max(4096, degree_rule(r))
        assert np.max(np.abs(_fejer_complement(p) - complex_fft_complement(p))) <= 1e-14

    def test_small_targets_take_a_smaller_grid(self):
        # the T = 1 shifters of the parallel tables need 512 points, not 4096
        for L in sorted(set(PARALLEL_L_TABLE_PLUS)):
            assert len(_log_cepstrum(deflated_remainder(
                complete_target(truncate_target(1.0, L))))) == 512

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
        with pytest.raises(SynthesisError, match=r"on 256 uniform points over the factor 0\.998795"):
            _fejer_complement(p)

    def test_rejects_unpinned_target(self):
        # |P| <= 0.8 < 1, but without the zeros at z = +-1 that the
        # factorisation divides out
        p = np.array([0.15, 0.0, 0.5, 0.0, 0.15])       # A = (0.5, 0, 0.3), C = 0
        with pytest.raises(SynthesisError):
            _fejer_complement(p)


def counting_rfft(monkeypatch):
    """Record the grid size of every ``np.fft.rfft`` call."""
    rfft, sizes = np.fft.rfft, []

    def counting(a, n=None, *args, **kwargs):
        sizes.append(np.shape(a)[-1] if n is None else n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return sizes


class TestSharedModulus:
    def test_cold_synthesis_transforms_the_sized_grid_three_times(self, monkeypatch):
        # |P|^2 of the truncated and of the completed target, and |G|^2:
        # the complement gate takes the completed target's |P|^2 from the
        # completion gate, the same vector on the same grid
        n = _sized_grid(146)[0]
        assert n == 16384
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        synthesize_shifter(1.0, 10)            # another target goes first
        sizes = counting_rfft(monkeypatch)
        synthesize_shifter(48.0, 146)
        assert sizes.count(n) == 3

    def test_cold_shifter_in_a_batch_transforms_its_grid_three_times(self, monkeypatch):
        # the hand-over is an argument, so it survives the other shifters'
        # completions, all of which run before the first complement; no
        # other shifter of the batch uses the 16384-point grid
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        keys = [(1.0, L) for L in (10, 12, 14, 16, 18)]
        assert all(_sized_grid(L)[0] < 16384 for _, L in keys)
        sizes = counting_rfft(monkeypatch)
        synthesize_shifters([keys[0], keys[1], (48.0, 146), *keys[2:]])
        assert sizes.count(16384) == 3

    def test_interleaved_targets_match_each_target_alone(self):
        # two targets on the same 4096-point grid, each completion followed
        # by the other's before either complement and gap, each complement
        # given its own completion's |P|^2
        targets = [truncate_target(8.0, 34), truncate_target(4.0, 40)]
        n = _sized_grid(34)[0]
        assert n == _sized_grid(40)[0] == 4096

        def alone(target):
            p = complete_target(target)
            g = _fejer_complement(p)
            return p, g, _complement_gap(p, g, n)

        want = [alone(target) for target in targets]
        moduli = [np.empty(n // 2 + 1) for _ in targets]
        ps = [complete_target(target, m) for target, m in zip(targets, moduli)]
        gs = [_fejer_complement(p, m) for p, m in zip(ps, moduli)]
        gaps = [_complement_gap(ps[i], gs[i], n, moduli[i]) for i in (1, 0)][::-1]
        for (p, g, gap), p2, g2, gap2 in zip(want, ps, gs, gaps):
            assert np.array_equal(p, p2) and np.array_equal(g, g2) and gap == gap2

    def test_kept_values_are_the_completion_gates_own(self):
        # what the completion keeps is |P|^2 of the vector it returns on its
        # sized grid, bit for bit, so the complement gate reads the values
        # it would have transformed
        target = truncate_target(2.0, 14)
        n = _sized_grid(14)[0]
        kept = np.full(n // 2 + 1, np.nan)
        p = complete_target(target, kept)
        assert np.array_equal(kept, _uniform_modulus2(p, n))
        assert np.array_equal(p, complete_target(target))


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


def long_double_product_row(xi):
    """The first row ``(x, eta)`` of the interleaved product multiplied out
    one factor at a time in long double: the reference for the tree."""
    c, s = np.cos(xi.astype(np.longdouble)), np.sin(xi.astype(np.longdouble))
    x, eta = np.ones(1, dtype=np.longdouble), np.zeros(1, dtype=np.longdouble)
    for cj, sj in zip(c, s):
        x2, eta2 = np.array([1 + cj, 1 - cj]) / 2, np.array([sj, -sj]) / 2
        x, eta = (np.convolve(x, x2) - np.convolve(eta, eta2[::-1]),
                  np.convolve(x, eta2) + np.convolve(eta, x2[::-1]))
    return x, eta


def tree_deviation(xi):
    """The l1 distance of the tree's rows, both of them, from the long-double
    product, and the largest coefficient beyond powers ``+-L``."""
    L = len(xi)
    dev, outside = 0.0, 0.0
    for got, want in zip(product_row(xi), long_double_product_row(xi)):
        k = (len(got) - L - 1) // 2
        dev += float(np.sum(np.abs(got[k:k + L + 1] - want)))
        outside = max(outside, float(np.max(np.abs(got[:k]), initial=0.0)),
                      float(np.max(np.abs(got[k + L + 1:]), initial=0.0)))
    return dev, outside


def unfused_product_row(xi):
    """The product tree with each level's six spectra unpacked, the two
    output rows formed as ``x1 x2 - eta1 rev(eta2)`` and ``x1 eta2 + eta1
    rev(x2)`` and stacked: the reference for the fused level of
    ``_product_row``."""
    c, s = np.cos(xi), np.sin(xi)
    nodes = np.empty((len(xi), 2, 2))
    nodes[:, 0, 0] = 0.5 * (1.0 + c)
    nodes[:, 0, 1] = 0.5 * (1.0 - c)
    nodes[:, 1, 0] = 0.5 * s
    nodes[:, 1, 1] = -0.5 * s
    count, width = len(xi), 2
    while count > 1:
        count += count % 2
        n = 1 << (2 * width - 2).bit_length()
        if len(nodes) < count:
            identity = np.zeros((1, 2, width))
            identity[0, 0, width // 2] = 1.0
            nodes = np.concatenate([nodes, identity])
        left, right = nodes[0::2], nodes[1::2]
        x1, eta1, x2, eta2, rev_x2, rev_eta2 = np.fft.rfft(
            np.concatenate([left, right, right[:, :, ::-1]], axis=1), n).transpose(1, 0, 2)
        nodes = np.fft.irfft(np.stack([x1 * x2 - eta1 * rev_eta2,
                                       x1 * eta2 + eta1 * rev_x2], axis=1), n)[:, :, :2 * width - 1]
        count, width = count // 2, 2 * width - 1
    return nodes[0, 0], nodes[0, 1]


class TestProductTree:
    @pytest.mark.parametrize("L", [2, 4, 6, 10, 12, 146, 300])
    def test_fused_level_matches_unfused_tree(self, L):
        # negating -rev(eta2) before the transform is exact, so the fused
        # product-sum rounds as the unfused difference; odd node counts
        # (6, 10, 12, 146 and 300 factors) reach the identity pads
        xi = np.random.default_rng(L).uniform(-np.pi, np.pi, L)
        for got, want in zip(product_row(xi), unfused_product_row(xi)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("L", [2, 4, 6, 10, 12, 146])
    def test_matches_long_double_product(self, L):
        # 6, 10, 12 and 146 factors leave an odd node count on some level,
        # which the exact identity pads; random angles fill every entry
        xi = np.random.default_rng(L).uniform(-np.pi, np.pi, L)
        dev, outside = tree_deviation(xi)
        assert dev <= 2.0 * L * np.finfo(float).eps
        assert outside <= np.finfo(float).eps

    @pytest.mark.parametrize("T,L", [(1.0, 10), (1.0, 40), (8.0, 34), (48.0, 144)])
    def test_certified_row_is_the_product_row(self, T, L):
        # the sequence keeps the row its residual was measured on, bit for
        # bit: measuring the miss leaves the row's own buffer untouched
        spec = synthesize_shifter(T, L)
        x, eta = product_row(spec.angles.xi)
        assert spec.angles.row.shape == (len(x), 2)
        assert spec.angles.row.tobytes() == np.stack([x, eta], axis=1).tobytes()
        assert AngleSequence(spec.angles.xi).row is None

    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 146), (512.0, 1408), (2048.0, 5586)])
    def test_rounding_term_covers_long_double_deviation(self, T, L):
        # measured 1.1e-15, 1.6e-14, 1.6e-13 and 6.5e-13: about L u, where
        # the term is about 270 L u
        dev, _ = tree_deviation(synthesize_shifter(T, L).angles.xi)
        assert dev <= _product_rounding(L)

    def test_rounding_term_leaves_room_at_largest_strength(self):
        # from the formula alone: the 1e-8 gate keeps ten times its room at
        # the calibrated length of T = 8192
        L = select_L_empirical(8192.0)
        assert L == 22278
        assert _product_rounding(L) <= 1e-9

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48])
    def test_residual_covers_dense_grid(self, T):
        # the residual bounds the realized product's miss anywhere on the
        # circle, so on 16 uniform points per factor too; TestMirrorGrids
        # checks the same at T = 512 and 2048
        L = select_L_empirical(T)
        p = complete_target(truncate_target(T, L))
        seq = solve_angles(p, L)
        m = 16 * L
        u00 = rotation_product(seq.xi, 2.0 * np.pi * np.arange(m) / m)[:, 0, 0]
        assert np.max(np.abs(u00 - uniform_values(p, m))) <= seq.residual

    def test_synthesis_never_evaluates_rotation_product(self, monkeypatch):
        # the residual comes from the tree alone, so rotation_product stays
        # an independent evaluation of the synthesized angles
        def refuse(*args):
            raise AssertionError("synthesis called rotation_product")

        monkeypatch.setattr(qsp, "rotation_product", refuse)
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        assert synthesize_shifter(8.0, 34).angles.residual <= 1e-8


class TestSynthesisErrors:
    @pytest.mark.parametrize("tol,gate", [
        ("_COMPLEMENT_TOL", r"complement of degree \d+ misses"),
        ("_RESIDUAL_TOL", r"angles miss the target: residual")])
    def test_message_names_the_shifter(self, monkeypatch, tol, gate):
        # each gate, forced to fail, reports T, L and the solve length once
        monkeypatch.setattr(qsp, tol, -1.0)
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        with pytest.raises(SynthesisError, match=gate) as err:
            synthesize_shifter(8.0, 34)
        message = str(err.value)
        assert message.startswith("shifter T=8.0, L=34 (solve length 34): ")
        assert [message.count(name) for name in ("T=", "L=", "solve length")] == [1, 1, 1]

    def test_completion_message_names_the_shifter(self, monkeypatch):
        # an L = 2 shifter of material strength cannot be completed
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        with pytest.raises(SynthesisError, match=r"^shifter T=0\.5, L=2 \(solve length 2\): "
                                                 r"completion failed because \|P\|\^2 exceeds 1 by "):
            synthesize_shifter(0.5, 2)


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


def complex_layer_peel(p, L):
    """The layer peel on the complex first row ``(P, iG)``, with the complex
    projector: the reference for the real ``(P, G)`` peel of
    ``_solve_layer_peel``."""
    d = (len(p) - 1) // 2
    content = _fold(np.abs(p))[0]
    alive = np.nonzero(content[1:] > 1e-13 * max(float(np.max(content)), 1.0))[0]
    d_eff = min(max(int(alive[-1]) + 1, 2), d) if len(alive) else 0
    xi = np.tile([-np.pi / 2, np.pi / 2], L // 2)
    if not d_eff:
        return xi
    p = p[d - d_eff:d + d_eff + 1]
    r = np.empty((len(p), 2), dtype=complex)
    r[:, 0] = p
    r[:, 1] = 1j * _fejer_complement(p)
    for j in range(2 * d_eff, 0, -1):
        (x0, y0), (x1, y1) = r[0].tolist(), r[-1].tolist()
        even_slot = j % 2 == 0
        e = abs(x1) ** 2 + abs(y0) ** 2
        f = abs(x0) ** 2 + abs(y1) ** 2
        if e + f < 1e-26:
            angle = np.pi
        else:
            s = (x1.conjugate() * y1).imag - (x0.conjugate() * y0).imag
            angle = (math.atan2(2.0 * s, e - f) if even_slot
                     else math.atan2(-2.0 * s, f - e)) + np.pi
        ca, sa = math.cos(angle), math.sin(angle)
        pm = 0.5 * np.array([[1.0 - ca, -1j * sa], [1j * sa, 1.0 + ca]])
        if even_slot:
            xi[j - 1] = angle
            r = r[:-1] + (r[1:] - r[:-1]) @ pm
        else:
            xi[j - 1] = angle - np.pi
            r = r[1:] + (r[:-1] - r[1:]) @ pm
    return xi


def allocating_layer_peel(p, L):
    """The real peel with a new projector and a new row at every layer: the
    reference for the in-place peel of ``_solve_layer_peel``."""
    d = (len(p) - 1) // 2
    content = _fold(np.abs(p))[0]
    alive = np.nonzero(content[1:] > 1e-13 * max(float(np.max(content)), 1.0))[0]
    d_eff = min(max(int(alive[-1]) + 1, 2), d) if len(alive) else 0
    xi = np.tile([-np.pi / 2, np.pi / 2], L // 2)
    if not d_eff:
        return xi
    p = p[d - d_eff:d + d_eff + 1]
    r = np.empty((len(p), 2))
    r[:, 0] = p
    r[:, 1] = qsp._fejer_complement(p)
    for j in range(2 * d_eff, 0, -1):
        (x0, eta0), (x1, eta1) = r[0].tolist(), r[-1].tolist()
        even_slot = j % 2 == 0
        e = x1 ** 2 + eta0 ** 2
        f = x0 ** 2 + eta1 ** 2
        if e + f < 1e-26:
            angle = np.pi
        else:
            s = x1 * eta1 - x0 * eta0
            angle = (math.atan2(2.0 * s, e - f) if even_slot
                     else math.atan2(-2.0 * s, f - e)) + np.pi
        ca, sa = math.cos(angle), math.sin(angle)
        pm = 0.5 * np.array([[1.0 - ca, -sa], [-sa, 1.0 + ca]])
        if even_slot:
            xi[j - 1] = angle
            r = r[:-1] + (r[1:] - r[:-1]) @ pm
        else:
            xi[j - 1] = angle - np.pi
            r = r[1:] + (r[:-1] - r[1:]) @ pm
    return xi


class TestLayerPeel:
    @pytest.mark.parametrize("T,L", [(1.0, 10), (16.0, 58), (48.0, 146), (256.0, 710)])
    def test_in_place_peel_matches_allocating_peel(self, T, L):
        # the same operations on the same operands, so the same bits
        p = complete_target(truncate_target(T, L))
        assert np.array_equal(layer_peel(p, L), allocating_layer_peel(p, L))

    def test_in_place_peel_matches_allocating_peel_when_degree_deficient(self, monkeypatch):
        # the target of test_degree_deficient_end_gives_pi
        monkeypatch.setattr(qsp, "_fejer_complement",
                            lambda p, modulus2=None: np.zeros_like(p))
        p = np.array([0.0, -0.05, 1.0, 0.05, 0.0])
        assert np.array_equal(layer_peel(p, 4), allocating_layer_peel(p, 4))

    @pytest.mark.parametrize("T,L", [(1.0, 10), (16.0, 58), (48.0, 146)])
    def test_real_row_matches_complex_row(self, T, L):
        # the row (x, i eta) has real x and eta at every layer, so peeling
        # the real pair takes the same rounding steps as the complex row
        p = complete_target(truncate_target(T, L))
        assert np.array_equal(layer_peel(p, L), complex_layer_peel(p, L))

    def test_real_row_matches_complex_row_at_large_strength(self):
        p = complete_target(truncate_target(256.0, 710))
        assert np.max(np.abs(layer_peel(p, 710) - complex_layer_peel(p, 710))) <= 1e-12

    @pytest.mark.parametrize("T,L", [(16.0, 58), (48.0, 146), (256.0, 710)],
                             ids=["16.0", "48.0", "256.0"])
    def test_matches_svd_reference(self, T, L):
        # the SVD's sign is arbitrary, so angles agree modulo 2*pi
        p = complete_target(truncate_target(T, L))
        xi = layer_peel(p, L)
        gap = np.angle(np.exp(1j * (xi - svd_layer_peel(p, L))))
        assert len(xi) == L
        assert np.max(np.abs(gap)) <= 1e-10

    def test_degree_deficient_end_gives_pi(self, monkeypatch):
        # harmonic 2 of P is zero and the complement is stubbed to zero, so
        # both end blocks vanish at the first layer: any angle cancels them
        monkeypatch.setattr(qsp, "_fejer_complement",
                            lambda p, modulus2=None: np.zeros_like(p))
        xi = layer_peel(np.array([0.0, -0.05, 1.0, 0.05, 0.0]), 4)
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

    @pytest.mark.parametrize("L", [2, 10, 20, 58])
    def test_stack_slices_bit_identical_to_kron_loop(self, L):
        # a stack of three amplitudes' blocks, on the Grover plane and at
        # n = 3: each slice of the one stacked call is its own kron product
        xi = np.random.default_rng(200 + L).uniform(-np.pi, np.pi, L)
        plane = [controlled_grover(np.array([[np.cos(2 * t), -np.sin(2 * t)],
                                             [np.sin(2 * t), np.cos(2 * t)]]))
                 for t in (0.1, 0.7, 1.3)]
        three = [controlled_grover(build_grover_unitary(build_explicit_oracle(
            make_instance(a, 3)))) for a in (0.1, 0.45, 0.9)]
        for blocks in (plane, three):
            stacked = interleaved_shifter(xi, np.stack(blocks))
            assert stacked.shape == (3, *blocks[0].shape)
            for v, wq in zip(stacked, blocks):
                assert np.array_equal(v, kron_shifter(xi, wq))


class TestControlledGrover:
    @staticmethod
    def dense_phase_product(q):
        """Reference block: the padded ``q`` times the dense ancilla phase."""
        dim = len(q)
        cq = np.eye(2 * dim, dtype=complex)
        cq[dim:, dim:] = q
        return cq @ np.kron(np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]),
                            np.eye(dim))

    def test_plane_blocks_bit_identical_to_dense_product(self):
        for theta in np.linspace(0.0, np.pi / 2, 41):
            c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
            q = np.array([[c2, -s2], [s2, c2]])
            assert np.array_equal(controlled_grover(q), self.dense_phase_product(q))

    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    def test_canonical_blocks_bit_identical_to_dense_product(self, n):
        for a in (0.0, 0.3, 0.8, 1.0):
            q = build_grover_unitary(build_explicit_oracle(make_instance(a, n)))
            assert np.array_equal(controlled_grover(q), self.dense_phase_product(q))

    def test_random_blocks_match_dense_product(self):
        # the dense product may fuse a multiply-add that the scaling rounds
        # twice, which shows only in entries at rounding level
        for a in (0.0, 0.3, 0.8, 1.0):
            q = build_grover_unitary(build_explicit_oracle(make_instance(a, 3), "random", 11))
            assert np.max(np.abs(controlled_grover(q) - self.dense_phase_product(q))) <= 1e-16


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


def cut_loop(T, L):
    """The solve length as a loop: ``L`` cut down, not below 4, while the
    truncation bound two below is under ``1e-10``."""
    l_solve = L
    while l_solve > 4 and truncation_error_bound(T, l_solve - 2) < 1e-10:
        l_solve -= 2
    return l_solve


def ladder_digest(pairs):
    """The first 16 hex digits of the sha256 of the angles synthesized at
    each ``(T, L)``, in order: the synth_ladder benchmark workload's digest."""
    digest = hashlib.sha256()
    for T, L in pairs:
        digest.update(synthesize_shifter(float(T), L).angles.xi.tobytes())
    return digest.hexdigest()[:16]


class TestSynthesisAtEveryStrength:
    def test_ladder_angles_pinned(self):
        # a change that moves any angle, even at rounding level, shows here:
        # the fit's ladder keeps its digest, and the calibrated ladder, 2
        # shorter at T = 12, 16, 32 and 48, has its own
        assert ladder_digest(FIT_LADDER) == "d56c39a9630fbdbc"
        assert ladder_digest((T, select_L_empirical(T)) for T in LADDER) == "e92b570ceb7dc4ee"

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
        build_schedule(strategy="full_sequential", k_max=12, certified=True),
        build_schedule(strategy="full_parallel", k_max=10, certified=True),
        build_schedule(strategy="general", k_max=7, parallelism=4, certified=True),
        build_schedule(strategy="general", k_max=12, parallelism=4, t_cap=2048, certified=True),
        build_schedule(strategy="general", k_max=12, parallelism=16, t_cap=2048,
                       certified=True)],
        ids=["full_sequential", "full_parallel", "general", "general-P4", "general-P16"])
    def test_certified_schedule_synthesizes(self, schedule):
        # every strength a schedule asks for synthesizes at its certified
        # length, T = 2048 at L = 5580 included, uncut, and meets its step's
        # budget beta / (sqrt(2) P S).  full_parallel stops at K = 10: its
        # step-11 budget lies below the floor of the solve length
        thetas = chebyshev_grid(4096)
        for st in schedule:
            spec = synthesize_shifter(st.t, st.l)
            assert spec.L == len(spec.angles) == st.l == cut_loop(st.t, st.l)
            assert spec.angles.residual <= 1e-8
            delta = truncation_error_bound(st.t, st.l)
            assert spec.eps_oc == state_error_bound(delta)
            assert spec.eps_oc <= 0.05 / (math.sqrt(2.0) * st.p * st.s)
            A, C = realized_functions(spec.angles.xi, thetas)
            dev = np.max(np.abs(A + 1j * C - np.exp(-1j * st.t * np.sin(thetas))))
            assert dev <= 8.0 * delta

    def test_certified_schedule_refuses_budget_below_floor(self):
        # step 11 of full_parallel (P = 1024) has the budget 3.45e-5, below
        # the state error 3.96e-5 at T = 1's solve length 20; the refusal
        # names the step
        with pytest.raises(DomainError, match=r"^step 11 \(P = 1024, S = 1\): "
                                              r"state-error budget 3\.45e-05 at T=1 is "
                                              r"below the floor 3\.96e-05 that synthesis "
                                              r"certifies at its solve length 20$"):
            build_schedule(strategy="full_parallel", k_max=11, certified=True)

    @pytest.mark.parametrize("T", [1508.0, 1617.0, 1667.0, 1706.0, 1899.0, 1939.0, 1981.0])
    def test_calibrated_length_synthesizes_where_the_fit_failed(self, T):
        # the complement missed its certificate at the fit's length, 2 to
        # 8 longer, at each of these strengths
        L = select_L_empirical(T)
        assert L < fit_length(T)
        spec = synthesize_shifter(T, L)
        assert spec.L == len(spec.angles) == L
        assert spec.angles.residual <= 1e-8

    def test_calibrated_failure_is_loud(self):
        # the one integer strength up to 2048 that fails at its calibrated
        # length: the complement misses by about 1.1e-11
        L = select_L_empirical(1868.0)
        with pytest.raises(SynthesisError, match=rf"^shifter T=1868\.0, L={L} \(solve length "
                                                 r"\d+\): complement of degree \d+ misses"):
            synthesize_shifter(1868.0, L)

    @pytest.mark.parametrize("T", [1e-300, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 0.01, 0.03])
    def test_small_strength_certified(self, T):
        # these strengths used to get L = 2, where completion cannot pin
        # A(0) = 1 with a nonzero C; from T = 1e-6 down the 8*delta budget
        # (6.7e-19 there) lies below double-precision rounding of the
        # product.  Up to 1e-7 only harmonic 1 is live, and the peel must
        # still use a core of length 4: a length-2 core realizes only C = 0
        L = select_L_empirical(T)
        spec = synthesize_shifter(T, L)
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


class TestSolveLengthCut:
    @staticmethod
    def stop_at_truncation(monkeypatch):
        """Make ``_certified_shifters`` stop where it truncates, so the solve
        length shows in its message, and count the cut's bound evaluations."""
        calls = []
        bound = qsp.truncation_error_bound

        def counted(T, L):
            calls.append(L)
            return bound(T, L)

        def stop(T, L):
            raise SynthesisError("stopped")

        monkeypatch.setattr(qsp, "truncation_error_bound", counted)
        monkeypatch.setattr(qsp, "truncate_target", stop)
        return calls

    @staticmethod
    def solve_length(T, L):
        with pytest.raises(SynthesisError, match="stopped") as err:
            qsp._certified_shifters([(T, L)])
        return int(re.search(r"solve length (\d+)\)", str(err.value)).group(1))

    def test_cut_equals_the_loop(self, monkeypatch):
        # T = 1 at L = 40 cuts to 20; lengths far past the bound cut to
        # where it meets 1e-10, lengths short of it are not cut
        self.stop_at_truncation(monkeypatch)
        assert self.solve_length(1.0, 40) == 20
        for T in (1e-300, 1e-15, 1e-6, 0.25, 1.0, 2.0, 8.0, 48.0, 1024.0, 2048.0):
            for L in [*range(2, 122, 2), 400, 1000, 5580, 20000]:
                assert self.solve_length(T, L) == cut_loop(T, L), (T, L)

    @pytest.mark.parametrize("T", [1, 2, 4, 8, 16, 32, 48, 2048])
    def test_uncut_length_costs_one_evaluation(self, monkeypatch, T):
        # at every calibrated and certified length nothing is cut, and the
        # cut evaluates the bound once, two below the length
        calls = self.stop_at_truncation(monkeypatch)
        for L in (select_L_empirical(T), select_L(T, 0.05 / math.sqrt(2.0))):
            calls.clear()
            assert self.solve_length(float(T), L) == L
            assert calls == [L - 2]

    @pytest.mark.parametrize("T,L", [(1.0, 40), (8.0, 100), (48.0, 400)])
    def test_cut_synthesis_certified_at_solve_length(self, T, L):
        # past where the bound meets rounding, synthesis solves at the cut
        # length, pads with cancelling pairs up to L, and is certified there
        l_solve = cut_loop(T, L)
        assert l_solve < L
        spec = synthesize_shifter(T, L)
        assert spec.L == len(spec.angles) == L
        assert spec.angles.residual <= 1e-8
        delta = truncation_error_bound(T, l_solve)
        assert spec.eps_oc == state_error_bound(delta)
        thetas = chebyshev_grid(4096)
        A, C = realized_functions(spec.angles.xi, thetas)
        dev = np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(thetas))))
        assert dev <= 8.0 * delta


def closed_form_length(T, eps_oc):
    """The closed-form length, the smallest even integer at or above ``e^2 T
    + 4 ln(1/eps_oc) + 10``, which the certificate never needs to exceed."""
    return 2 * math.ceil((math.e ** 2 * T + 4.0 * math.log(1.0 / eps_oc) + 10.0) / 2.0 - 1e-9)


def minimal_length_loop(T):
    """The nearest-even root as a loop: the first integer ``n`` whose log
    bound at ``h = n + 3/2`` is at or below the threshold, ``L = 2n``, at
    least 4."""
    log_thr = math.log(qsp.BIAS_DELTA_THRESHOLD)
    n = 0
    while qsp._log_truncation_bound(T, n + 1.5) > log_thr:
        n += 1
    return max(4, 2 * n)


def fit_length(T):
    """The linear fit ``2.72 T + 13.64``, rounded up to even, that was the
    calibrated length from ``T = 10`` up."""
    return 2 * math.ceil((2.72 * T + 13.64) / 2.0)


class TestResourceSelectors:
    def test_minimal_length_equals_the_loop(self):
        # the calibrated length is the nearest-even root at every strength,
        # with no fit from T = 10 up
        for T in [*range(1, 2049), *np.logspace(-12, 3, 2000)]:
            assert select_L_empirical(float(T)) == minimal_length_loop(float(T)), T

    def test_never_longer_than_the_fit(self):
        # equal at 95 integer strengths, 2 to 8 shorter at the rest
        shorter = [fit_length(T) - select_L_empirical(float(T)) for T in range(10, 2049)]
        assert min(shorter) >= 0
        assert max(shorter) == 8

    def test_minimal_length_is_a_search(self, monkeypatch):
        # 35 evaluations at T = 1e5 (L = 271836), where the loop made one
        # per harmonic, 135,919
        calls = []
        bound = qsp._log_truncation_bound

        def counted(T, h):
            calls.append(h)
            return bound(T, h)

        monkeypatch.setattr(qsp, "_log_truncation_bound", counted)
        assert select_L_empirical(1e5) == 271836
        assert len(calls) <= 40

    def test_select_l_constant_term(self):
        # the minimum length: at T = 1e-15 the bound at L = 4 is 8.3e-47
        assert select_L(1e-15, 1.0 - 1e-12) == 4

    def test_select_l_values(self):
        # state errors 0.0142 at L = 12 and 0.00353 at L = 14; 0.0726 at
        # L = 38 and 0.0350 at L = 40
        assert select_L(1.0, 0.01) == 14
        assert select_L(10.0, 0.05) == 40

    @pytest.mark.parametrize("eps_oc", [0.01, 0.05 / math.sqrt(2.0),
                                        0.05 / (math.sqrt(2.0) * 1024)])
    @pytest.mark.parametrize("T", [1e-15, 0.25, 1.0, 8.0, 48.0, 1024.0, 2048.0])
    def test_select_l_is_shortest_certified(self, T, eps_oc):
        # the certificate holds at L and fails two below, the length is
        # never above the closed form e^2 T + 4 ln(1/eps_oc) + 10, and
        # synthesis does not cut it.  The smallest budget, 3.45e-5, lies
        # below the floor, the state error at the solve length, at T = 1, 8,
        # 1024 and 2048: 3.96e-5 at T = 1 (length 20), 5.59e-5 at T = 2048
        # (5604); at T = 48 L = 168 meets it uncut
        if eps_oc < 1e-4 and T in (1.0, 8.0, 1024.0, 2048.0):
            l_solve = cut_loop(T, closed_form_length(T, eps_oc))
            floor = state_error_bound(truncation_error_bound(T, l_solve))
            assert floor > eps_oc
            with pytest.raises(DomainError, match=(
                    f"^state-error budget {eps_oc:.3g} at T={T:g} is below the floor "
                    f"{floor:.3g} that synthesis certifies at its solve length {l_solve}$")):
                select_L(T, eps_oc)
            return
        L = select_L(T, eps_oc)
        assert L >= 4 and L % 2 == 0
        assert state_error_bound(truncation_error_bound(T, L)) <= eps_oc
        if L > 4:
            assert state_error_bound(truncation_error_bound(T, L - 2)) > eps_oc
        assert L <= closed_form_length(T, eps_oc)
        assert cut_loop(T, L) == L

    def test_select_l_domain(self):
        with pytest.raises(DomainError):
            select_L(1.0, 0.0)
        with pytest.raises(DomainError):
            select_L(1.0, 1.5)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_strength_domain(self, T):
        # NaN used to pass the T <= 0 guards and inf to overflow; the
        # selectors returned a length for a negative strength
        for fn in (lambda t: synthesize_shifter(t, 10),
                   select_L_empirical, lambda t: truncate_target(t, 10),
                   lambda t: select_L(t, 0.01)):
            with pytest.raises(DomainError, match="positive and finite"):
                fn(T)

    def test_empirical_table(self):
        assert [select_L_empirical(t) for t in (1, 2, 4, 8)] == [10, 14, 22, 34]

    def test_empirical_fit_regime(self):
        # where the fit 2.72 T + 13.64 gave 58: the bound at h = 29.5 is
        # 3.6e-5, below the threshold 3.813e-5, and 1.3e-4 at h = 28.5
        assert select_L_empirical(16.0) == 56

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


def assert_same_shifter(loaded, spec):
    """Every field of a reloaded shifter equals the synthesized one's, the
    certified row bit for bit."""
    assert (loaded.T, loaded.L, loaded.angles.residual, loaded.eps_oc) == \
        (spec.T, spec.L, spec.angles.residual, spec.eps_oc)
    assert np.array_equal(loaded.angles.xi, spec.angles.xi)
    assert loaded.angles.row.tobytes() == spec.angles.row.tobytes()


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = synthesize_shifter(2.0, 14)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        assert_same_shifter(load_angles(path), spec)

    @pytest.mark.parametrize("T,L", [(1.0, 10), (1.0, 40), (8.0, 34), (48.0, 144)])
    def test_loaded_row_is_synthesized_row(self, tmp_path, T, L):
        # loading re-certifies the angles and keeps the row it measured,
        # which is synthesis's bit for bit, and so are the analytic blocks
        spec = synthesize_shifter(T, L)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        loaded = load_angles(path)
        assert loaded.angles.row.tobytes() == spec.angles.row.tobytes()
        thetas = np.linspace(0.0, np.pi / 2, 5)
        assert eigenphase_blocks(loaded, thetas, [1])[1].tobytes() == \
            eigenphase_blocks(spec, thetas, [1])[1].tobytes()

    @pytest.mark.parametrize("T,L", [(1.0, 40), (2.0, 60), (8.0, 100),
                                     (8.0, select_L_empirical(8.0))])
    def test_roundtrip_keeps_certificate(self, tmp_path, T, L):
        # synthesis truncates and certifies below L once the bound reaches
        # rounding level; a reloaded file must be certified there too, not
        # at the full L, which gave 1.09e-12 instead of 3.96e-05 at T=1/L=40
        spec = synthesize_shifter(T, L)
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        assert_same_shifter(load_angles(path), spec)

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48])
    def test_roundtrip_recomputes_residual(self, tmp_path, T):
        # the residual is recomputed from the angles, not read from the
        # header, and equals the synthesized one bit for bit
        spec = synthesize_shifter(float(T), select_L_empirical(T))
        path = tmp_path / "angles.txt"
        save_angles(path, spec)
        path.write_text(path.read_text().replace(" Wz %.17g" % spec.angles.residual,
                                                 " Wz 0", 1))
        assert_same_shifter(load_angles(path), spec)

    def test_rejects_corrupted_angles(self, tmp_path):
        # one angle moved by 0.3 misses exp(-8i sin theta) by 0.047 on 4001
        # points; the header still claims the synthesized residual 1.02e-12
        spec = synthesize_shifter(8.0, 34)
        xi = spec.angles.xi.copy()
        xi[0] += 0.3
        thetas = chebyshev_grid(4001)
        A, C = realized_functions(xi, thetas)
        assert np.max(np.abs(A + 1j * C - np.exp(-8j * np.sin(thetas)))) > 0.04
        path = tmp_path / "corrupted.txt"
        save_angles(path, PhaseShifterSpec(T=8.0, L=34, eps_oc=spec.eps_oc,
                                           angles=AngleSequence(xi, spec.angles.residual)))
        with pytest.raises(SynthesisError) as err:
            load_angles(path)
        message = str(err.value)
        assert message.startswith(f"angle file {path}: shifter T=8.0, L=34 (solve length 34): "
                                  "angles miss the target: residual ")
        assert "peel" not in message

    def test_rejects_header_strength_mismatch(self, tmp_path):
        # the T = 8 angles relabelled 7.5 miss that target by 1.41
        path = tmp_path / "relabelled.txt"
        save_angles(path, synthesize_shifter(8.0, 34))
        path.write_text(path.read_text().replace("8 34 ", "7.5 34 ", 1))
        with pytest.raises(SynthesisError, match=r"^angle file .*relabelled\.txt: shifter "
                           r"T=7\.5, L=34 .*: angles miss the target: residual 1\.41, ") as err:
            load_angles(path)
        assert "peel" not in str(err.value)

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

    @pytest.mark.parametrize("residual", ["nan", "inf", "-inf", "-1e-15"])
    def test_rejects_bad_residual(self, tmp_path, residual):
        path = tmp_path / "angles.txt"
        path.write_text(f"1 4 Wz {residual}\n" + "0\n" * 4)
        with pytest.raises(ValueError, match="finite residual"):
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

    @pytest.mark.parametrize("header,angles", [("1 4 Wz 0", "0\nx\n0\n0\n"),
                                               ("abc 4 Wz 0", "0\n" * 4),
                                               ("1 four Wz 0", "0\n" * 4)])
    def test_non_numeric_field_names_the_file(self, tmp_path, header, angles):
        path = tmp_path / "angles.txt"
        path.write_text(f"{header}\n{angles}")
        with pytest.raises(ValueError, match=rf"^angle file {re.escape(str(path))} holds a "
                           "field that is not a number: "):
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
