import math

import numpy as np
import pytest

from pae import (DomainError, estimate_phase, finalize, ideal_probabilities,
                 make_instance, mse_bound, schedule_nu, step_phase, unwrap_step)
from pae.rpe import ROBUSTNESS_LIMIT

TWO_PI = 2.0 * math.pi


def exact_frequencies(phi: float, K: int) -> np.ndarray:
    """``(K, 2)`` noiseless frequencies, columns PLUS and PLUS_I."""
    return np.array([[(1 + math.cos(m * phi)) / 2, (1 + math.sin(m * phi)) / 2]
                     for m in (2 ** (k - 1) for k in range(1, K + 1))])


def per_step_estimate(freqs: np.ndarray):
    """Reference recovery one step at a time: each step's two ``(n,)``
    columns through their own step-phase evaluation and unwrap."""
    trajectory = []
    prev = None
    for k in range(1, freqs.shape[1] + 1):
        y = 2.0 * np.asarray(freqs[:, k - 1, 1]) - 1.0
        x = 2.0 * np.asarray(freqs[:, k - 1, 0]) - 1.0
        val = np.arctan2(y, x)
        prev = unwrap_step(k, val + 2.0 * math.pi * (val < 0.0), prev)
        trajectory.append(prev)
    return finalize(trajectory)


class TestStepPhase:
    def test_axis_cases(self):
        assert step_phase(1.0, 0.5) == 0.0
        assert step_phase(0.5, 1.0) == pytest.approx(math.pi / 2)

    def test_ideal_frequencies_at_phi_two(self):
        # f_plus = (1+cos 2)/2 = 0.2919.., f_i = (1+sin 2)/2 = 0.9546..
        assert step_phase((1 + math.cos(2.0)) / 2,
                          (1 + math.sin(2.0)) / 2) == pytest.approx(2.0, abs=1e-14)

    def test_tie_returns_zero(self):
        assert step_phase(0.5, 0.5) == 0.0

    def test_range(self):
        assert 0.0 <= step_phase(0.1, 0.2) < TWO_PI

    def test_elementwise_over_a_table(self):
        f = np.random.default_rng(3).uniform(0.0, 1.0, (5, 4, 2))
        table = step_phase(f[..., 0], f[..., 1])
        assert table.shape == (5, 4)
        assert table.tolist() == [[float(step_phase(*pair)) for pair in row] for row in f]


class TestUnwrapStep:
    def test_base_case(self):
        assert unwrap_step(1, 1.234) == 1.234

    def test_lower_candidate_selected(self):
        # prev = 0 and base estimate pi - 0.01: the m = eta - 1 candidate
        # (-0.01, wrapped) lies within pi/2 of the previous estimate
        phi_step = (2 * (math.pi - 0.01)) % TWO_PI
        out = unwrap_step(2, phi_step, prev=0.0)
        dist = min(abs(out - 0.0), TWO_PI - abs(out - 0.0))
        assert dist <= math.pi / 2
        assert out == pytest.approx(TWO_PI - 0.01, abs=1e-12)

    def test_middle_candidate_when_consistent(self):
        # exact data for phi' = 0.8: candidate eta keeps the estimate
        prev = 0.8
        phi_step = (2 * 0.8) % TWO_PI
        assert unwrap_step(2, phi_step, prev=prev) == pytest.approx(0.8, abs=1e-13)

    def test_prev_contract(self):
        with pytest.raises(DomainError):
            unwrap_step(2, 0.3)
        with pytest.raises(DomainError):
            unwrap_step(1, 0.3, prev=0.1)

    def test_noiseless_sqrt2_trajectory(self):
        phi = math.sqrt(2.0)
        prev = None
        for k in range(1, 6):
            m = 2 ** (k - 1)
            f_plus = (1 + math.cos(m * phi)) / 2
            f_i = (1 + math.sin(m * phi)) / 2
            step = step_phase(f_plus, f_i)
            prev = unwrap_step(k, step, prev)
        assert prev == pytest.approx(phi, abs=1e-12)

    def test_monotone_confidence(self):
        # every accepted candidate lies within pi/2^(k-1) of its predecessor
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = float(rng.uniform(-2.0, 2.0))
            prev = None
            for k in range(1, 8):
                m = 2 ** (k - 1)
                f_plus = min(max((1 + math.cos(m * phi)) / 2 + rng.uniform(-0.04, 0.04), 0), 1)
                f_i = min(max((1 + math.sin(m * phi)) / 2 + rng.uniform(-0.04, 0.04), 0), 1)
                step = step_phase(f_plus, f_i)
                out = unwrap_step(k, step, prev)
                if k > 1:
                    dist = min(abs(out - prev), TWO_PI - abs(out - prev))
                    assert dist <= math.pi / 2 ** (k - 1) + 1e-9
                prev = out


class TestFinalize:
    def test_zero(self):
        est = finalize([0.0])
        assert est.phi_hat == 0.0 and est.a_hat == 0.5

    def test_boundary_low_amplitude(self):
        est = finalize([2.0])
        assert est.phi_hat == pytest.approx(2.0) and est.a_hat == 0.0

    def test_boundary_high_amplitude(self):
        est = finalize([TWO_PI - 2.0])
        assert est.phi_hat == pytest.approx(-2.0, abs=1e-14)
        assert est.a_hat == 1.0

    def test_clamping(self):
        est = finalize([2.5])   # phi outside the encodable [-2, 2]
        assert est.a_hat == 0.0


class TestNoiselessExactness:
    def test_recovery_grid(self):
        K = 9
        worst = 0.0
        for a in np.linspace(0.0, 1.0, 101):
            inst = make_instance(float(a))
            est = estimate_phase(exact_frequencies(inst.phi, K))
            worst = max(worst, abs(est.phi_hat - inst.phi))
            assert est.a_hat == pytest.approx(a, abs=1e-9)
        assert worst <= math.pi * 2.0 ** (-K)


class TestEstimatePhase:
    @pytest.mark.parametrize("K", range(1, 12))
    def test_table_equals_per_step_recovery(self, K):
        # the whole table at once gives the bits of the step-by-step loop,
        # on sampled frequencies (ties and 0/1 included) and on uniform ones
        rng = np.random.default_rng(1900 + K)
        for n in (1, 2, 17, 200):
            nu = rng.integers(1, 30, size=(K, 1))
            for freqs in (rng.binomial(nu, rng.uniform(0.0, 1.0, (n, K, 2))) / nu,
                          rng.uniform(0.0, 1.0, (n, K, 2))):
                got, want = estimate_phase(freqs), per_step_estimate(freqs)
                assert np.array_equal(got.phi_hat, want.phi_hat)
                assert np.array_equal(got.a_hat, want.a_hat)
                assert len(got.trajectory) == len(want.trajectory) == K
                for g, w in zip(got.trajectory, want.trajectory):
                    assert np.array_equal(g, w)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2), (2,)])
    def test_rejects_table_without_steps(self, shape):
        # (0, 2) used to end in a bare IndexError in finalize
        with pytest.raises(DomainError, match="^recovery needs at least one step"):
            estimate_phase(np.zeros(shape))

    def test_leading_axes_carried_through(self):
        freqs = np.random.default_rng(4).uniform(0.0, 1.0, (3, 5, 6, 2))
        est = estimate_phase(freqs)
        assert est.phi_hat.shape == est.a_hat.shape == (3, 5)
        flat = estimate_phase(freqs.reshape(15, 6, 2))
        assert np.array_equal(est.a_hat.reshape(-1), flat.a_hat)


class TestMseBound:
    def test_surviving_resolution_term(self):
        val = mse_bound(1, [10 ** 9], beta=0.0)
        assert val == pytest.approx((2 * math.pi / 3) ** 2 / 4, rel=1e-9)

    def test_proof_schedule_meets_target(self):
        # K = ceil(log2(1/eps)) + 6 with eps = 0.1 gives K = 10; the
        # theoretical shot schedule drives the bound below eps^2
        eps = 0.1
        K = math.ceil(math.log2(1 / eps)) + 6
        nu = [schedule_nu(K, k, variant="theoretical", beta=0.0) for k in range(1, K + 1)]
        assert mse_bound(K, nu, beta=0.0) < eps ** 2

    def test_near_limit_bias(self):
        beta = ROBUSTNESS_LIMIT - 1e-6
        val = mse_bound(4, [10, 10, 10, 10], beta=beta)
        # exponential factors collapse to ~1, the step terms dominate
        expected = (2 * math.pi / 3) ** 2 * (4.0 ** -4 + sum(4.0 ** (4 - k) for k in range(1, 5)))
        assert val == pytest.approx(expected, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            mse_bound(2, [5, 5], beta=ROBUSTNESS_LIMIT)
        with pytest.raises(DomainError):
            mse_bound(3, [5, 5], beta=0.0)


class TestScheduleNu:
    def test_theoretical_final_step(self):
        assert schedule_nu(9, 9, variant="theoretical", beta=0.05) == 1

    def test_theoretical_first_step(self):
        # 1 + ceil(ln(6) * 8 / (2 (sqrt(6)/8 - 0.05)^2)) = 111
        assert schedule_nu(9, 1, variant="theoretical", beta=0.05) == 111

    def test_optimized_final_step(self):
        assert schedule_nu(9, 9, variant="optimized", nu_final=7) == 7

    def test_optimized_slope(self):
        assert schedule_nu(9, 8, variant="optimized", nu_final=7) == round(4.0835 + 7)
        assert schedule_nu(9, 1, variant="optimized", nu_final=18) == round(4.0835 * 8 + 18)

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            schedule_nu(3, 1, variant="exotic")

    @pytest.mark.parametrize("nu_final", [0, -3])
    def test_optimized_rejects_nonpositive_final(self, nu_final):
        # 0 final shots gave rmse = nan and -3 a negative binomial count; the
        # final step takes the fewest shots, so every step is refused
        for k in (1, 3):
            with pytest.raises(DomainError, match="final shot count"):
                schedule_nu(3, k, variant="optimized", nu_final=nu_final)


class TestEmpiricalMse:
    @pytest.mark.parametrize("K", [3, 5, 7])
    def test_sample_mse_below_bound(self, K):
        # >= 1000 seeded trials with injected bias up to 0.05: the sample MSE
        # stays below the closed-form bound (one-sided, 3 sigma estimator slack)
        beta_max = 0.05
        trials = 1000
        rng = np.random.default_rng(2024 + K)
        nu = [schedule_nu(K, k, variant="theoretical", beta=beta_max)
              for k in range(1, K + 1)]
        bound = mse_bound(K, nu, beta=beta_max)
        sq_errors = np.empty(trials)
        for t in range(trials):
            a = float(rng.uniform(0.0, 1.0))
            inst = make_instance(a)
            bias = float(rng.uniform(-beta_max, beta_max))
            freqs = []
            for k in range(1, K + 1):
                m = 2 ** (k - 1)
                ideal_plus, ideal_i = ideal_probabilities(m, inst.phi)
                p_plus = min(max(ideal_plus + bias, 0.0), 1.0)
                p_i = min(max(ideal_i + bias, 0.0), 1.0)
                freqs.append([rng.binomial(nu[k - 1], p_plus) / nu[k - 1],
                              rng.binomial(nu[k - 1], p_i) / nu[k - 1]])
            est = estimate_phase(freqs)
            sq_errors[t] = (est.phi_hat - inst.phi) ** 2
            # amplitude error never exceeds phase error
            assert abs(est.a_hat - a) <= abs(est.phi_hat - inst.phi) + 1e-12
        sample_mse = float(np.mean(sq_errors))
        slack = 3.0 * float(np.std(sq_errors)) / math.sqrt(trials)
        assert sample_mse <= bound + slack
