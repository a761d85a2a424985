import itertools
import math

import numpy as np
import pytest

from pae import (CapacityError, MeasurementSetting, ParallelCircuit,
                 branch_states, ghz_depth, ideal_branch_unitary,
                 ideal_setting_probability, make_instance, setting_probability,
                 statevector_even_parity_probability, synthesize_shifter)
from pae.circuit import sample_even_parity
from pae.qsp import AngleSequence, PhaseShifterSpec


def ideal_spec(T: float) -> PhaseShifterSpec:
    """A shifter whose branch unitary is the exact relative phase shifter."""
    spec = PhaseShifterSpec(T=T, L=0, angles=AngleSequence(xi=np.zeros(0)), eps_oc=0.0)
    spec.branch_unitary = lambda theta: ideal_branch_unitary(
        T, 2.0 * math.cos(2.0 * theta))
    return spec


def enumerated_even_parity(state: np.ndarray, P: int) -> float:
    """Brute-force parity probability on the full (C^2 x C^2)^P state.

    X-measures every ancilla (unmeasured plane index summed out) and adds up
    the outcomes with an even number of minus results.
    """
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    total = 0.0
    tensor = state.reshape([2] * (2 * P))   # (b_1, s_1, b_2, s_2, ...)
    for outcome in itertools.product((0, 1), repeat=P):
        amp = tensor
        for p, bit in enumerate(outcome):
            vec = minus if bit else plus
            # after p contractions the ancilla axis of branch p+1 sits at p
            amp = np.tensordot(vec.conj(), amp, axes=([0], [p]))
        if sum(outcome) % 2 == 0:
            total += float(np.sum(np.abs(amp) ** 2))
    return total


def full_state(circuit: ParallelCircuit, setting: MeasurementSetting) -> np.ndarray:
    st = branch_states(circuit)
    ph0, ph1 = st.phi0, st.phi1
    if setting is MeasurementSetting.PLUS_I:
        rot = np.kron(np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]),
                      np.eye(2))
        branch0 = (rot @ ph0, rot @ ph1)
    else:
        branch0 = (ph0, ph1)
    v0, v1 = branch0
    for _ in range(circuit.P - 1):
        v0 = np.kron(v0, ph0)
        v1 = np.kron(v1, ph1)
    return (v0 + v1) / np.sqrt(2.0)


class TestBranchStates:
    def test_ideal_phases(self):
        circuit = ParallelCircuit(P=1, spec=ideal_spec(1.0), S=1,
                                  instance=make_instance(0.2))
        st = branch_states(circuit)
        phi = circuit.instance.phi
        expect0 = np.exp(-0.5j * phi) * np.array([1, 0, 0, 0])
        expect1 = np.exp(+0.5j * phi) * np.array([0, 0, 1, 0])
        assert np.allclose(st.phi0, expect0, atol=1e-14)
        assert np.allclose(st.phi1, expect1, atol=1e-14)

    def test_synthesized_close_to_ideal(self):
        spec = synthesize_shifter(1.0, 10)
        circuit = ParallelCircuit(P=1, spec=spec, S=1, instance=make_instance(0.5))
        st = branch_states(circuit)
        phi = circuit.instance.phi
        assert np.linalg.norm(st.phi0 - np.exp(-0.5j * phi) * np.eye(4)[:, 0]) <= spec.eps_oc
        assert np.linalg.norm(st.phi1 - np.exp(+0.5j * phi) * np.eye(4)[:, 2]) <= spec.eps_oc

    def test_sequential_squares_single_step(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.3)
        single = spec.branch_unitary(inst.theta)
        st = branch_states(ParallelCircuit(P=1, spec=spec, S=2, instance=inst))
        assert np.allclose(st.phi0, single @ single[:, 0], atol=1e-13)
        assert abs(np.linalg.norm(st.phi0) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(st.phi1) - 1.0) <= 1e-12


class TestSettingProbability:
    def test_ideal_plus_at_phi_zero(self):
        circuit = ParallelCircuit(P=1, spec=ideal_spec(1.0), S=1,
                                  instance=make_instance(0.5))
        assert setting_probability(circuit, MeasurementSetting.PLUS) == pytest.approx(1.0, abs=1e-14)

    def test_ideal_p2_closed_form_and_enumeration(self):
        circuit = ParallelCircuit(P=2, spec=ideal_spec(1.0), S=1,
                                  instance=make_instance(0.0))
        p = setting_probability(circuit, MeasurementSetting.PLUS)
        assert p == pytest.approx((1 + math.cos(4.0)) / 2, abs=1e-13)
        assert p == pytest.approx(0.1731781895681957, abs=1e-12)
        enum = enumerated_even_parity(full_state(circuit, MeasurementSetting.PLUS), 2)
        assert p == pytest.approx(enum, abs=1e-12)

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_plus_i_closed_form_vs_enumeration(self, P):
        circuit = ParallelCircuit(P=P, spec=ideal_spec(1.0), S=1,
                                  instance=make_instance(0.0))
        p = setting_probability(circuit, MeasurementSetting.PLUS_I)
        assert p == pytest.approx((1 + math.sin(2.0 * P)) / 2, abs=1e-12)
        enum = enumerated_even_parity(full_state(circuit, MeasurementSetting.PLUS_I), P)
        assert p == pytest.approx(enum, abs=1e-12)

    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.77])
    def test_synthesized_vs_enumeration(self, P, a):
        spec = synthesize_shifter(1.0, 10)
        circuit = ParallelCircuit(P=P, spec=spec, S=1, instance=make_instance(a))
        for setting in MeasurementSetting:
            p = setting_probability(circuit, setting)
            enum = enumerated_even_parity(full_state(circuit, setting), P)
            assert p == pytest.approx(enum, abs=1e-12)

    def test_parity_identity_ideal(self):
        # with the exact shifter, both settings match the closed forms
        worst = 0.0
        for a in np.linspace(0.0, 1.0, 11):
            inst = make_instance(float(a))
            for m in (1, 2, 8, 64):
                circuit = ParallelCircuit(P=m, spec=ideal_spec(1.0), S=1, instance=inst)
                pp = setting_probability(circuit, MeasurementSetting.PLUS)
                pi_ = setting_probability(circuit, MeasurementSetting.PLUS_I)
                worst = max(worst,
                            abs(pp - (1 + math.cos(m * inst.phi)) / 2),
                            abs(pi_ - (1 + math.sin(m * inst.phi)) / 2))
        assert worst <= 1e-12

    def test_bias_bound(self):
        # measured |bias| <= sqrt(2) P max_j ||(V - Videal)|j>|0..0>||
        spec = synthesize_shifter(1.0, 10)
        for P in (1, 2, 4):
            for a in np.linspace(0.0, 1.0, 11):
                inst = make_instance(float(a))
                v = spec.branch_unitary(inst.theta)
                ideal = ideal_branch_unitary(1.0, inst.phi)
                state_err = max(np.linalg.norm((v - ideal)[:, col]) for col in (0, 2))
                circuit = ParallelCircuit(P=P, spec=spec, S=1, instance=inst)
                for setting in MeasurementSetting:
                    beta = abs(setting_probability(circuit, setting)
                               - ideal_setting_probability(P, inst.phi, setting))
                    assert beta <= math.sqrt(2.0) * P * state_err + 1e-12


class TestSampling:
    def test_certain_outcomes(self):
        circuit = ParallelCircuit(P=1, spec=ideal_spec(1.0), S=1,
                                  instance=make_instance(0.5))
        p = setting_probability(circuit, MeasurementSetting.PLUS)
        assert sample_even_parity(p, 1000, seed=1) == 1000
        assert sample_even_parity(0.0, 1000, seed=1) == 0
        assert sample_even_parity(1.0, 1000, seed=1) == 1000

    def test_binomial_concentration(self):
        count = sample_even_parity(0.5, 100000, seed=321)
        assert abs(count - 50000) <= 790    # 5 sigma

    def test_determinism(self):
        assert sample_even_parity(0.37, 5000, seed=7) == sample_even_parity(0.37, 5000, seed=7)

    @pytest.mark.parametrize("p", [math.nan, -1e-12, 1.0 + 1e-15, 1.3])
    def test_rejects_invalid_probability(self, p):
        # a NaN used to give 0 counts and 1.3 all shots, without a word
        with pytest.raises(ValueError):
            sample_even_parity(p, 100, seed=1)
        with pytest.raises(ValueError):
            sample_even_parity(np.array([[0.5, p]]), 100, seed=1)

    def test_array_of_probabilities(self):
        counts = sample_even_parity(np.array([[0.0, 1.0], [0.0, 1.0]]), 50, seed=4)
        assert counts.shape == (2, 2)
        assert counts.tolist() == [[0, 50], [0, 50]]

    def test_count_statistics(self):
        # mean and variance of the counts over 4000 seeds within 5 sigma of
        # the binomial nu p and nu p (1 - p)
        p, nu, seeds = 0.37, 19, 4000
        counts = np.array([sample_even_parity(p, nu, seed=s) for s in range(seeds)])
        mean, var = nu * p, nu * p * (1 - p)
        mu4 = var * (1 + 3 * (nu - 2) * p * (1 - p))     # fourth central moment
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / seeds)
        assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var ** 2) / seeds)


class TestStatevectorBackend:
    def test_identity_target_full_counts(self):
        spec = synthesize_shifter(1e-15, 2)
        circuit = ParallelCircuit(P=1, spec=spec, S=1, instance=make_instance(0.3, 2))
        p = statevector_even_parity_probability(circuit, MeasurementSetting.PLUS)
        assert sample_even_parity(p, 500, seed=3) == 500

    def test_matches_analytic(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(math.sin(math.pi / 8) ** 2, 2)
        circuit = ParallelCircuit(P=2, spec=spec, S=1, instance=inst)
        for setting in MeasurementSetting:
            pa = setting_probability(circuit, setting)
            pv = statevector_even_parity_probability(circuit, setting)
            assert abs(pa - pv) <= 1e-10

    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_analytic_grid(self, P, n):
        spec = synthesize_shifter(1.0, 10)
        for a in (0.0, 0.3, 1.0):
            circuit = ParallelCircuit(P=P, spec=spec, S=1, instance=make_instance(a, n))
            for setting in MeasurementSetting:
                pa = setting_probability(circuit, setting)
                pv = statevector_even_parity_probability(circuit, setting)
                assert abs(pa - pv) <= 1e-10

    def test_matches_closed_form_within_bias(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.0, 2)
        circuit = ParallelCircuit(P=3, spec=spec, S=1, instance=inst)
        pv = statevector_even_parity_probability(circuit, MeasurementSetting.PLUS)
        ideal = (1 + math.cos(3 * 2.0)) / 2
        assert abs(pv - ideal) <= math.sqrt(2.0) * 3 * spec.eps_oc

    def test_random_oracle_dressing_is_immaterial(self):
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.42, 2)
        circuit = ParallelCircuit(P=2, spec=spec, S=1, instance=inst)
        p_can = statevector_even_parity_probability(circuit, MeasurementSetting.PLUS)
        p_rnd = statevector_even_parity_probability(circuit, MeasurementSetting.PLUS,
                                                    oracle_style="random", oracle_seed=11)
        assert abs(p_can - p_rnd) <= 1e-10

    def test_capacity_guard(self):
        spec = synthesize_shifter(1.0, 10)
        circuit = ParallelCircuit(P=8, spec=spec, S=1, instance=make_instance(0.5, 2))
        with pytest.raises(CapacityError):
            statevector_even_parity_probability(circuit, MeasurementSetting.PLUS)

    def test_counts_match_analytic_sampler(self):
        # equal seeds, equal probabilities -> equal counts across backends
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.25, 2)
        circuit = ParallelCircuit(P=2, spec=spec, S=1, instance=inst)
        for setting in MeasurementSetting:
            ca = sample_even_parity(setting_probability(circuit, setting), 4000, seed=99)
            cv = sample_even_parity(statevector_even_parity_probability(circuit, setting),
                                    4000, seed=99)
            assert ca == cv


class TestGhzDepth:
    @pytest.mark.parametrize("P,layers", [(1, 0), (2, 1), (3, 2), (4, 2), (64, 6)])
    def test_values(self, P, layers):
        assert ghz_depth(P) == layers
