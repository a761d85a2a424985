import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pae import (CapacityError, MeasurementSetting, ParallelCircuit,
                 build_branch_unitary, build_explicit_oracle, build_grover_unitary,
                 ghz_depth, make_instance, parity_probabilities,
                 setting_probability, statevector_even_parity_probability,
                 step_probabilities, synthesize_shifter)
from pae.circuit import (analytic_stage, check_capacity, controlled_grover_blocks,
                         sample_even_parity, statevector_stage)
from pae.circuit import ideal_probabilities as closed_form
from pae.core_model import DomainError
from pae.driver import ScheduleStep
from pae.qsp import AngleSequence, controlled_grover, rotation_product
from conftest import ideal_branch_unitary, kron_shifter

_X_ANC = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
_Y_ANC = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.eye(2)).astype(complex)


def contract_one(blocks: np.ndarray, P: int) -> np.ndarray:
    """:func:`parity_probabilities` of one step, the stack of one."""
    return parity_probabilities(blocks[None], [P])[0]


def analytic_probabilities(spec, P: int, S: int, thetas) -> np.ndarray:
    """The analytic stage at ``S``, contracted for ``P`` branches."""
    return contract_one(analytic_stage([(spec, [S])], thetas)[0][S], P)


def grover_blocks(insts, style="canonical", seed=None) -> np.ndarray:
    """The controlled-Grover stack of the explicit oracles of ``style``:
    :func:`controlled_grover_blocks` for the canonical oracle, built here
    block by block for any other."""
    if style == "canonical":
        return controlled_grover_blocks(insts)
    return np.stack([controlled_grover(build_grover_unitary(
        build_explicit_oracle(inst, style=style, seed=seed))) for inst in insts])


def statevector_probabilities(spec, P: int, S: int, insts, style="canonical",
                              seed=None) -> np.ndarray:
    """The statevector stage at ``S`` around the controlled-Grover stack of
    instances of one register size, contracted for ``P`` branches."""
    wq = grover_blocks(insts, style, seed)
    return contract_one(statevector_stage([(spec, [S])], wq)[0][S], P)


def column_blocks(columns: np.ndarray) -> np.ndarray:
    """The ``(2^n, m, 2, 2)`` blocks that :func:`parity_probabilities`
    reads from ``(m, 2^(n+1), 2)`` columns, the ones with the system at
    ``|0^n>``: split by the system basis state, scaled by ``sqrt(2)``."""
    m, dim = columns.shape[:2]
    return np.sqrt(2.0) * columns.reshape(m, 2, dim // 2, 2).transpose(2, 0, 1, 3)


def ideal_probabilities(P: int, phi: float) -> np.ndarray:
    """(PLUS, PLUS_I) probabilities with the exact T = S = 1 shifter: the
    block ``diag(e^{-i phi/2}, e^{+i phi/2})`` on both eigenphases."""
    block = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    return contract_one(np.broadcast_to(block, (2, 1, 2, 2)), P)[0]


def matmul_parity_probabilities(blocks: np.ndarray, P: int) -> np.ndarray:
    """Reference contraction through batched Pauli products: the ``[j, i]``
    entries of ``B^dagger X B`` and ``B^dagger Y B`` averaged over the two
    eigenphases are ``<phi_j|X|phi_i>`` and ``<phi_j|Y|phi_i>``."""
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    adjoint = blocks.conj().swapaxes(-1, -2)
    mx = np.mean(adjoint @ pauli_x @ blocks, axis=0)
    my = np.mean(adjoint @ pauli_y @ blocks, axis=0)
    x0, x1, zx = mx[:, 0, 0].real, mx[:, 1, 1].real, mx[:, 1, 0]
    y0, y1, zy = my[:, 0, 0].real, my[:, 1, 1].real, my[:, 1, 0]
    plus = 0.5 + 0.25 * (x0 ** P + x1 ** P) + 0.5 * (zx ** P).real
    plus_i = (0.5 + 0.25 * (y0 * x0 ** (P - 1) + y1 * x1 ** (P - 1))
              + 0.5 * (zy * zx ** (P - 1)).real)
    return np.clip(np.stack([plus, plus_i], axis=1), 0.0, 1.0)


def haar_u2(rng, shape) -> np.ndarray:
    """Haar-random U(2) matrices: QR of complex Gaussians, phases fixed."""
    g = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def branch_unitary_probability(v: np.ndarray, P: int, S: int,
                               setting: MeasurementSetting) -> float:
    """Reference route through the 4x4 ancilla (x) Grover-plane unitary
    ``v``: branch states ``v^S |j>|0>`` and their 4-vector contractions."""
    vs = np.linalg.matrix_power(v, S)
    ph0, ph1 = vs[:, 0], vs[:, 2]
    x0 = float(np.real(np.vdot(ph0, _X_ANC @ ph0)))
    x1 = float(np.real(np.vdot(ph1, _X_ANC @ ph1)))
    zx = complex(np.vdot(ph1, _X_ANC @ ph0))
    if setting is MeasurementSetting.PLUS:
        p = 0.5 + 0.25 * (x0 ** P + x1 ** P) + 0.5 * (zx ** P).real
    else:
        y0 = float(np.real(np.vdot(ph0, _Y_ANC @ ph0)))
        y1 = float(np.real(np.vdot(ph1, _Y_ANC @ ph1)))
        zy = complex(np.vdot(ph1, _Y_ANC @ ph0))
        p = (0.5 + 0.25 * (y0 * x0 ** (P - 1) + y1 * x1 ** (P - 1))
             + 0.5 * (zy * zx ** (P - 1)).real)
    return min(max(p, 0.0), 1.0)


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


def full_state(v: np.ndarray, P: int, S: int, setting: MeasurementSetting) -> np.ndarray:
    """GHZ-superposed product of ``P`` branch states ``v^S |j>|0>``."""
    vs = np.linalg.matrix_power(v, S)
    ph0, ph1 = vs[:, 0], vs[:, 2]
    if setting is MeasurementSetting.PLUS_I:
        rot = np.kron(np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]),
                      np.eye(2))
        branch0 = (rot @ ph0, rot @ ph1)
    else:
        branch0 = (ph0, ph1)
    v0, v1 = branch0
    for _ in range(P - 1):
        v0 = np.kron(v0, ph0)
        v1 = np.kron(v1, ph1)
    return (v0 + v1) / np.sqrt(2.0)


def einsum_block(state: np.ndarray, gate: np.ndarray, first: int) -> np.ndarray:
    """Reference kernel: ``gate`` on the qubits from ``first`` by ``einsum``."""
    t = state.reshape(2 ** first, gate.shape[1], -1)
    return np.einsum("ab,ibj->iaj", gate, t).reshape(-1)


def literal_cnot(state: np.ndarray, control: int, target: int, nq: int) -> np.ndarray:
    """Reference CNOT: swap the two ``target`` slices of ``control = 1``."""
    t = state.reshape([2] * nq).copy()
    idx0 = [slice(None)] * nq
    idx1 = [slice(None)] * nq
    idx0[control] = idx1[control] = 1
    idx0[target], idx1[target] = 0, 1
    a = t[tuple(idx0)].copy()
    t[tuple(idx0)] = t[tuple(idx1)]
    t[tuple(idx1)] = a
    return t.reshape(-1)


def literal_branch_probability(v, P, n, setting) -> float:
    """Reference statevector route on the full ``P (n + 1)``-qubit register,
    one setting at a time: the GHZ ladder, the branch block ``v`` on every
    branch, the setting's phase gate on ancilla 0, a Hadamard on every
    ancilla, and the probability summed over the even-parity mask."""
    nq = P * (n + 1)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    anc = [p * (n + 1) for p in range(P)]
    state = np.zeros(2 ** nq, dtype=complex)
    state[0] = 1.0
    state = einsum_block(state, hadamard, anc[0])
    for layer in range(ghz_depth(P)):
        stride = 2 ** layer
        for i in range(stride):
            if i + stride < P:
                state = literal_cnot(state, anc[i], anc[i + stride], nq)
    for p in range(P):
        state = einsum_block(state, v, p * (n + 1))
    if setting is MeasurementSetting.PLUS_I:
        phase = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        state = einsum_block(state, phase, anc[0])
    for a in anc:
        state = einsum_block(state, hadamard, a)
    probs = np.abs(state) ** 2
    idx = np.arange(2 ** nq)
    parity = np.zeros(2 ** nq, dtype=np.int64)
    for a in anc:
        parity ^= (idx >> (nq - 1 - a)) & 1
    return min(max(float(np.sum(probs[parity == 0])), 0.0), 1.0)


def literal_statevector_probability(spec, P, S, inst, setting, oracle_style="canonical",
                                    oracle_seed=None) -> float:
    """:func:`literal_branch_probability` with the shifter to the power
    ``S`` around the instance's explicit oracle as the branch block."""
    oracle = build_explicit_oracle(inst, style=oracle_style, seed=oracle_seed)
    wq = controlled_grover(build_grover_unitary(oracle))
    v = np.linalg.matrix_power(kron_shifter(spec.angles.xi, wq), S)
    return literal_branch_probability(v, P, inst.n, setting)


class TestSettingProbability:
    def test_ideal_plus_at_phi_zero(self):
        assert ideal_probabilities(1, make_instance(0.5).phi)[0] == pytest.approx(1.0, abs=1e-14)

    def test_ideal_p2_closed_form_and_enumeration(self):
        phi = make_instance(0.0).phi
        p = ideal_probabilities(2, phi)[0]
        assert p == pytest.approx((1 + math.cos(4.0)) / 2, abs=1e-13)
        assert p == pytest.approx(0.1731781895681957, abs=1e-12)
        state = full_state(ideal_branch_unitary(1.0, phi), 2, 1, MeasurementSetting.PLUS)
        assert p == pytest.approx(enumerated_even_parity(state, 2), abs=1e-12)

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_plus_i_closed_form_vs_enumeration(self, P):
        phi = make_instance(0.0).phi
        p = ideal_probabilities(P, phi)[1]
        assert p == pytest.approx((1 + math.sin(2.0 * P)) / 2, abs=1e-12)
        state = full_state(ideal_branch_unitary(1.0, phi), P, 1, MeasurementSetting.PLUS_I)
        assert p == pytest.approx(enumerated_even_parity(state, P), abs=1e-12)

    @pytest.mark.parametrize("P", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.77])
    def test_synthesized_vs_enumeration(self, P, a):
        # S = 2 checks that one sequential repetition squares the branch
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(a)
        v = build_branch_unitary(spec, inst.theta)
        for S in (1, 2):
            circuit = ParallelCircuit(P=P, spec=spec, S=S, instance=inst)
            for setting in MeasurementSetting:
                p = setting_probability(circuit, setting)
                enum = enumerated_even_parity(full_state(v, P, S, setting), P)
                assert p == pytest.approx(enum, abs=1e-12)

    def test_parity_identity_ideal(self):
        # with the exact shifter, both settings match the closed forms
        worst = 0.0
        for a in np.linspace(0.0, 1.0, 11):
            inst = make_instance(float(a))
            for m in (1, 2, 8, 64):
                pp, pi_ = ideal_probabilities(m, inst.phi)
                worst = max(worst,
                            abs(pp - (1 + math.cos(m * inst.phi)) / 2),
                            abs(pi_ - (1 + math.sin(m * inst.phi)) / 2))
        assert worst <= 1e-12

    def test_closed_form_broadcasts_to_run_table(self):
        # multipliers 2^(k-1) against phis[:, None] give a run's (n, K, 2)
        # table, every entry the scalar closed form bit for bit
        phis = np.array([make_instance(float(a)).phi for a in np.linspace(0.0, 1.0, 7)])
        table = closed_form(2 ** np.arange(5), phis[:, None])
        assert table.shape == (7, 5, 2)
        for phi, rows in zip(phis, table):
            for k, row in enumerate(rows):
                angle = 2 ** k * float(phi)
                assert row.tolist() == [(1 + math.cos(angle)) / 2, (1 + math.sin(angle)) / 2]
        assert closed_form(3, 0.2).shape == (2,)

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
                for setting, ideal_p in zip(MeasurementSetting, closed_form(P, inst.phi)):
                    beta = abs(setting_probability(circuit, setting) - ideal_p)
                    assert beta <= math.sqrt(2.0) * P * state_err + 1e-12


class TestEvenParityProbabilities:
    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("P", [1, 2, 7, 256])
    def test_matches_branch_unitary_route(self, P, S):
        thetas = np.linspace(0.0, np.pi / 2, 17)
        for T, L in ((1.0, 10), (4.0, 22)):
            spec = synthesize_shifter(T, L)
            probs = analytic_probabilities(spec, P, S, thetas)
            assert probs.shape == (len(thetas), 2)
            for theta, row in zip(thetas, probs):
                v = build_branch_unitary(spec, theta)
                for setting, p in zip(MeasurementSetting, row):
                    assert abs(p - branch_unitary_probability(v, P, S, setting)) <= 1e-11

    @pytest.mark.parametrize("S", [1, 2])
    @pytest.mark.parametrize("P", [1, 3, 64])
    def test_batch_equals_single_calls(self, P, S):
        spec = synthesize_shifter(1.0, 12)
        thetas = np.linspace(0.0, np.pi / 2, 33)
        batch = analytic_probabilities(spec, P, S, thetas)
        single = np.concatenate([analytic_probabilities(spec, P, S, [t]) for t in thetas])
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("P", [1, 2, 7, 64, 256])
    def test_elementwise_contraction_matches_pauli_matmul(self, P):
        # on Haar U(2) blocks, not only SU(2), and on synthesized ones
        rng = np.random.default_rng(500 + P)
        haar = haar_u2(rng, (2, 101))
        assert np.max(np.abs(np.linalg.det(haar) - 1.0)) > 0.1
        thetas = np.linspace(0.0, np.pi / 2, 101)
        for blocks in (haar, analytic_stage([(synthesize_shifter(1.0, 10), [1])], thetas)[0][1],
                       analytic_stage([(synthesize_shifter(4.0, 22), [3])], thetas)[0][3]):
            got = contract_one(blocks, P)
            assert np.max(np.abs(got - matmul_parity_probabilities(blocks, P))) <= 1e-13

    def test_stack_equals_per_step_calls(self):
        # one contraction of a stack of steps, each with its own P: every
        # step's rows are the bits of its own call, on both backends' blocks
        rng = np.random.default_rng(7)
        thetas = np.linspace(0.0, np.pi / 2, 33)
        analytic = [analytic_stage([(synthesize_shifter(T, L), [S])], thetas)[0][S]
                    for T, L, S in ((1.0, 10, 1), (1.0, 12, 2), (4.0, 22, 3))]
        wq = controlled_grover_blocks([make_instance(a, 2) for a in (0.1, 0.6, 0.9)])
        statevector = [statevector_stage([(synthesize_shifter(2.0, 14), [S])], wq)[0][S]
                       for S in (1, 3)]
        for stack in (analytic + [haar_u2(rng, (2, 33))], statevector):
            ps = [1, 7, 256, 2][:len(stack)]
            probs = parity_probabilities(np.stack(stack), np.array(ps))
            assert probs.shape == (len(stack),) + stack[0].shape[1:2] + (2,)
            for blocks, P, rows in zip(stack, ps, probs):
                assert np.array_equal(rows, contract_one(blocks, P))

    @pytest.mark.parametrize("ps", [[1, 0], [-1, 2], [0]])
    def test_stack_rejects_fewer_than_one_branch(self, ps):
        blocks = analytic_stage([(synthesize_shifter(1.0, 10), [1])], [0.3])[0][1]
        with pytest.raises(DomainError, match="branch count must be >= 1"):
            parity_probabilities(np.stack([blocks] * len(ps)), np.array(ps))

    @pytest.mark.parametrize("ps", [[2.5], [2.0], [1, 2.5]])
    def test_stack_rejects_non_integer_branch_counts(self, ps):
        # a float count would raise x to a fractional power: NaN, not a refusal
        blocks = analytic_stage([(synthesize_shifter(1.0, 10), [1])], [0.3])[0][1]
        with pytest.raises(DomainError, match="branch count must be an integer"):
            parity_probabilities(np.stack([blocks] * len(ps)), ps)

    @pytest.mark.parametrize("ps", [3, [3], [1, 2, 3], [[1], [2]]])
    def test_stack_needs_one_branch_count_per_step(self, ps):
        # counts that are not one per step, for an unstacked (2, n, 2, 2)
        # value or a stack of two, are refused rather than read along the
        # wrong axis
        blocks = analytic_stage([(synthesize_shifter(1.0, 10), [1])], [0.3])[0][1]
        for stack in (blocks, np.stack([blocks] * 2)):
            with pytest.raises(DomainError, match="one branch count per step"):
                parity_probabilities(stack, ps)

    @pytest.mark.parametrize("P,S", [(0, 1), (-1, 1), (1, 0), (1, -1), (0, 0)])
    def test_both_backends_reject_fewer_than_one(self, P, S):
        # the circuit refuses to exist, so neither backend's view meets it
        with pytest.raises(DomainError, match="count must be >= 1"):
            ParallelCircuit(P=P, spec=synthesize_shifter(1.0, 10), S=S,
                            instance=make_instance(0.3))

    @pytest.mark.parametrize("P,S", [(2.5, 1), (2.0, 1), (1, 1.5), (1, 2.0)])
    def test_circuit_rejects_non_integer_counts(self, P, S):
        with pytest.raises(DomainError, match="count must be an integer"):
            ParallelCircuit(P=P, spec=synthesize_shifter(1.0, 10), S=S,
                            instance=make_instance(0.3))


class TestSampling:
    def test_certain_outcomes(self):
        p = ideal_probabilities(1, make_instance(0.5).phi)[0]
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

    @pytest.mark.parametrize("shots", [2.5, 2.0, "2", -1])
    def test_rejects_shot_count_that_is_no_count(self, shots):
        # numpy truncated 2.5 shots to 2 without a word
        with pytest.raises(DomainError, match="^shots must be "):
            sample_even_parity(1.0, shots, seed=1)
        assert sample_even_parity(1.0, np.int64(2), seed=1) == 2

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
        for a, S in itertools.product((0.0, 0.3, 1.0), (1, 2, 3)):
            circuit = ParallelCircuit(P=P, spec=spec, S=S, instance=make_instance(a, n))
            for setting in MeasurementSetting:
                pa = setting_probability(circuit, setting)
                pv = statevector_even_parity_probability(circuit, setting)
                assert abs(pa - pv) <= 1e-10

    def test_matches_analytic_at_twenty_qubits(self):
        # five branches of n = 3
        spec = synthesize_shifter(2.0, 14)
        insts = [make_instance(a, 3) for a in (0.0, 0.3, 0.8)]
        for S in (1, 2):
            pv = statevector_probabilities(spec, 5, S, insts)
            pa = analytic_probabilities(spec, 5, S, [inst.theta for inst in insts])
            assert np.max(np.abs(pa - pv)) <= 1e-10

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
        p_can = statevector_probabilities(spec, 2, 1, [inst])
        p_rnd = statevector_probabilities(spec, 2, 1, [inst], "random", 11)
        assert np.max(np.abs(p_can - p_rnd)) <= 1e-10

    @pytest.mark.parametrize("P", [64, 256])
    @pytest.mark.parametrize("S", [1, 2])
    def test_matches_analytic_at_many_branches(self, P, S):
        # far past any full register: 3 P qubits
        spec = synthesize_shifter(1.0, 10)
        insts = [make_instance(a, 2) for a in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0)]
        pv = statevector_probabilities(spec, P, S, insts)
        pa = analytic_probabilities(spec, P, S, [inst.theta for inst in insts])
        assert np.max(np.abs(pa - pv)) <= 1e-10

    def test_capacity_guard(self, refused_allocation):
        # one branch of n = 11: its block, its adjoint and three blocks of
        # build temporaries, each of 2^24 complex entries, 1.25 GiB,
        # refused before any oracle
        spec = synthesize_shifter(1.0, 10)
        pc = ParallelCircuit(P=1, spec=spec, S=1, instance=make_instance(0.5, 11))
        with pytest.raises(CapacityError, match="^statevector blocks at n = 11 for 1 amplitude "
                                                "need 1.25 GiB, over the 1 GiB guard$"):
            statevector_even_parity_probability(pc, MeasurementSetting.PLUS)
        assert refused_allocation == []

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


class TestStatevectorReadout:
    @pytest.mark.parametrize("style,seed", [("canonical", None), ("random", 11)])
    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_literal_route(self, P, n, style, seed):
        # both columns from the shared contraction against one literal
        # circuit per setting on the full register, up to 16 qubits
        spec = synthesize_shifter(1.0, 10)
        insts = [make_instance(a, n) for a in (0.0, 0.3, 0.5, 1.0)]
        for S in (1, 2, 3):
            probs = statevector_probabilities(spec, P, S, insts, style, seed)
            assert probs.shape == (4, 2)
            ref = [[literal_statevector_probability(spec, P, S, inst, setting, style, seed)
                    for setting in MeasurementSetting] for inst in insts]
            assert np.max(np.abs(probs - np.array(ref))) <= 1e-12

    def test_capacity_guard(self, refused_allocation):
        # the n = 2 row fits; the n = 11 row refuses the whole batch
        step = ScheduleStep(k=1, p=1, t=1.0, s=1, nu=1, l=10)
        insts = [make_instance(0.5, 2), make_instance(0.5, 11)]
        with pytest.raises(CapacityError, match="at n = 11 for 1 amplitude need"):
            step_probabilities(insts, [step], "statevector")
        assert refused_allocation == []

    def test_controlled_grover_blocks_reject_mixed_register_sizes(self, refused_allocation):
        # one stack holds one register size; a mixed batch is refused
        # before any oracle is built
        insts = [make_instance(0.3, 2), make_instance(0.8, 3), make_instance(0.5, 2)]
        with pytest.raises(DomainError, match=r"one register size, got n = \[2, 3\]"):
            controlled_grover_blocks(insts)
        assert refused_allocation == []

    def test_controlled_grover_blocks_reject_empty_batch(self, refused_allocation):
        # np.stack used to fail on the empty list with a bare ValueError
        with pytest.raises(DomainError, match="^empty batch: controlled-Grover blocks need "):
            controlled_grover_blocks([])
        assert refused_allocation == []

    def test_capacity_bound_counts_blocks_and_adjoints(self):
        # n = 6 blocks are 2^18 bytes: 2 m + 3 of them fit up to 2^12, with
        # m the amplitudes of that register size alone; no query length
        # enters
        check_capacity([6] * 2046 + [2, 3])
        with pytest.raises(CapacityError, match="^statevector blocks at n = 6 for 2047 "
                                                "amplitudes need 1 GiB, over the 1 GiB guard$"):
            check_capacity([2] + [6] * 2047)
        # one amplitude fits up to n = 10 and not at n = 11
        check_capacity([10])
        with pytest.raises(CapacityError, match="at n = 11 for 1 amplitude need 1.25 GiB"):
            check_capacity([2, 11])

    @pytest.mark.parametrize("style,seed", [("canonical", None), ("random", 11)])
    def test_batch_equals_per_instance_calls(self, style, seed):
        # stacking the instances of each register size keeps each row bit
        # for bit, the seeded random dressing included
        spec = synthesize_shifter(2.0, 14)
        for n in (2, 3):
            insts = [make_instance(a, n) for a in (0.3, 0.8, 0.6)]
            for P, S in ((1, 1), (2, 3)):
                probs = statevector_probabilities(spec, P, S, insts, style, seed)
                for inst, row in zip(insts, probs):
                    assert np.array_equal(row, statevector_probabilities(
                        spec, P, S, [inst], style, seed)[0])


class TestStatevectorKernels:
    @pytest.mark.parametrize("P,n", [(1, 0), (1, 3), (2, 2), (3, 3), (4, 3), (5, 0), (5, 2)])
    def test_ghz_state_equals_ladder_on_full_register(self, P, n):
        # the shared contraction of the two columns that |0..0> reaches, for
        # a Haar-random branch unitary with no shifter structure, is the
        # ladder run gate by gate on all P (n + 1) qubits followed by the
        # whole of v on every branch
        rng = np.random.default_rng(10 * P + n)
        dim = 2 ** (n + 1)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        got = contract_one(column_blocks(v[None, :, ::dim // 2]), P)[0]
        ref = [literal_branch_probability(v, P, n, setting) for setting in MeasurementSetting]
        assert np.max(np.abs(got - ref)) <= 1e-13


class TestShifterColumns:
    @pytest.mark.parametrize("style,seed", [("canonical", None), ("random", 11)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_columns_match_dense_shifter_powers(self, n, style, seed):
        # the factors applied to two columns, rotations merged, against the
        # dense product raised to s by matrix_power, for s = 1 .. 3
        insts = [make_instance(a, n) for a in (0.0, 0.3, 0.8, 1.0)]
        wq = grover_blocks(insts, style, seed)
        for T, L in ((1.0, 10), (2.0, 14), (8.0, 34)):
            spec = synthesize_shifter(T, L)
            blocks = statevector_stage([(spec, {1, 2, 3})], wq)[0]
            dense = np.stack([kron_shifter(spec.angles.xi, block) for block in wq])
            for s in (1, 2, 3):
                assert blocks[s].shape == (2 ** n, len(insts), 2, 2)
                ref = column_blocks(np.linalg.matrix_power(dense, s)[:, :, ::2 ** n])
                assert np.max(np.abs(blocks[s] - ref)) <= 1e-13

    def test_longer_pass_extends_shorter_bit_for_bit(self):
        # the blocks of s are the same bits whatever else a pass is asked
        # for, powers skipped on the way included, and each amplitude's
        # blocks those of its own call: step_probabilities asks one pass
        # for every s of a (t, l)
        wq = controlled_grover_blocks([make_instance(a, 3) for a in (0.2, 0.7)])
        spec = synthesize_shifter(4.0, 22)
        three = statevector_stage([(spec, {1, 2, 3})], wq)[0]
        for powers in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            shorter = statevector_stage([(spec, powers)], wq)[0]
            assert all(np.array_equal(three[s], shorter[s]) for s in powers)
        for i in range(len(wq)):
            alone = statevector_stage([(spec, {1, 2, 3})], wq[i:i + 1])[0]
            assert all(np.array_equal(three[s][:, i], alone[s][:, 0]) for s in (1, 2, 3))

    @pytest.mark.parametrize("power", [0, -1])
    def test_rejects_fewer_than_one_repetition(self, power):
        # both stages, alone or beside a valid power; an empty request too
        spec = synthesize_shifter(1.0, 10)
        inst = make_instance(0.3, 2)
        wq = controlled_grover_blocks([inst])
        for powers in ([power], [1, power], []):
            with pytest.raises(DomainError, match="repetition count must be >= 1"):
                statevector_stage([(spec, powers)], wq)
            with pytest.raises(DomainError, match="repetition count must be >= 1"):
                analytic_stage([(spec, powers)], [inst.theta])

    @pytest.mark.parametrize("power", [1.5, 2.0, "2"])
    def test_statevector_stage_rejects_non_integer_repetitions(self, power):
        # alone or beside a valid power, before any column is touched
        spec = synthesize_shifter(1.0, 10)
        wq = controlled_grover_blocks([make_instance(0.3, 2)])
        for powers in ([power], [1, power]):
            with pytest.raises(DomainError, match="repetition count must be an integer"):
                statevector_stage([(spec, powers)], wq)

    @pytest.mark.parametrize("power", [1.5, 2.0, "2"])
    def test_analytic_stage_rejects_non_integer_repetitions(self, power):
        spec = synthesize_shifter(1.0, 10)
        for powers in ([power], [1, power]):
            with pytest.raises(DomainError, match="repetition count must be an integer"):
                analytic_stage([(spec, powers)], [0.3])


class TestStageContract:
    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_each_stage_returns_exactly_the_requested_powers(self, backend):
        # {s: blocks} for the distinct requested s, repeats folded, each in
        # the (c, m, 2, 2) layout of parity_probabilities
        spec = synthesize_shifter(2.0, 14)
        insts = [make_instance(a, 3) for a in (0.0, 0.4, 0.9)]
        if backend == "analytic":
            stage, operand, c = analytic_stage, [inst.theta for inst in insts], 2
        else:
            stage, operand, c = statevector_stage, controlled_grover_blocks(insts), 2 ** 3
        for powers in ([1], [4], [2, 2], (1, 3, 4), range(1, 6)):
            blocks = stage([(spec, powers)], operand)[0]
            assert set(blocks) == set(powers)
            assert all(b.shape == (c, len(insts), 2, 2) for b in blocks.values())

    def test_analytic_stage_powers_match_matrix_power(self):
        # each power is the axis-angle closed form of the s = 1 blocks,
        # which stays at matrix_power's own rounding level where a
        # three-term recurrence would drift
        thetas = np.linspace(0.0, np.pi / 2, 101)
        tolerance = {s: 1e-13 for s in range(2, 17)} | {1024: 1e-12}
        for T, L in ((1.0, 10), (4.0, 22), (48.0, 144)):
            blocks = analytic_stage([(synthesize_shifter(T, L), {1, *tolerance})], thetas)[0]
            for s, tol in tolerance.items():
                assert np.max(np.abs(blocks[s] - np.linalg.matrix_power(blocks[1], s))) <= tol

    @pytest.mark.parametrize("T,L", [(1.0, 10), (48.0, 144), (256.0, 710)])
    def test_row_blocks_match_rotation_product(self, T, L):
        # the certified row evaluated on its power table against the angles
        # multiplied out layer by layer, on both eigenphases of 101 amplitudes
        spec = synthesize_shifter(T, L)
        thetas = np.linspace(0.0, np.pi / 2, 101)
        products = rotation_product(spec.angles.xi, np.concatenate(
            [np.pi / 2 + 2 * thetas, np.pi / 2 - 2 * thetas])).reshape(2, -1, 2, 2)
        blocks = analytic_stage([(spec, [1])], thetas)[0][1]
        assert np.max(np.abs(blocks - products)) <= 1e-12

    def test_analytic_stage_at_identity_blocks(self):
        # where sin a = 0 the blocks are +-I and every power is exact: an
        # identity row gives the identity, and the row of -I its powers
        spec = synthesize_shifter(1.0, 10)
        row = np.zeros_like(spec.angles.row)
        row[len(row) // 2, 0] = 1.0
        for sign in (1.0, -1.0):
            angles = dataclasses.replace(spec.angles, row=sign * row)
            blocks = analytic_stage([(dataclasses.replace(spec, angles=angles), {1, 2, 7})],
                                    [0.0, 0.4])[0]
            for s, b in blocks.items():
                assert np.array_equal(b, np.broadcast_to(sign ** s * np.eye(2), b.shape))

    def test_analytic_stage_refuses_angles_without_a_row(self):
        # a sequence built by hand was never certified, so it has no row;
        # among certified ones in a run-level call it refuses the whole
        # call, naming its shifter
        spec = synthesize_shifter(2.0, 14)
        bare = dataclasses.replace(spec, angles=AngleSequence(spec.angles.xi))
        message = r"^shifter T=2\.0, L=14: the shifter's angles carry no certified row"
        with pytest.raises(DomainError, match=message):
            analytic_stage([(bare, [1])], [0.3])
        good = [synthesize_shifter(1.0, 10), synthesize_shifter(4.0, 22)]
        with pytest.raises(DomainError, match=message):
            analytic_stage([(good[0], [1]), (bare, [1]), (good[1], [2])], [0.3, 0.6])

    def test_analytic_table_memory_is_bounded(self, monkeypatch):
        # the table of powers is built over chunks of angles: a budget of
        # five angles a chunk gives the blocks of one table to rounding,
        # and the stage's peak stays under half of that one table
        spec = synthesize_shifter(48.0, 144)
        thetas = np.linspace(0.0, np.pi / 2, 4000)
        whole = analytic_stage([(spec, [1, 3])], thetas)[0]
        h = len(spec.angles.row) // 2
        monkeypatch.setattr("pae.circuit._TABLE_BYTES", 16 * (h + 1) * 5)
        tracemalloc.start()
        try:
            chunked = analytic_stage([(spec, [1, 3])], thetas)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for s in (1, 3):
            assert np.max(np.abs(chunked[s] - whole[s])) <= 1e-14
        assert peak < 16 * (h + 1) * 2 * len(thetas) / 2

    def test_run_level_table_spans_chunks_of_the_widest_row(self, monkeypatch):
        # a budget of five angles of the widest row: every table the run's
        # one stage call builds fits it, the widest row keeps the bits of
        # its own call, and the narrower rows, multiplied on the widest
        # row's chunks, stay within 1e-15 of theirs
        specs = [synthesize_shifter(T, L) for T, L in ((1.0, 10), (8.0, 34), (48.0, 144))]
        requests = [(spec, [1, 3]) for spec in specs]
        thetas = np.linspace(0.0, np.pi / 2, 4000)
        width = len(specs[-1].angles.row) // 2 + 1
        monkeypatch.setattr("pae.circuit._TABLE_BYTES", 16 * width * 5)
        alone = [analytic_stage([request], thetas)[0] for request in requests]
        tables = []
        cumprod = np.cumprod

        def recording(table, *args, **kwargs):
            tables.append(table.nbytes)
            return cumprod(table, *args, **kwargs)

        monkeypatch.setattr(np, "cumprod", recording)
        staged = analytic_stage(requests, thetas)
        assert len(tables) == math.ceil(2 * len(thetas) / 5)
        assert max(tables) <= 16 * width * 5
        for blocks, own in zip(staged, alone):
            assert all(np.max(np.abs(blocks[s] - own[s])) <= 1e-15 for s in (1, 3))
        assert all(staged[-1][s].tobytes() == alone[-1][s].tobytes() for s in (1, 3))

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_run_level_stage_is_its_batches_of_one(self, backend):
        # every shifter of one run-level call, asked for its own powers,
        # has the bits of its batch-of-one call; an empty request is empty
        insts = [make_instance(a, 2) for a in (0.0, 0.4, 0.9)]
        if backend == "analytic":
            stage, operand = analytic_stage, [i.theta for i in insts]
        else:
            stage, operand = statevector_stage, controlled_grover_blocks(insts)
        requests = [(synthesize_shifter(T, L), powers)
                    for T, L, powers in ((1.0, 10, {1}), (2.0, 14, {1, 3}), (1.0, 12, [1]),
                                         (8.0, 34, {2, 1}))]
        staged = stage(requests, operand)
        assert len(staged) == len(requests)
        for (spec, powers), blocks in zip(requests, staged):
            alone = stage([(spec, powers)], operand)[0]
            assert set(blocks) == set(powers)
            assert all(blocks[s].tobytes() == alone[s].tobytes() for s in powers)
        assert stage([], operand) == []


class TestGhzDepth:
    # ceil(log2(P)) rounded through a float gave 49, 53 and 60 at the last three
    @pytest.mark.parametrize("P,layers", [(1, 0), (2, 1), (3, 2), (4, 2), (64, 6),
                                          (2 ** 49 + 1, 50), (2 ** 53 + 1, 54),
                                          (2 ** 60 + 1, 61)])
    def test_values(self, P, layers):
        assert ghz_depth(P) == layers

    @pytest.mark.parametrize("P", [2.5, 4.0])
    def test_rejects_non_integer_branch_count(self, P):
        with pytest.raises(DomainError, match="branch count must be an integer"):
            ghz_depth(P)
