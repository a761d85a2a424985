import numpy as np
import pytest

from pae import (DomainError, build_explicit_oracle, build_grover_unitary,
                 grover_plane, grover_plane_basis, make_instance)

SQRT2 = np.sqrt(2.0)


class TestMakeInstance:
    def test_boundary_a0(self):
        inst = make_instance(0.0)
        assert inst.theta == 0.0
        assert inst.phi == 2.0

    def test_boundary_a1(self):
        inst = make_instance(1.0)
        assert inst.theta == pytest.approx(np.pi / 2, abs=1e-15)
        assert inst.phi == -2.0

    def test_paper_point(self):
        # a = sin^2(pi/8) gives theta = pi/8 and phi = 2 cos(pi/4) = sqrt(2)
        inst = make_instance(np.sin(np.pi / 8) ** 2)
        assert inst.theta == pytest.approx(np.pi / 8, abs=1e-14)
        assert inst.phi == pytest.approx(SQRT2, abs=1e-14)

    @pytest.mark.parametrize("a", np.linspace(0.0, 1.0, 31))
    def test_invariants(self, a):
        inst = make_instance(float(a))
        assert inst.phi == pytest.approx(2 * np.cos(2 * inst.theta), abs=1e-12)
        assert inst.a == pytest.approx(np.sin(inst.theta) ** 2, abs=1e-12)

    @pytest.mark.parametrize("a", [-0.1, 1.1, 2.0])
    def test_domain_error(self, a):
        with pytest.raises(DomainError):
            make_instance(a)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            make_instance(0.5, n=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_n_rejected(self, n):
        # n = 2.5 used to be truncated into a two-qubit oracle
        with pytest.raises(DomainError, match="^oracle qubit count must be an integer, got "):
            make_instance(0.3, n)
        assert make_instance(0.3, np.int64(3)).n == 3


class TestGroverPlane:
    def test_a0_identity(self):
        assert np.allclose(grover_plane(make_instance(0.0)), np.eye(2), atol=1e-15)

    def test_a_half_quarter_turn(self):
        mat = grover_plane(make_instance(0.5))
        assert np.allclose(mat, [[0, -1], [1, 0]], atol=1e-15)

    def test_a_quarter(self):
        # cos/sin of 2*arcsin(0.5) = pi/3
        mat = grover_plane(make_instance(0.25))
        expected = [[0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]]
        assert np.allclose(mat, expected, atol=1e-14)

    @pytest.mark.parametrize("a", np.linspace(0.0, 1.0, 17))
    def test_structure(self, a):
        inst = make_instance(float(a))
        mat = grover_plane(inst)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(2))) <= 1e-12
        col = mat @ np.array([1.0, 0.0])
        assert np.allclose(col, [np.cos(2 * inst.theta), np.sin(2 * inst.theta)], atol=1e-12)
        # eigenphases -2 theta and +2 theta on (|0..0> +- i|psi>)/sqrt(2)
        for phase, sign in zip((-2 * inst.theta, 2 * inst.theta), (+1, -1)):
            vec = np.array([1.0, sign * 1j]) / SQRT2
            assert np.allclose(mat @ vec, np.exp(1j * phase) * vec, atol=1e-12)


class TestExplicitOracle:
    def test_canonical_a0_identity(self):
        oracle = build_explicit_oracle(make_instance(0.0, 3))
        assert np.allclose(oracle.u_a, np.eye(8), atol=1e-15)

    def test_canonical_a1_flag_flip(self):
        oracle = build_explicit_oracle(make_instance(1.0, 2))
        out = oracle.u_a[:, 0]
        expected = np.zeros(4)
        expected[1] = 1.0      # |01>, flag on the last (least significant) qubit
        assert np.allclose(np.abs(out), expected, atol=1e-12)

    def test_random_flag_norm(self):
        oracle = build_explicit_oracle(make_instance(0.3, 3), style="random", seed=7)
        out = oracle.u_a[:, 0]
        flagged = out[1::2]    # odd indices carry flag 1
        assert np.sum(np.abs(flagged) ** 2) == pytest.approx(0.3, abs=1e-12)

    def test_random_oracle_reproducible(self):
        inst = make_instance(0.3, 3)
        u_a = build_explicit_oracle(inst, style="random", seed=7).u_a
        assert np.array_equal(build_explicit_oracle(inst, style="random", seed=7).u_a, u_a)
        assert not np.allclose(build_explicit_oracle(inst, style="random", seed=8).u_a, u_a)

    @pytest.mark.parametrize("style,seed", [("canonical", None), ("random", 3)])
    @pytest.mark.parametrize("a", [0.0, 0.2, 0.85, 1.0])
    def test_oracle_invariants(self, style, seed, a):
        inst = make_instance(a, 3)
        oracle = build_explicit_oracle(inst, style=style, seed=seed)
        dim = 2 ** inst.n
        assert np.max(np.abs(oracle.u_a.conj().T @ oracle.u_a - np.eye(dim))) <= 1e-12
        expected = (np.sqrt(1 - a) * np.kron(oracle.psi0, [1, 0])
                    + np.sqrt(a) * np.kron(oracle.psi1, [0, 1]))
        assert np.allclose(oracle.u_a[:, 0], expected, atol=1e-12)

    def test_unknown_style(self):
        with pytest.raises(DomainError):
            build_explicit_oracle(make_instance(0.5), style="bespoke")


class TestGroverUnitary:
    def test_a0_fixes_zero_state(self):
        q = build_grover_unitary(build_explicit_oracle(make_instance(0.0, 2)))
        assert q[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_a_half_zero_overlap(self):
        q = build_grover_unitary(build_explicit_oracle(make_instance(0.5, 2)))
        assert abs(q[0, 0]) <= 1e-12

    def test_random_oracle_overlap_is_cos2theta(self):
        # <0..0|Q|0..0> = 1 - 2a independent of the random dressing
        oracle = build_explicit_oracle(make_instance(0.25, 3), style="random", seed=7)
        q = build_grover_unitary(oracle)
        assert q[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("style,seed", [("canonical", None), ("random", 17)])
    def test_unitary(self, n, style, seed):
        for a in (0.0, 0.4, 1.0):
            oracle = build_explicit_oracle(make_instance(a, n), style=style, seed=seed)
            q = build_grover_unitary(oracle)
            assert np.max(np.abs(q.conj().T @ q - np.eye(2 ** n))) <= 1e-12


class TestPlaneRestriction:
    @pytest.mark.parametrize("n", [2, 3])
    def test_explicit_matches_plane_on_grid(self, n):
        # the full operator restricted to the invariant plane must equal the
        # 2x2 rotation entrywise, for >= 101 amplitudes
        worst = 0.0
        for a in np.linspace(0.0, 1.0, 101):
            inst = make_instance(float(a), n)
            oracle = build_explicit_oracle(inst, style="random", seed=5)
            q = build_grover_unitary(oracle)
            basis = np.column_stack(grover_plane_basis(oracle, inst))
            restricted = basis.conj().T @ q @ basis
            worst = max(worst, float(np.max(np.abs(restricted - grover_plane(inst)))))
        assert worst <= 1e-10

    def test_zero_state_is_eigenvector_sum(self):
        # |0..0> = (|Q+> + |Q->)/sqrt(2) in the plane coordinates
        plus = np.array([1.0, 1j]) / SQRT2
        minus = np.array([1.0, -1j]) / SQRT2
        assert np.allclose((plus + minus) / SQRT2, [1.0, 0.0], atol=1e-15)

    def test_plane_basis_orthonormal_at_endpoints(self):
        for a in (0.0, 1.0):
            inst = make_instance(a, 2)
            oracle = build_explicit_oracle(inst)
            e0, e1 = grover_plane_basis(oracle, inst)
            assert np.linalg.norm(e0) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(e0, e1)) <= 1e-12
