"""Problem instances, the Grover operator, and explicit oracle realizations.

The estimation target is an amplitude ``a`` encoded by an n-qubit oracle
``U_a |0..0> = sqrt(1-a)|psi0>|0> + sqrt(a)|psi1>|1>`` (flag on the last
qubit).  The Grover operator built from two reflections and the oracle pair
acts as a rotation by ``2*theta`` (``theta = arcsin(sqrt(a))``) on the plane
spanned by ``|0..0>`` and its orthogonal partner; everything downstream only
needs that 2x2 rotation, while the explicit n-qubit matrices back the
statevector cross-validation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an argument is outside its documented domain."""


def checked_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int``, through ``operator.index``: a count that is
    not of an integer type, or is below ``minimum``, raises
    :class:`DomainError` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def checked_length(name: str, value) -> int:
    """``value`` as an ``int`` if it is a positive even integer, the only
    query lengths a shifter has, else :class:`DomainError` naming ``name``."""
    try:
        length = operator.index(value)
    except TypeError:
        length = 0
    if length < 2 or length % 2:
        raise DomainError(f"{name} must be a positive even integer, got {value!r}")
    return length


@dataclass(frozen=True)
class AmplitudeInstance:
    """A single estimation problem: the amplitude and its derived angles."""

    a: float
    theta: float        # arcsin(sqrt(a)), in [0, pi/2]
    phi: float          # 2*(1 - 2a) = 2*cos(2*theta), in [-2, 2]
    n: int              # oracle qubit count (statevector backend only)


@dataclass(frozen=True)
class ExplicitOracle:
    """A concrete unitary realization of the amplitude oracle."""

    n: int
    u_a: np.ndarray          # 2^n x 2^n
    psi0: np.ndarray         # (n-1)-qubit state, flag-0 branch
    psi1: np.ndarray         # (n-1)-qubit state, flag-1 branch


def make_instance(a: float, n: int = 2) -> AmplitudeInstance:
    """Build an :class:`AmplitudeInstance` from the amplitude ``a``.

    Raises :class:`DomainError` for ``a`` outside ``[0, 1]`` or an oracle
    qubit count ``n`` that is not an integer of at least 2.
    """
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"amplitude must lie in [0, 1], got {a}")
    n = checked_count("oracle qubit count", n, 2)
    theta = float(np.arcsin(np.sqrt(a)))
    return AmplitudeInstance(a=float(a), theta=theta, phi=2.0 * (1.0 - 2.0 * a), n=n)


def grover_plane(inst: AmplitudeInstance) -> np.ndarray:
    """The exact 2x2 action of the Grover operator on its invariant plane:
    the rotation by ``2*theta`` on the ordered basis ``{|0..0>, |psi>}``,
    with eigenphases ``-+2*theta`` on the eigenvectors ``(|0..0> +-
    i|psi>)/sqrt(2)``."""
    c, s = np.cos(2 * inst.theta), np.sin(2 * inst.theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def build_explicit_oracle(inst: AmplitudeInstance, style: str = "canonical",
                          seed: int | None = None) -> ExplicitOracle:
    """Realize the oracle as an explicit 2^n x 2^n unitary.

    ``canonical`` keeps both branch states at ``|0..0>`` and rotates only the
    flag qubit.  ``random`` additionally applies one seeded Haar-random
    unitary to the non-flag register, so nothing downstream can exploit the
    canonical structure.
    """
    n = inst.n
    dim_rest = 2 ** (n - 1)
    u_a = np.kron(np.eye(dim_rest), _ry(2 * inst.theta))
    rest0 = np.zeros(dim_rest, dtype=complex)
    rest0[0] = 1.0
    if style == "canonical":
        psi = rest0
    elif style == "random":
        # QR of a complex Gaussian, with the phases of diag(R) divided out
        # so that the law is Haar (Mezzadri, Notices AMS 54, 2007)
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((dim_rest, dim_rest))
                            + 1j * rng.standard_normal((dim_rest, dim_rest)))
        haar = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        u_a = np.kron(haar, np.eye(2)) @ u_a
        psi = haar @ rest0
    else:
        raise DomainError(f"unknown oracle style {style!r}")
    return ExplicitOracle(n=n, u_a=u_a, psi0=psi, psi1=psi)


def build_grover_unitary(oracle: ExplicitOracle) -> np.ndarray:
    """Full Grover operator ``U0 @ Ua^dag @ Uf @ Ua`` on 2^n dimensions.

    ``U0`` reflects about ``|0..0>``; ``Uf`` reflects about flag-qubit 0.
    """
    dim = 2 ** oracle.n
    u0 = -np.eye(dim, dtype=complex)
    u0[0, 0] = 1.0
    uf = np.kron(np.eye(dim // 2), np.diag([1.0, -1.0])).astype(complex)
    return u0 @ oracle.u_a.conj().T @ uf @ oracle.u_a


def grover_plane_basis(oracle: ExplicitOracle, inst: AmplitudeInstance) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal plane basis ``(|0..0>, |psi>)`` as full 2^n vectors.

    Defined for every ``a`` including the endpoints: with
    ``w0 = Ua^dag |psi0>|0>`` and ``w1 = Ua^dag |psi1>|1>`` the pair is
    ``e0 = cos(theta) w0 + sin(theta) w1`` (which is ``|0..0>`` exactly) and
    ``e1 = -sin(theta) w0 + cos(theta) w1``.
    """
    c, s = np.cos(inst.theta), np.sin(inst.theta)
    ket0 = np.kron(oracle.psi0, np.array([1.0, 0.0], dtype=complex))
    ket1 = np.kron(oracle.psi1, np.array([0.0, 1.0], dtype=complex))
    w0 = oracle.u_a.conj().T @ ket0
    w1 = oracle.u_a.conj().T @ ket1
    return c * w0 + s * w1, -s * w0 + c * w1
