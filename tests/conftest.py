import numpy as np
import pytest

from pae import circuit, qsp


def ideal_branch_unitary(T: float, phi: float) -> np.ndarray:
    """The exact relative phase shifter ``diag(e^{-iT phi/2}, e^{+iT phi/2})``
    on the ancilla, identity on the Grover plane."""
    return np.kron(np.diag([np.exp(-0.5j * T * phi), np.exp(0.5j * T * phi)]),
                   np.eye(2)).astype(complex)


def kron_shifter(xi, wq):
    """Reference shifter product around the controlled-Grover block ``wq``:
    the dense product of the factors, one ``np.kron`` per ancilla
    x-rotation."""
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


@pytest.fixture
def refused_allocation(monkeypatch) -> list:
    """Patch the explicit oracle and the statevector stage in ``circuit``,
    which a single shifter's call goes through too, and the shifter's
    column pass in ``qsp``, to record their calls and raise:
    a statevector guard that lets a request through then fails without
    allocating anything."""
    calls = []

    def refuse(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called past the guard")
        return stub

    for module, name in ((circuit, "build_explicit_oracle"), (circuit, "statevector_stage"),
                         (qsp, "apply_shifter")):
        monkeypatch.setattr(module, name, refuse(name))
    return calls
