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


def long_double_products(left, right):
    """The products of the ``(pairs, 2, width)`` nodes ``left`` and
    ``right`` of a product tree, pair by pair, in long double: ``x = x1 x2
    - eta1 rev(eta2)`` and ``eta = x1 eta2 + eta1 rev(x2)``, the reference
    for a tree level."""
    left, right = np.asarray(left, np.longdouble), np.asarray(right, np.longdouble)
    return np.array([[np.convolve(x1, x2) - np.convolve(eta1, eta2[::-1]),
                      np.convolve(x1, eta2) + np.convolve(eta1, x2[::-1])]
                     for (x1, eta1), (x2, eta2) in zip(left, right)])


def long_double_product_row(xi):
    """The first row ``(x, eta)`` of the interleaved product multiplied out
    one factor at a time in long double: the reference for the tree."""
    c, s = np.cos(xi.astype(np.longdouble)), np.sin(xi.astype(np.longdouble))
    node = np.array([[[1], [0]]], dtype=np.longdouble)
    for cj, sj in zip(c, s):
        node = long_double_products(node, np.array([[[1 + cj, 1 - cj], [sj, -sj]]]) / 2)
    return node[0, 0], node[0, 1]


def tree_deviation(xi):
    """The l1 distance of the tree's rows, both of them, from the long-double
    product, and the largest coefficient beyond powers ``+-L``."""
    L = len(xi)
    dev, outside = 0.0, 0.0
    for got, want in zip(qsp._product_row([xi])[0], long_double_product_row(xi)):
        k = (len(got) - L - 1) // 2
        dev += float(np.sum(np.abs(got[k:k + L + 1] - want)))
        outside = max(outside, float(np.max(np.abs(got[:k]), initial=0.0)),
                      float(np.max(np.abs(got[k + L + 1:]), initial=0.0)))
    return dev, outside


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
