import pytest

from pae import circuit, qsp


@pytest.fixture
def refused_allocation(monkeypatch) -> list:
    """Patch the explicit oracle and the statevector stage in ``circuit``,
    which a single shifter's call goes through too, and the dense shifter
    product in ``qsp``, to record their calls and raise:
    a statevector guard that lets a request through then fails without
    allocating anything."""
    calls = []

    def refuse(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called past the guard")
        return stub

    for module, name in ((circuit, "build_explicit_oracle"), (circuit, "statevector_stage"),
                         (qsp, "interleaved_shifter")):
        monkeypatch.setattr(module, name, refuse(name))
    return calls
