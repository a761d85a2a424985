import pytest

from pae import circuit, qsp


@pytest.fixture
def refused_allocation(monkeypatch) -> list:
    """Patch the explicit oracle and the shifter product, in ``circuit`` and
    in ``qsp``, to record their calls and raise: a statevector guard that
    lets a request through then fails without allocating anything."""
    calls = []

    def refuse(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called past the guard")
        return stub

    for module, name in ((circuit, "build_explicit_oracle"), (circuit, "interleaved_shifter"),
                         (qsp, "interleaved_shifter")):
        monkeypatch.setattr(module, name, refuse(name))
    return calls
