"""Every Sphinx cross-reference in the package's source names an object
that exists, of the kind its role says, and so does every double-backtick
literal that names a private helper (``_name``) or a name of a pae module
(``qsp.name``): a deleted or renamed function leaves no reference
behind."""

import importlib
import inspect
import pkgutil
import re
import types

import pae

_NAMES = [info.name for info in pkgutil.iter_modules(pae.__path__)]
_MODULES = [importlib.import_module(f"pae.{name}") for name in _NAMES]
_ROLE = re.compile(r":(func|class|data|exc|mod):`~?([\w.]+)`")
_LITERAL = re.compile(r"``(_\w+|(?:%s)\.[\w.]+)``" % "|".join(_NAMES))

_KIND = {
    "func": callable,
    "class": inspect.isclass,
    "exc": lambda obj: inspect.isclass(obj) and issubclass(obj, BaseException),
    "mod": inspect.ismodule,
    "data": lambda obj: not callable(obj) and not inspect.ismodule(obj),
}


def _resolve(module: types.ModuleType, target: str):
    """``target`` looked up in ``module``, then in the package; ``None``
    when neither holds it."""
    for root in (module, pae):
        obj = root
        for part in target.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return obj
    return None


def _resolves(module: types.ModuleType, role: str, target: str) -> bool:
    obj = _resolve(module, target)
    return obj is not None and _KIND[role](obj)


def test_every_sphinx_role_resolves():
    roles = [(module, role, target) for module in _MODULES
             for role, target in _ROLE.findall(inspect.getsource(module))]
    assert len(roles) > 50, "the pattern no longer matches the roles in the source"
    broken = [f"{module.__name__}: :{role}:`{target}`" for module, role, target in roles
              if not _resolves(module, role, target)]
    assert broken == []


def test_every_named_literal_resolves():
    literals = [(module, target) for module in _MODULES
                for target in _LITERAL.findall(inspect.getsource(module))]
    assert len(literals) > 30, "the pattern no longer matches the literals in the source"
    broken = [f"{module.__name__}: ``{target}``" for module, target in literals
              if _resolve(module, target) is None]
    assert broken == []


def test_a_missing_name_or_wrong_kind_is_caught():
    from pae import circuit, driver, qsp
    assert not _resolves(circuit, "func", "statevector_parity_probabilities")
    assert not _resolves(circuit, "class", "parity_probabilities")
    assert not _resolves(circuit, "exc", "MeasurementSetting")
    assert _resolves(circuit, "exc", "DomainError")
    assert _resolves(driver, "mod", "circuit")
    assert _resolves(driver, "func", "rpe.estimate_phase")
    # literals: a private helper or a module-qualified name, nothing else
    source = ("``_uniform_modulus2`` ``qsp._fold`` ``np.fft.rfft`` ``p`` "
              "``circuit.eigenphase_blocks``")
    assert _LITERAL.findall(source) == ["_uniform_modulus2", "qsp._fold",
                                        "circuit.eigenphase_blocks"]
    assert _resolve(qsp, "_uniform_modulus2") is None
    assert _resolve(driver, "circuit.eigenphase_blocks") is None
    assert _resolve(circuit, "qsp._fold") is qsp._fold
