"""The package namespace: each public name is declared once, by its
module's ``__all__``, and ``ensvar`` re-exports those lists."""

import importlib

import ensvar

_MODULES = ("ensemble", "errors", "fourdvar", "kalman", "numerics", "problem", "streams", "study", "toys")


def _modules():
    return [importlib.import_module(f"ensvar.{name}") for name in _MODULES]


def test_all_is_the_modules_lists_concatenated():
    names = [name for module in _modules() for name in module.__all__]
    assert ensvar.__all__ == names
    assert len(names) == 50 == len(set(names))


def test_each_name_is_its_modules_own_object():
    for module in _modules():
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(ensvar, name) is obj
            assert obj.__module__ == module.__name__


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from ensvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ensvar.__all__)


def test_the_config_and_cli_names_stay_out():
    for name in ("load_config", "LoadedConfig", "main"):
        assert name not in ensvar.__all__ and not hasattr(ensvar, name)
