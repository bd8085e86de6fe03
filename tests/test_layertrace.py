"""The benchmark's layer trace still finds every function it reports on."""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_functions(module_name):
    module = importlib.import_module(f"quenta.{module_name}")
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def test_required_names_are_public_quenta_functions():
    layertrace = _load_layertrace()
    for key in layertrace.REQUIRED:
        module_name, name = key.split(".")
        assert name in _public_functions(module_name), key


def test_every_layer_has_a_public_function():
    layertrace = _load_layertrace()
    for layer in layertrace.LAYERS:
        assert _public_functions(layer), layer
