"""Checks that hold for every test of the suite, and the fixture that
rebinds a package function everywhere it is bound."""

import importlib
import json
import pkgutil

import pytest

import cliffsphere


@pytest.fixture(autouse=True)
def manifests_keep_their_format(request):
    """Every manifest.json that a test leaves under its tmp_path is json's
    own indent-2, sorted-key text with a final newline."""
    yield
    tmp_path = request.node.funcargs.get("tmp_path")
    for path in tmp_path.rglob("manifest.json") if tmp_path is not None else ():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


@pytest.fixture
def rebind(monkeypatch):
    """rebind(real, replacement) binds `replacement` in place of the package
    function `real` in every `cliffsphere` module that binds it, the defining
    one included, until the test ends.  `__main__` is left out: importing it
    runs `main`."""
    modules = [importlib.import_module(f"cliffsphere.{info.name}")
               for info in pkgutil.iter_modules(cliffsphere.__path__) if info.name != "__main__"]

    def rebind(real, replacement):
        for module in modules:
            if vars(module).get(real.__name__) is real:
                monkeypatch.setattr(module, real.__name__, replacement)

    return rebind
