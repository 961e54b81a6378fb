"""Every layer's ``__all__`` resolves, and the package re-exports only
names its layers list there.

Tooling that wraps each public function, such as the benchmark's tracer,
looks up every ``__all__`` name with getattr, so one stale entry breaks
every traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pontsys

LAYERS = sorted(info.name for info in pkgutil.iter_modules(pontsys.__path__))


def test_layers_are_found():
    assert {"indefinite", "colligation", "julia", "products", "schur",
            "sampling", "cli", "exceptions"} <= set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_name_resolves(layer):
    mod = importlib.import_module(f"pontsys.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pontsys.{layer}.__all__ names missing {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def _package_imports():
    """(layer, name) for every name pontsys/__init__.py imports from a layer."""
    tree = ast.parse(Path(pontsys.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_package_imports_only_public_names():
    imports = list(_package_imports())
    assert imports
    stray = [f"{layer}.{name}" for layer, name in imports
             if name not in importlib.import_module(f"pontsys.{layer}").__all__]
    assert not stray, f"re-exported but not in the layer's __all__: {stray}"
