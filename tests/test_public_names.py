import ast
import importlib
from pathlib import Path

import pytest

import cnl

PACKAGE = Path(cnl.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_exports(module: str) -> list[str]:
    """The names ``cnl/__init__.py`` imports from ``cnl.<module>``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    # Every __all__ entry is defined, and every name the package re-exports
    # from the module is the module's own and listed in its __all__.
    module = importlib.import_module(f"cnl.{name}")
    public = getattr(module, "__all__", [])
    assert [entry for entry in public if not hasattr(module, entry)] == []
    exports = package_exports(name)
    assert [entry for entry in exports if entry not in public] == []
    assert all(getattr(cnl, entry) is getattr(module, entry) for entry in exports)
