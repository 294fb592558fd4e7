"""Static checks on the package source."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpmspdc"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


# __init__.py imports are the package's public names, read by its users.
@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "__init__.py"))
def test_no_unused_import(module):
    assert unused_imports(PACKAGE / module) == []


def private_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each private name the module imports from another package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("qpmspdc"))
                  for alias in node.names if alias.name.startswith("_"))


# A name one module needs from another is part of the package's surface and
# gets a public name; the leading underscore promises no caller outside.
@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_cross_module_private_import(module):
    assert private_imports(PACKAGE / module) == []


# pyproject.toml declares requires-python >= 3.10; syntax that only a later
# grammar accepts (except*, say) fails here on a newer interpreter too.
@pytest.mark.parametrize("module", sorted(str(path.relative_to(PACKAGE))
                                          for path in PACKAGE.rglob("*.py")))
def test_parses_as_python_3_10(module):
    ast.parse((PACKAGE / module).read_text(encoding="utf-8"), feature_version=(3, 10))
