"""reedsim depends on NumPy alone: every import in the package's modules,
at any depth, names the standard library, numpy or reedsim itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "reedsim"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "reedsim"}


def _imported(source: str) -> list[str]:
    """The top-level package of every import statement in ``source``; a
    relative import is reedsim's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("reedsim" if node.level else node.module)
    return [name.partition(".")[0] for name in names]


def test_imports_are_standard_library_numpy_or_reedsim():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    foreign = {(path.name, name) for path in modules
               for name in _imported(path.read_text(encoding="utf-8")) if name not in ALLOWED}
    assert foreign == set()


def test_a_third_party_import_is_found():
    # at any depth, and in either import form
    source = "import os\ndef f():\n    from scipy import stats\n    import numpy.linalg, pandas\n"
    assert [name for name in _imported(source) if name not in ALLOWED] == ["scipy", "pandas"]
