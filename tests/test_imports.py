"""The package's runtime imports only the standard library and numpy."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apil_lab"


def _top_level_imports(path):
    """The top-level module of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_stdlib_numpy_and_the_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    allowed = sys.stdlib_module_names | {"numpy", "apil_lab"}
    outside = sorted((path.name, module) for path in files
                     for module in _top_level_imports(path)
                     if module not in allowed)
    assert not outside
