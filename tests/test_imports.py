"""The package's runtime imports only the standard library and numpy, reads
every name it imports and every name its classes define, importing the CLI
loads only what every command needs, and the benchmark's set-up probe finds
every name it reads."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "apil_lab"


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


def _unread_imports(source, filename="<src>"):
    """The names one source file imports, anywhere in it, but never reads.
    ``__future__`` imports are directives, not names."""
    tree = ast.parse(source, filename)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_src_reads_every_name_it_imports():
    unread = sorted((path.name, name) for path in SRC.glob("*.py")
                    for name in _unread_imports(path.read_text(), str(path)))
    assert not unread


def test_the_unread_import_check_sees_every_import_form():
    source = ("from __future__ import annotations\n"
              "import os.path, json as js\n"
              "from dataclasses import dataclass, field as f\n"
              "def g():\n"
              "    import math\n"
              "    os = 1\n"
              "    return js.dumps(f)\n")
    assert _unread_imports(source) == ["dataclass", "math", "os"]


def _class_body_names(tree):
    """(class, name) of each method, class attribute and dataclass or
    NamedTuple field a class body defines, dunders aside."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            yield from ((cls.name, t.id) for t in targets
                        if isinstance(t, ast.Name)
                        and not (t.id.startswith("__") and t.id.endswith("__")))


def _read_names(tree):
    """Every name that appears as an attribute, a keyword or a string
    constant (``getattr`` and ``vars(owner)[attr]`` read names as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_name_a_class_defines_is_read_somewhere():
    """A method, class attribute or field of a ``src`` class that neither
    the package, the tests nor the benchmark reads is dead code."""
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        read.update(_read_names(ast.parse(path.read_text(), str(path))))
    unread = sorted(f"{path.stem}.{cls}.{name}" for path in SRC.glob("*.py")
                    for cls, name in _class_body_names(
                        ast.parse(path.read_text(), str(path)))
                    if name not in read)
    assert not unread


def test_importing_the_cli_leaves_command_only_modules_unloaded():
    """A fresh interpreter that imports the harness has not loaded what only
    the sweep or its version string use. Nor has it loaded
    ``numpy.random``: a sweep's main process draws no number, and the
    module adds about 6 MB to a resident set (numpy 2.4 on Linux)."""
    command_only = ("concurrent.futures", "subprocess", "importlib.metadata",
                    "numpy.random")
    code = ("import sys, apil_lab.harness; "
            f"print([m for m in {command_only!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("workload", ["apil-grid", "intrun-grid",
                                      "sweep-maze"])
def test_the_benchmark_set_up_probe_runs(workload, monkeypatch):
    """``perfbench/setup_probe.py`` imports ``estimate_teacher_final_distance``
    and reads ``env.always_succeeds`` and ``cfg.probe_rollouts``; a change
    that drops any of them fails here, not only in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import setup_probe
    assert setup_probe.main(["--workload", workload, "--seed", "0"]) == 0
