"""Every name a module of the package, or a test module, imports is used in
that module, every private helper of the package is used in the package, and
every package name the benchmark's workloads read is defined."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ial"
WORKLOADS = TESTS.parent / "perfbench" / "workloads.py"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from . import data as dat\n"
        "from .errors import ConfigError, DataError\n"
        "def f():\n"
        "    from .features import vector_batch\n"
        "    raise DataError(np.pi)\n"
    )
    assert unused_imports(source) == ["line 4: os", "line 5: dat", "line 6: ConfigError", "line 8: vector_batch"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes named ``_*`` in ``sources`` (module
    name -> source) that no module reads by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_package_uses_every_private_helper_it_defines():
    """A helper that only tests call is dead code the tests keep alive."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_unused_private_definitions_finds_a_helper_nothing_reads():
    sources = {
        "a.py": "def _used():\n    pass\nclass _Kept:\n    pass\ndef _dead():\n    return _used()\n",
        "b.py": "from . import a\nx = a._Kept\n",
    }
    assert unused_private_definitions(sources) == ["a.py: _dead"]


def test_cli_import_leaves_the_thread_pool_unloaded():
    """No command starts worker threads, so nothing imports ``concurrent.futures``
    (which loads ``logging``) and a fresh ``ial`` process does not pay for it.
    Nor is ``base64`` loaded: a checkpoint's arrays are raw float64 bytes, so
    nothing on the ``ial detect`` path decodes text."""
    code = "import sys, ial.cli; print(sorted({'base64', 'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out == "[]\n"


def package_names_read(source: str) -> list[str]:
    """The dotted ``ial`` names that ``source`` reads: each name imported by
    ``from ial.<module> import``, and each attribute read off a module that
    ``from ial import <module>`` binds."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ial":
            modules.update({alias.asname or alias.name: f"ial.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ial."):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    names.update(f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules)
    return sorted(names)


def missing_names(dotted: list[str]) -> list[str]:
    """The names in ``dotted`` that their module does not define."""
    missing = []
    for name in dotted:
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    return missing


def test_package_defines_every_name_the_benchmark_reads():
    """The benchmark's workloads call into the package by name; a refactor
    that renames one of those names fails here and not in a benchmark run."""
    names = package_names_read(WORKLOADS.read_text(encoding="utf-8"))
    assert {"ial.cli.main", "ial.config.load_run_config", "ial.detector.build_phase1_dataset",
            "ial.evaluation.evaluate_run", "ial.net.train"} <= set(names)
    assert missing_names(names) == []


def test_missing_names_finds_an_attribute_the_package_lacks():
    source = (
        "from ial import net\n"
        "from ial import detector as det\n"
        "from ial.config import load_run_config, no_such_loader\n"
        "import numpy as np\n"
        "def run():\n"
        "    return net.train, det.no_such_builder, np.zeros\n"
    )
    names = package_names_read(source)
    assert names == ["ial.config.load_run_config", "ial.config.no_such_loader",
                     "ial.detector.no_such_builder", "ial.net.train"]
    assert missing_names(names) == ["ial.config.no_such_loader", "ial.detector.no_such_builder"]
