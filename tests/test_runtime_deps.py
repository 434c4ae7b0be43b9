"""The package's runtime needs numpy and the standard library only."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "guidelab"


def test_cli_import_loads_no_scipy():
    code = ("import sys, guidelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def _imported_packages(path):
    """Top-level package of every import in ``path``, function-level ones too
    (relative imports count as guidelab)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "guidelab" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    foreign = {name for name in _imported_packages(path)
               if name not in sys.stdlib_module_names and name not in ("numpy", "guidelab")}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def _private_imports(path):
    """(module, name) of every underscore-prefixed name that ``path`` takes
    from another guidelab module; a private module itself, such as ``_blas``
    in ``from . import _blas``, may be imported."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            module = "guidelab." + module if module else "guidelab"
        if module.split(".")[0] != "guidelab" or module == "guidelab":
            continue
        yield from ((module, alias.name) for alias in node.names
                    if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    taken = sorted(_private_imports(path))
    assert not taken, f"{path.name} imports private names {taken}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_state(path):
    # module state rebinds a name under ``global``; what a call keeps
    # belongs to an object its caller owns
    tree = ast.parse(path.read_text(), filename=str(path))
    names = sorted({name for node in ast.walk(tree) if isinstance(node, ast.Global)
                    for name in node.names})
    assert not names, f"{path.name} rebinds module names {names}"
