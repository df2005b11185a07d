"""The package's export list and the README's library example."""

import ast
import contextlib
import io
import math
import re
from pathlib import Path

import dlesim

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    assert len(set(dlesim.__all__)) == len(dlesim.__all__)
    for name in dlesim.__all__:
        assert hasattr(dlesim, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dlesim import *", namespace)
    assert set(dlesim.__all__) <= set(namespace)


def test_every_import_in_src_is_read():
    # no linter runs here: an imported name that its module never reads
    # fails, unless __init__.py re-exports it or its line says noqa: F401
    unused = []
    for path in sorted((ROOT / "src" / "dlesim").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(dlesim.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_readme_library_example_prints_a_small_difference():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    (line,) = printed.getvalue().splitlines()
    assert math.isfinite(float(line)) and float(line) < 1e-5
