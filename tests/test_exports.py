"""The package's export list and the README's library example."""

import contextlib
import io
import math
import re
from pathlib import Path

import dlesim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(dlesim.__all__)) == len(dlesim.__all__)
    for name in dlesim.__all__:
        assert hasattr(dlesim, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dlesim import *", namespace)
    assert set(dlesim.__all__) <= set(namespace)


def test_readme_library_example_prints_a_small_difference():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    (line,) = printed.getvalue().splitlines()
    assert math.isfinite(float(line)) and float(line) < 1e-5
