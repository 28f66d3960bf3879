"""The CI workflow's test selections."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

import sparsemh.cli
from sparsemh.datasets import smallworld_path

ROOT = Path(__file__).parents[1]


def test_every_k_selector_in_the_workflow_names_a_test():
    # pytest runs nothing, and passes, for a -k expression that matches no
    # test: each selector must be part of a test name in the files it filters
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    selections = 0
    for line in workflow.splitlines():
        if "python -m pytest" not in line:
            continue
        argv = shlex.split(line[line.index("python -m pytest"):])
        if "-k" not in argv:
            continue
        selections += 1
        files = [ROOT / arg for arg in argv if arg.endswith(".py")]
        names = [name.lower() for path in files for name in re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"), re.M)]
        for selector in argv[argv.index("-k") + 1].split(" or "):
            assert any(selector.lower() in name for name in names), (selector, line.strip())
    assert selections == workflow.count(" -k ") > 0


def test_the_console_script_and_its_smallworld_are_packaged():
    # the workflow's console step runs the installed sparsemh on the packaged smallworld
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = project["project"]["scripts"]["sparsemh"].partition(":")
    assert getattr(importlib.import_module(module), name) is sparsemh.cli.main
    package = Path(sparsemh.__file__).resolve().parent
    globs = project["tool"]["setuptools"]["package-data"]["sparsemh"]
    assert smallworld_path() in {path for glob in globs for path in package.glob(glob)}
