"""The CI workflow's test selections."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

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
