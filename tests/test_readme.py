"""README.md's acceptance list cites tests by `test_*.py::test_*`; every
cited test must exist, so that a renamed or deleted test cannot leave the
list promising coverage that is gone."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined_tests(module: Path) -> set[str]:
    if not module.exists():
        return set()
    tree = ast.parse(module.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_readme_cites_only_tests_that_exist():
    cited = set(re.findall(r"\b(test_\w+\.py)::(test_\w+)", (ROOT / "README.md").read_text()))
    assert len(cited) >= 10, cited
    missing = sorted(
        f"{module}::{name}"
        for module, name in cited
        if name not in _defined_tests(ROOT / "tests" / module)
    )
    assert not missing, missing
