"""The public names: everything in ``infconv.__all__`` and in each module's
``__all__`` resolves, and every name the demos and the README import from
``infconv`` is in it.  The demos and the README code are parsed, not run."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import infconv

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "infconv"
        for alias in node.names
    ]


MODULES = ["analytic", "cli", "measures", "net", "oracle", "optim", "sampling", "sharing"]


@pytest.mark.parametrize("name", ["infconv"] + [f"infconv.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # a function deleted from a module but left in its __all__ fails here
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_demos_and_readme_import_only_exported_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("demos/*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)):
        sources[f"README.md python block {k}"] = block
    imports = {where: _imported_names(text) for where, text in sources.items()}
    # the quick tour and most demos import from infconv; empty lists there
    # would mean the parse missed them
    assert imports["README.md python block 0"]
    assert sum(bool(names) for names in imports.values()) > 2
    unknown = {where: [n for n in names if n not in infconv.__all__]
               for where, names in imports.items()}
    assert not any(unknown.values()), unknown
