"""asdkit's public API is what its commands, the bench and the README use.

A public function, class, method or UPPER_CASE module constant that only
tests use is test code, and belongs in the tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "asdkit"

# public names kept although nothing calls them yet, with the reason; each
# leaves this list once something calls it
UNCALLED = {"dataset_violations": "the rules asdkit check will report"}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _public_definitions(module: ast.Module):
    """Names of the module's public functions and classes, of their public
    methods, and of its public UPPER_CASE constants."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and name.id.isupper()
                        and not name.id.startswith("_"))


def _referenced(module: ast.Module) -> set[str]:
    """The variable and attribute names the module's code reads; a name's
    assignment is not a use of it."""
    return ({node.id for node in ast.walk(module)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute)})


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def _code_spans(markdown: str) -> str:
    """The markdown's fenced blocks and inline code spans; prose is left out."""
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", markdown, re.S))


def test_every_public_name_is_used_outside_the_tests():
    modules = _modules()
    in_code = set().union(*map(_referenced, modules.values()))
    for path in sorted((ROOT / "bench").glob("*.py")):
        in_code |= _words(path.read_text())
    used = in_code | _words(_code_spans((ROOT / "README.md").read_text()))
    defined = {name for module in modules.values() for name in _public_definitions(module)}
    assert sorted(defined - used - set(UNCALLED)) == []
    assert set(UNCALLED) <= defined
    assert sorted(set(UNCALLED) & in_code) == []
