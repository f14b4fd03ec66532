"""Nothing is exported that no caller uses.

Every public module-level function and class of `src/flowcnn` must be used
by the code of its own module, or named by another `src/flowcnn` module,
the README, a file under `bench/` or the acceptance tests.  A name that only
the unit tests call is a wrapper the package need not carry."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcnn"
CALLERS = [*sorted(PACKAGE.rglob("*.py")), ROOT / "README.md",
           ROOT / "tests" / "test_acceptance.py",
           *sorted(p for p in (ROOT / "bench").rglob("*")
                   if p.suffix in (".py", ".md"))]


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module's code reads, its docstrings and comments aside."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_definition_has_a_caller():
    texts = {p: p.read_text(encoding="utf-8") for p in CALLERS}
    unused = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(texts[module])
        used = _used_names(tree)
        for name in _public_definitions(tree):
            word = re.compile(rf"\b{name}\b")
            if name not in used and not any(
                    word.search(text) for path, text in texts.items()
                    if path != module):
                unused.append(f"{module.relative_to(ROOT)}: {name}")
    assert not unused, "exported with no caller: " + ", ".join(unused)
