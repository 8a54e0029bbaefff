"""No name in the package is there for the tests alone.

Each top-level function and class of ``src/anonflow``, and each of its
classes' methods that is not a dunder, must be used by name in the
package or in a non-test module of ``perfbench/``, outside its own
definition.  A use is a name, an attribute, or a part of a dotted string
constant, such as a span target of ``perfbench/spans.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "anonflow").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
EXEMPT = {
    "main",           # the console-script entry point
    # the per-trial scoring reference: score_trials and utility_probes
    # are its column forms, bit for bit, and the tests check them with it
    "cosine_score",
}


def definitions(tree):
    """(name, node) of each top-level function and class of a module, and
    of each of its classes' methods that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


def uses(tree):
    """(name, node) of each use of a name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value):
            for part in node.value.split("."):
                yield part, node


def unused_names(package, users) -> list:
    """The names defined in the ``package`` files that no ``users`` file
    uses outside their own definitions, as ``file:line name``."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in {*package, *users}}
    used = {}
    for p in users:
        for name, node in uses(trees[p]):
            used.setdefault(name, []).append(node)
    out = []
    for p in package:
        for name, node in definitions(trees[p]):
            inside = {id(n) for n in ast.walk(node)}
            if name not in EXEMPT and all(id(n) in inside
                                          for n in used.get(name, [])):
                out.append(f"{p.name}:{node.lineno} {name}")
    return out


def test_every_package_name_is_used_outside_the_tests():
    assert unused_names(PACKAGE, PACKAGE + BENCHMARK) == []


def test_a_name_used_only_in_its_own_definition_is_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
        "    def peek(self):\n        return self.v\n\n"
        "    def spun(self):\n        return self.spun\n\n\n"
        "TARGET = 'mod.Box.peek'\n")
    assert unused_names([mod], [mod]) == ["mod.py:1 loop", "mod.py:16 spun"]
