"""No name and no parameter default in the package is there for the
tests alone.

Each top-level function and class of ``src/anonflow``, and each of its
classes' methods that is not a dunder, must be used by name in the
package or in a non-test module of ``perfbench/``, outside its own
definition.  A use is a name, an attribute, or a part of a dotted string
constant, such as a span target of ``perfbench/spans.py``.

Each parameter default of a ``def`` in ``src/anonflow`` must be taken by
at least one call in those same modules: a call that leaves the
parameter out.  A call is matched by the callee's name, and a
constructor by its class name; a call through ``*args`` or ``**kwargs``
counts as passing every argument.

Each field of a dataclass in ``src/anonflow`` must be read by name in the
package: an attribute of that name loaded somewhere in its modules.
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
DEFAULTS_EXEMPT = {
    # perfbench/test_perfbench.py raises the error without a span, to check
    # that the tracer records it
    ("UnmatchedEntityError", "span"),
}
FIELDS_EXEMPT = {
    ("WeightStrategy", "scope"),   # perfbench/spans.py reads it
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


def defaults(tree):
    """(callee name, parameter, position or None, node) of each parameter
    default of each ``def`` in a module.  A method's position leaves out
    its ``self``, and an ``__init__`` is called by its class name; a
    keyword-only parameter has no position."""
    owner = {id(item): node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        pos = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if id(node) in owner and not static:
            pos = pos[1:]
        name = owner[id(node)] if node.name == "__init__" else node.name
        for i in range(len(pos) - len(args.defaults), len(pos)):
            yield name, pos[i].arg, i, node
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, node


def omits(call, param, position) -> bool:
    """``call`` leaves ``param`` (at ``position``) to its default."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None or k.arg == param for k in call.keywords)):
        return False
    return position is None or len(call.args) <= position


def callee(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def unused_defaults(package, callers) -> list:
    """The parameter defaults in the ``package`` files that no call in the
    ``callers`` files takes, as ``file:line name(parameter)``."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in {*package, *callers}}
    calls = {}
    for p in callers:
        for node in ast.walk(trees[p]):
            if isinstance(node, ast.Call):
                calls.setdefault(callee(node), []).append(node)
    out = []
    for p in package:
        for name, param, position, node in defaults(trees[p]):
            if ((name, param) not in DEFAULTS_EXEMPT
                    and not any(omits(c, param, position)
                                for c in calls.get(name, []))):
                out.append(f"{p.name}:{node.lineno} {name}({param})")
    return out


def test_every_default_is_taken_outside_the_tests():
    assert unused_defaults(PACKAGE, PACKAGE + BENCHMARK) == []


def test_a_default_every_call_overrides_is_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
        "class Box:\n    def __init__(self, v=0, w=1):\n        self.v = v\n\n"
        "    def get(self, k=None):\n        return k\n\n\n"
        "f(0, 1, c=2)\nf(0, b=2, c=1)\nBox(5)\nBox(*[1])\n"
        "Box(2).get(**{})\n")
    assert unused_defaults([mod], [mod]) == [
        "mod.py:1 f(b)", "mod.py:1 f(c)", "mod.py:6 Box(v)", "mod.py:9 get(k)"]


def fields(tree):
    """(class name, field, node) of each annotated name in the body of
    each ``@dataclass`` class of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "dataclass" in {
                callee(d) if isinstance(d, ast.Call) else getattr(d, "id", 0)
                for d in node.decorator_list}:
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id, item


def unread_fields(package) -> list:
    """The dataclass fields of the ``package`` files that no attribute
    load in them reads, as ``file:line Class.field``."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in package}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{p.name}:{node.lineno} {cls}.{name}"
            for p in package for cls, name, node in fields(trees[p])
            if name not in read and (cls, name) not in FIELDS_EXEMPT]


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields(PACKAGE) == []


def test_a_field_only_written_is_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    v: int\n"
        "    w: int = 0\n\n\n"
        "@dataclass\nclass Tag:\n    name: str\n    note: str = ''\n\n"
        "    def label(self):\n        return self.name\n\n\n"
        "class Plain:\n    u: int = 0\n\n\n"
        "b = Box(v=1, w=2)\nt = Tag('x')\nt.note = b.v\n")
    assert unread_fields([mod]) == ["mod.py:7 Box.w", "mod.py:13 Tag.note"]
