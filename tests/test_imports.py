"""Each module of the package uses every name it imports, every private
name it defines at module level is referred to somewhere in the package,
no module holds mutable state at its top level, none sets the process
recursion limit, and no function calls itself except through
sequent.recurse.  Checked on the syntax tree with the standard
library, since no linter is a dependency; the import check leaves
__init__.py out because it imports names to re-export them."""

import ast
from pathlib import Path

import connexive

PACKAGE = Path(connexive.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_private_names(sources: list[str]) -> list[str]:
    """The private (_-prefixed, not dunder) functions, classes and
    assigned names defined at the top level of the sources that none of
    them reads, imports or names as an attribute."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(n for n in defined - used if n.startswith("_") and not n.startswith("__"))


def module_level_state(source: str) -> list[str]:
    """The names assigned at the top level of source to an empty dict,
    list or set, a dict/list/set/defaultdict call or a call into
    threading: state every caller in the process would share."""

    def mutable(value) -> bool:
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, (ast.List, ast.Set)):
            return not value.elts
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute):
            return func.attr == "defaultdict" or (isinstance(func.value, ast.Name) and func.value.id == "threading")
        return isinstance(func, ast.Name) and func.id in ("dict", "list", "set", "defaultdict")

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and mutable(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(found)


def recursion_limit_calls(source: str) -> list[int]:
    """The lines of source that call setrecursionlimit, as sys.x(...) or
    as a bare name: a process-wide setting no library call should change."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
        == "setrecursionlimit"
    ]


def self_calls(source: str) -> list[str]:
    """The functions of source that call themselves, once per call, by
    name or as self.<name>, anywhere in their bodies (nested functions
    and lambdas included): recursion on the interpreter's stack, which a
    deep input overflows.  A call that is the operand of yield is left
    out: that is a generator asking sequent.recurse for the value."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yielded = {id(n.value) for n in ast.walk(func) if isinstance(n, ast.Yield)}
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or id(node) in yielded:
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == func.name) or (
                isinstance(f, ast.Attribute) and f.attr == func.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"
            ):
                found.append(func.name)
    return found


def test_unused_imports_detected():
    assert unused_imports("import os\nimport a.b\nfrom x import y, z as w\nos.sep, w\n") == ["a", "y"]


def test_no_unused_imports():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_unused_private_names_detected():
    module = "_a = 1\n_b, c = 2, 3\n__all__ = []\ndef _f():\n    return _a\nclass _C:\n    pass\n_d: int = 0\n"
    assert unused_private_names([module]) == ["_C", "_b", "_d", "_f"]
    assert unused_private_names([module, "from .m import _f\nimport m\nm._C\n"]) == ["_b", "_d"]


def test_no_unused_private_names():
    assert unused_private_names([path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []


def test_module_level_state_detected():
    module = (
        "import collections, threading\n_a = {}\n_b: list[int] = []\n_c = set()\n"
        "_d = collections.defaultdict(list)\n_e = threading.Lock()\nf = dict(x=1)\n"
        "TABLE = {1: 2}\nNAMES = [1]\n_g = frozenset()\n_h: int\ndef _i():\n    _j = {}\n"
    )
    assert module_level_state(module) == ["_a", "_b", "_c", "_d", "_e", "f"]


def test_no_module_level_state():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := module_level_state(path.read_text()))
    }
    assert found == {}


def test_recursion_limit_calls_detected():
    module = (
        "import sys\nfrom sys import setrecursionlimit\n"
        "sys.setrecursionlimit(10**5)\nsetrecursionlimit(2000)\nsys.getrecursionlimit()\n"
        "def f():\n    sys.setrecursionlimit(1)\n"
    )
    assert recursion_limit_calls(module) == [3, 4, 7]


def test_no_recursion_limit_calls():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := recursion_limit_calls(path.read_text()))
    }
    assert found == {}


def test_self_calls_detected():
    module = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g(n):\n    x = yield g(n - 1)\n    yield from g(n)\n"
        "def h(n):\n    def inner():\n        return h(n)\n    return (lambda: h(1))()\n"
        "class C:\n    def m(self):\n        return self.m() + other.m()\n"
        "def k():\n    return f(1)\n"
    )
    assert self_calls(module) == ["f", "g", "h", "h", "m"]


def test_no_self_calls():
    """Every recursive walk in the package keeps its own stack or runs on
    sequent.recurse.  The one exception is decide's single call for a
    starred calculus, which decides the unstarred one: perfbench/spans.py
    tells search time from destar time by that nested decide span."""
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := self_calls(path.read_text()))
    }
    assert found == {"prover.py": ["decide"]}
