"""Every name a module of the package imports is used: referenced in the
module, or re-exported through its __all__; the package's own modules are
imported at module level only; every private module-level function or
class is referenced somewhere in the package; every def nested in a
function is referenced by that function; and Fraction's private slots are
named in rationals alone.  Stand-ins for a
linter's unused-import and dead-code rules, on the parsed source (ast), with
no package import."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "afflat")


def unused_imports(source):
    """Names bound by the imports of a module source and never used."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_finds_the_leftovers():
    src = ("import os.path\nfrom a import b, c as d\nfrom e import f, g\n"
           "__all__ = ['f']\n\ndef h():\n    return os.path, d\n")
    assert unused_imports(src) == [(2, "b"), (3, "g")]


def nested_package_imports(source):
    """(line, module) of each import of the package (relative, or of
    afflat) that is not a statement of the module body."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if id(node) in top:
            continue
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.split(".")[0] == "afflat":
                found.append((node.lineno, name))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name.split(".")[0] == "afflat")
    return sorted(found)


def test_nested_package_imports_finds_the_local_ones():
    src = ("import os\nfrom . import a\nfrom .b import c\n\n"
           "def f():\n    import json\n    from .d import e\n"
           "    import afflat.core\n\n"
           "class G:\n    def h(self):\n        from afflat import i\n"
           "        from .. import j\n")
    assert nested_package_imports(src) == [
        (7, ".d"), (8, "afflat.core"), (12, "afflat"), (13, "..")]


def package_sources():
    """{file name: source} of the package's modules."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                out[name] = f.read()
    return out


def test_no_unused_imports_in_the_package():
    found = {}
    for name, source in package_sources().items():
        if name == "__init__.py":
            continue
        bad = unused_imports(source)
        if bad:
            found[name] = bad
    assert found == {}


def test_package_imports_are_at_module_level():
    found = {name: bad for name, source in package_sources().items()
             if (bad := nested_package_imports(source))}
    assert found == {}


def unreferenced_private(sources):
    """(module, name) of each module-level def or class whose name starts
    with an underscore and that no Name or Attribute in any of the sources
    refers to."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((m, node.name) for m, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and node.name not in used)


def test_unreferenced_private_finds_the_dead_helpers():
    sources = {"a.py": ("def _used():\n    pass\n\n"
                        "def _dead():\n    return _used()\n\n"
                        "class _Gone:\n    def _method(self):\n        pass\n"
                        "\ndef public():\n    return b._helper\n"),
               "b.py": ("def _helper():\n    pass\n\n"
                        "def _orphan():\n    pass\n")}
    assert unreferenced_private(sources) == [
        ("a.py", "_Gone"), ("a.py", "_dead"), ("b.py", "_orphan")]


def test_no_unreferenced_private_helpers_in_the_package():
    assert unreferenced_private(package_sources()) == []


def _own_defs(fn):
    """The defs nested in the function fn whose nearest enclosing function
    or class is fn."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unreferenced_nested(source):
    """(line, name) of each def nested in a function that no Name of the
    function, outside the def itself, refers to."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for d in _own_defs(fn):
            inner = set(map(id, ast.walk(d)))
            if not any(isinstance(n, ast.Name) and n.id == d.name
                       and id(n) not in inner for n in ast.walk(fn)):
                found.append((d.lineno, d.name))
    return sorted(found)


def test_unreferenced_nested_finds_the_leftover_defs():
    src = ("def f(x):\n"
           "    def used():\n        return x\n"
           "    def dead():\n        return used()\n"
           "    def recursive(n):\n        return recursive(n - 1)\n"
           "    if x:\n        def branch():\n            pass\n"
           "    return used\n\n"
           "class C:\n    def method(self):\n"
           "        def inner():\n            def gone():\n"
           "                pass\n"
           "        return inner\n")
    assert unreferenced_nested(src) == [
        (4, "dead"), (6, "recursive"), (9, "branch"), (16, "gone")]


def test_no_unreferenced_nested_defs_in_the_package():
    found = {name: bad for name, source in package_sources().items()
             if (bad := unreferenced_nested(source))}
    assert found == {}


FRACTION_SLOTS = {"_numerator", "_denominator"}


def fraction_slot_names(source):
    """(line, name) of each mention of Fraction's private slots in a module
    source: as a name, an attribute or a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in FRACTION_SLOTS:
            found.append((node.lineno, name))
    return sorted(found)


def test_fraction_slot_names_finds_the_slots():
    src = ("from fractions import Fraction\n\n"
           "def f(n):\n    x = Fraction(n)\n    x._numerator = n\n"
           "    return getattr(x, '_denominator'), x.numerator\n\n"
           "_numerator = 1\n")
    assert fraction_slot_names(src) == [
        (5, "_numerator"), (6, "_denominator"), (8, "_numerator")]


def test_fraction_slots_are_named_in_rationals_only():
    found = {name: bad for name, source in package_sources().items()
             if name != "rationals.py"
             and (bad := fraction_slot_names(source))}
    assert found == {}
    assert fraction_slot_names(package_sources()["rationals.py"])
